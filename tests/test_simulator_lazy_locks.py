"""Tests for node locks created on first acquire.

The drivers give a node its R/W lock the first time an operation
acquires it (``OperationContext.new_lock``), not when the node is
created.  A lock nobody has held accumulates nothing, so a run must
come out exactly as one whose locks all exist from the start; these
tests pin that, and the per-level bookkeeping the tree's node hook
still does.
"""

import random

import pytest

from repro.algorithms import all_algorithms
from repro.btree import BPlusTree
from repro.des.engine import Simulator
from repro.model.params import OperationMix
from repro.obs import TelemetryOptions, TelemetryRecorder, dumps_ndjson
from repro.simulator import SimulationConfig, closed, driver, run_simulation
from repro.simulator.closed import run_closed_simulation
from repro.simulator.metrics import MetricsCollector

ALGORITHMS = [spec.name for spec in all_algorithms()]
CLOSED_ALGORITHMS = [spec.name for spec in all_algorithms()
                     if spec.supports_closed]


def _config(algorithm, **overrides):
    defaults = dict(algorithm=algorithm, arrival_rate=0.06, n_items=2000,
                    n_operations=300, warmup_operations=30, seed=4)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _nodes(tree):
    for level in range(1, tree.height + 1):
        yield from tree.level_nodes(level)


def _capture_set_up(monkeypatch, eager=False):
    """Wrap the drivers' set-up; return the list the trees land in.

    With ``eager`` every node gets its lock at set-up, and every node a
    split creates later gets one from the tree's node hook, which is
    how the drivers attached locks before locks became lazy.
    """
    trees = []
    real = driver._set_up

    def set_up(*args, **kwargs):
        metrics, tree, sim, ctx = real(*args, **kwargs)
        trees.append(tree)
        if eager:
            new_lock = ctx.new_lock
            for node in _nodes(tree):
                new_lock(node)
            note_node = tree.on_new_node

            def attach(node):
                note_node(node)
                new_lock(node)

            tree.on_new_node = attach
        return metrics, tree, sim, ctx

    monkeypatch.setattr(driver, "_set_up", set_up)
    monkeypatch.setattr(closed, "_set_up", set_up)
    return trees


def _eager_matches_lazy(monkeypatch, run):
    lazy = run()
    trees = _capture_set_up(monkeypatch, eager=True)
    eager = run()
    assert trees and all(node.lock is not None
                         for node in _nodes(trees[-1]))
    assert eager == lazy


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_open_run_same_with_eager_locks(monkeypatch, algorithm):
    config = _config(algorithm)
    _eager_matches_lazy(monkeypatch, lambda: repr(run_simulation(config)))


@pytest.mark.parametrize("algorithm", CLOSED_ALGORITHMS)
def test_closed_run_same_with_eager_locks(monkeypatch, algorithm):
    config = _config(algorithm, n_operations=200, warmup_operations=20)
    _eager_matches_lazy(monkeypatch, lambda: repr(run_closed_simulation(
        config, multiprogramming_level=6, think_time=2.0)))


def test_compactor_run_same_with_eager_locks(monkeypatch):
    # Small delete-heavy link nodes, so the compactor has empty leaves
    # to splice out (it locks parent, left neighbour and leaf).
    config = _config("link-type", order=4, compaction_interval=5.0,
                     mix=OperationMix(q_search=0.2, q_insert=0.42,
                                      q_delete=0.38))
    assert run_simulation(config).compactions > 0
    _eager_matches_lazy(monkeypatch, lambda: repr(run_simulation(config)))


def test_recovery_run_same_with_eager_locks(monkeypatch):
    config = _config("optimistic-descent", recovery="naive-recovery")
    _eager_matches_lazy(monkeypatch, lambda: repr(run_simulation(config)))


def test_telemetry_same_with_eager_locks(monkeypatch):
    config = _config("link-type")

    def run():
        recorder = TelemetryRecorder(TelemetryOptions())
        run_simulation(config, telemetry=recorder)
        return dumps_ndjson(recorder.telemetry)

    _eager_matches_lazy(monkeypatch, run)


def test_short_run_leaves_nodes_unlocked(monkeypatch):
    trees = _capture_set_up(monkeypatch)
    run_simulation(_config("link-type", n_operations=100))
    nodes = list(_nodes(trees[0]))
    assert any(node.lock is not None for node in nodes)
    assert any(node.lock is None for node in nodes)
    # A lock created on first acquire keeps the eager lock's name.
    assert all(node.lock.name == f"n{node.node_id}"
               for node in nodes if node.lock is not None)


def test_set_up_registers_every_level_before_any_operation():
    config = _config("naive-lock-coupling")
    recorder = TelemetryRecorder(TelemetryOptions())
    metrics, tree, _sim, ctx = driver._set_up(
        config, 11, random.Random(1), random.Random(2), telemetry=recorder)
    levels = list(range(1, tree.height + 1))
    assert sorted(metrics.level_waits) == levels
    assert sorted(recorder.sampler.levels) == levels
    for level in levels:
        live = sum(1 for _ in tree.level_nodes(level))
        assert recorder.sampler.levels[level].nodes >= live
    assert all(node.lock is None for node in _nodes(tree))
    # The context's factory attaches a wired lock on demand; the locks
    # of one level share its observer and live state.
    leaf = tree.leftmost_leaf()
    lock = ctx.new_lock(leaf)
    assert leaf.lock is lock
    assert lock.telemetry is recorder.sampler.levels[1]
    assert lock.observer is ctx.new_lock(leaf.right).observer
    assert lock.observer.inner is metrics.level_waits[1]


def test_root_sampler_counts_unlocked_root_as_idle():
    tree = BPlusTree(order=4)
    for key in range(20):
        tree.insert(key)
    assert tree.root.lock is None
    metrics = MetricsCollector(seed=0)
    metrics.measuring = True
    sim = Simulator()
    sim.spawn(driver._root_sampler(tree, metrics))
    sim.run(until=3.5)
    assert metrics.root_samples == 3
    assert metrics.root_writer_present_samples == 0
    assert metrics.root_queue_length_total == 0
    assert tree.root.lock is None
