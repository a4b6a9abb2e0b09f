"""The construction memo (``repro.btree.builder.warm_tree``).

A tree served from the memo must be indistinguishable from a fresh
``build_tree`` with the same arguments: the same per-level chains,
counters and node-allocation sequence, a private copy the caller may
mutate, and byte-identical simulator output.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.btree import (
    MERGE_AT_EMPTY,
    MERGE_AT_HALF,
    build_tree,
    check_invariants,
)
from repro.btree import builder
from repro.btree.builder import warm_tree
from repro.errors import ConfigurationError
from repro.model.params import OperationMix
from repro.obs import TelemetryOptions, TelemetryRecorder, dumps_ndjson, loads_ndjson
from repro.simulator.config import SimulationConfig
from repro.simulator.driver import run_simulation

KEY_SPACE = 1 << 30
SEED = 3
POLICIES = pytest.mark.parametrize("policy", [MERGE_AT_EMPTY, MERGE_AT_HALF], ids=str)


@pytest.fixture(autouse=True)
def empty_memo():
    builder._memo.clear()
    yield
    builder._memo.clear()


def _shape(tree):
    """Everything observable about a built tree, node identity aside."""
    chains = [[(list(node.keys), node.high_key) for node in tree.level_nodes(level)]
              for level in range(1, tree.height + 1)]
    return (chains, len(tree), tree.height, tree.split_count, tree.merge_count)


def _allocations(nodes):
    """Nodes handed to ``on_new_node``: per-level counts and which died."""
    return Counter(node.level for node in nodes), [node.dead for node in nodes]


def _check_clones(n_items, order, insert_fraction, policy, key_space=KEY_SPACE):
    args = (n_items, order, insert_fraction, policy, key_space, SEED)
    fresh_seen, miss_seen, hit_seen = [], [], []
    fresh = build_tree(*args[:5], seed=SEED, on_new_node=fresh_seen.append)
    first = warm_tree(*args, on_new_node=miss_seen.append)
    clone = warm_tree(*args, on_new_node=hit_seen.append)
    assert len(builder._memo) == 1
    for tree, seen in ((first, miss_seen), (clone, hit_seen)):
        assert _shape(tree) == _shape(fresh)
        check_invariants(tree)
        assert _allocations(seen) == _allocations(fresh_seen)
        assert tree.on_new_node == seen.append  # not the recording hook
    # Each caller owns its tree: mutating the first two must not leak
    # into the snapshot the next clone is rebuilt from.
    for key in range(0, key_space, key_space // 200):
        first.insert(key)
        clone.insert(key + 1)
    for key in list(clone)[::3]:
        clone.delete(key)
    assert _shape(warm_tree(*args)) == _shape(fresh)
    return fresh, fresh_seen


@POLICIES
@pytest.mark.parametrize("order", range(3, 14))
def test_clone_matches_fresh_build(order, policy):
    _check_clones(300, order, 5.0 / 7.0, policy)


@POLICIES
@pytest.mark.parametrize("order", [3, 4, 5])
def test_clone_restores_nodes_freed_during_construction(order, policy):
    fresh, allocated = _check_clones(40, order, 0.55, policy)
    assert fresh.merge_count > 0
    assert any(node.dead for node in allocated)


def test_clone_with_keys_beyond_32_bits():
    fresh, _ = _check_clones(300, 7, 5.0 / 7.0, MERGE_AT_EMPTY, key_space=1 << 40)
    assert max(fresh) >= 1 << 32


def test_key_space_beyond_64_bits_is_built_without_the_memo():
    args = (200, 5, 5.0 / 7.0, MERGE_AT_EMPTY, 1 << 70, SEED)
    assert _shape(warm_tree(*args)) == _shape(build_tree(*args[:5], seed=SEED))
    assert not builder._memo


def test_memo_is_bounded_least_recently_used_first():
    for seed in range(builder.WARM_TREE_MEMO_SIZE + 1):
        warm_tree(50, 5, 5.0 / 7.0, MERGE_AT_EMPTY, KEY_SPACE, seed)
    assert len(builder._memo) == builder.WARM_TREE_MEMO_SIZE
    assert [key[0] for key in builder._memo] == \
        list(range(1, builder.WARM_TREE_MEMO_SIZE + 1))
    warm_tree(50, 5, 5.0 / 7.0, MERGE_AT_EMPTY, KEY_SPACE, 1)  # a hit
    assert next(reversed(builder._memo))[0] == 1


def test_build_tree_rejects_more_items_than_keys():
    with pytest.raises(ConfigurationError, match="key space"):
        build_tree(100, key_space=50)
    with pytest.raises(ConfigurationError, match="key space"):
        warm_tree(100, 13, 5.0 / 7.0, MERGE_AT_EMPTY, 50, 0)
    assert not builder._memo
    assert len(build_tree(50, key_space=50, insert_fraction=1.0)) == 50


def test_config_rejects_more_items_than_keys():
    with pytest.raises(ConfigurationError, match="key_space"):
        SimulationConfig(n_items=100, key_space=50)
    SimulationConfig(n_items=50, key_space=50)


def test_telemetry_identical_on_memo_hit():
    # A delete-heavy mix on a narrow tree, so construction frees nodes
    # and the per-level node counts must include them.
    config = SimulationConfig(algorithm="link-type", arrival_rate=0.15,
                              order=4, n_items=400,
                              mix=OperationMix(0.3, 0.39, 0.31),
                              n_operations=150, warmup_operations=20, seed=7)

    def export() -> str:
        recorder = TelemetryRecorder(TelemetryOptions())
        run_simulation(config, telemetry=recorder)
        return dumps_ndjson(recorder.telemetry)

    export()
    (snapshot,) = builder._memo.values()
    assert len(snapshot.dead) > 0
    served = export()
    builder._memo.clear()
    rebuilt = export()
    assert served == rebuilt
    assert [level.nodes for level in loads_ndjson(served).levels] == \
        [level.nodes for level in loads_ndjson(rebuilt).levels]
