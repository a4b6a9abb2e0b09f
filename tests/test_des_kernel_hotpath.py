"""Regression tests for the allocation-free kernel hot path.

Three layers of protection for the hot-path rewrite (typed heap events,
interned commands, bare-float holds, O(1) writer-waiting counter):

* **Golden-seed determinism** — full simulator runs hashed against
  fingerprints captured when the rewrite was proven byte-identical to
  the pre-rewrite kernel.  Any change to event ordering, RNG stream
  consumption, or result contents shows up here (and must be paired
  with a ``CODE_SALT`` bump in ``repro.parallel.cache``).  The same
  digests must hold when the warm-up tree comes from the construction
  memo instead of a fresh build.  Two telemetry runs are hashed too,
  over their whole NDJSON export (per-level node counts, series and
  engine counters included).
* **Typed-event scheduling paths** — every heap-record kind
  (action / start / resume) and every command spelling the step loop
  accepts, including the error paths.
* **Equivalence checks** — traced vs untraced stepping, the maintained
  queued-writer counter vs a direct queue scan, and the bisect-based
  hyperexponential branch selection vs the old linear walk.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.btree import builder
from repro.des import Acquire, Hold, READ, RWLock, Release, Simulator, WRITE
from repro.des.distributions import Hyperexponential
from repro.des.trace import TraceLog
from repro.errors import ProcessError
from repro.obs import TelemetryOptions, TelemetryRecorder, dumps_ndjson
from repro.simulator import SimulationConfig, run_simulation
from repro.simulator.closed import run_closed_simulation


def fingerprint(result) -> str:
    """Stable digest of every field of a SimulationResult."""
    return hashlib.sha256(
        repr(dataclasses.asdict(result)).encode()).hexdigest()


def gen(*commands):
    """A generator yielding a fixed command sequence."""
    for command in commands:
        yield command


# ----------------------------------------------------------------------
# Golden-seed determinism
# ----------------------------------------------------------------------
#: (algorithm, arrival_rate, seed) -> sha256 of the full result, captured
#: from the kernel that was verified byte-identical to the pre-rewrite
#: one.  Shared scale: n_items=2000, n_operations=400, warmup=50.
GOLDEN_OPEN = {
    ("naive-lock-coupling", 0.03, 1):
        "98534384e8f573a08d4e36f9d456f3d0bcf16d5b4c3ff7b9f7e0ea3a0547029a",
    ("naive-lock-coupling", 0.06, 2):
        "d8efff5571193b59328ee1a58925a67e9d3beeed72d80f5bb57706b7f42e9c91",
    ("optimistic-descent", 0.03, 1):
        "0664e939d538bbdd8a190b00aaac78197e33c036326fd18349ea3dd88d159ace",
    ("optimistic-descent", 0.06, 2):
        "a6e835ad5cac82a9d32e8df70d2f343e5afc9af4d474c655d8ea457ea2764e08",
    ("link-type", 0.03, 1):
        "545e1d193c65d9def49847b869164ae760129f259de49edbd48c52ce7061588c",
    ("link-type", 0.06, 2):
        "d169bea76961d7e3abb340426a198e0dfa6ca1e40f6eba6911c3eed810d2fea0",
    ("link-symmetric", 0.04, 5):
        "0b49753e180b1208eb6b5680d9de985c6f8d384f67c977a4858df30aaf6d3622",
    ("two-phase-locking", 0.02, 7):
        "369f754565a942499b59c58298d7f113acffb4353eacbb146c9ac804bb1ca6fb",
}

GOLDEN_CLOSED = \
    "e96fe70b11a8cbe902af9c0f3779b5cf899e0e1aeff3f7a1040883b5f2876564"


@pytest.mark.parametrize("algorithm,rate,seed", sorted(GOLDEN_OPEN),
                         ids=lambda v: str(v))
def test_golden_seed_open_system(algorithm, rate, seed):
    config = SimulationConfig(algorithm=algorithm, arrival_rate=rate,
                              n_items=2000, n_operations=400,
                              warmup_operations=50, seed=seed)
    assert fingerprint(run_simulation(config)) == \
        GOLDEN_OPEN[(algorithm, rate, seed)]


def test_golden_seed_closed_system():
    config = SimulationConfig(algorithm="optimistic-descent", n_items=1000,
                              n_operations=200, warmup_operations=20, seed=3)
    result = run_closed_simulation(config, multiprogramming_level=8,
                                   think_time=2.0)
    assert fingerprint(result) == GOLDEN_CLOSED


@pytest.mark.parametrize("algorithm,rate,seed", sorted(GOLDEN_OPEN),
                         ids=lambda v: str(v))
def test_golden_seed_open_system_on_memo_hits(algorithm, rate, seed):
    # The first run builds the warm-up tree; the run at another rate
    # and the repeat are served clones of it from the construction memo.
    builder._memo.clear()
    config = SimulationConfig(algorithm=algorithm, arrival_rate=rate,
                              n_items=2000, n_operations=400,
                              warmup_operations=50, seed=seed)
    built = fingerprint(run_simulation(config))
    run_simulation(config.with_rate(rate * 1.5))
    served = fingerprint(run_simulation(config))
    assert len(builder._memo) == 1
    assert built == served == GOLDEN_OPEN[(algorithm, rate, seed)]


def test_golden_seed_closed_system_on_memo_hit():
    builder._memo.clear()
    config = SimulationConfig(algorithm="optimistic-descent", n_items=1000,
                              n_operations=200, warmup_operations=20, seed=3)
    digests = [fingerprint(run_closed_simulation(
        config, multiprogramming_level=8, think_time=2.0)) for _ in range(2)]
    assert len(builder._memo) == 1
    assert digests == [GOLDEN_CLOSED, GOLDEN_CLOSED]


#: (algorithm, arrival_rate) -> sha256 of the ``dumps_ndjson`` export
#: of one seed-1 telemetry run at the shared scale, captured while every
#: node's lock was still created with the node.
GOLDEN_TELEMETRY = {
    ("link-type", 0.06):
        "64fe4c26cf059004a9bb35bd6cd6f9cbc3024dd180db40f6ff588b410750a10c",
    ("naive-lock-coupling", 0.03):
        "1b2ede037d8051bf75a6a225025d24ad65a6d6b88727839a53e8685e8c95a064",
}


@pytest.mark.parametrize("algorithm,rate", sorted(GOLDEN_TELEMETRY),
                         ids=lambda v: str(v))
def test_golden_seed_telemetry_export(algorithm, rate):
    config = SimulationConfig(algorithm=algorithm, arrival_rate=rate,
                              n_items=2000, n_operations=400,
                              warmup_operations=50, seed=1)
    recorder = TelemetryRecorder(TelemetryOptions())
    run_simulation(config, telemetry=recorder)
    digest = hashlib.sha256(
        dumps_ndjson(recorder.telemetry).encode()).hexdigest()
    assert digest == GOLDEN_TELEMETRY[(algorithm, rate)]


# ----------------------------------------------------------------------
# Typed-event scheduling paths
# ----------------------------------------------------------------------
def test_spawn_delay_uses_start_record():
    sim = Simulator()
    started = []

    def proc():
        started.append(sim.now)
        yield 1.0

    sim.spawn(proc(), delay=2.5)
    assert sim.run() == 3.5
    assert started == [2.5]


def test_resume_record_delivers_value():
    sim = Simulator()
    got = []

    def proc():
        got.append((yield 1.0))
        got.append((yield 1.0))

    p = sim.spawn(proc())
    sim.resume(p, "wake", delay=0.25)  # arrives while the hold is pending
    with pytest.raises(ProcessError):
        sim.run()  # resuming mid-hold double-steps the generator


def test_bare_float_hold_advances_clock():
    sim = Simulator()

    def proc():
        yield 1.5
        yield 2.5

    sim.spawn(proc())
    assert sim.run() == 4.0


def test_zero_hold_continues_within_step():
    sim = Simulator()
    seen = []

    def proc():
        yield 0.0
        seen.append(sim.now)
        yield Hold(0.0)
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [0.0, 0.0]


def test_int_hold_slow_path():
    sim = Simulator()

    def proc():
        yield 2  # ints take the _step_other path
        yield 1

    sim.spawn(proc())
    assert sim.run() == 3.0


def test_negative_float_hold_raises():
    sim = Simulator()
    sim.spawn(gen(-0.5))
    with pytest.raises(ProcessError, match="negative time"):
        sim.run()


def test_negative_int_hold_raises():
    sim = Simulator()
    sim.spawn(gen(-2))
    with pytest.raises(ProcessError, match="negative time"):
        sim.run()


@pytest.mark.parametrize("command", ["nonsense", True, None, object()],
                         ids=["str", "bool", "none", "object"])
def test_unknown_command_raises(command):
    sim = Simulator()
    sim.spawn(gen(command))
    with pytest.raises(ProcessError, match="unsupported command"):
        sim.run()


def test_unknown_command_raises_traced():
    sim = Simulator(trace=TraceLog())
    sim.spawn(gen("nonsense"))
    with pytest.raises(ProcessError, match="unsupported command"):
        sim.run()


def test_stop_interrupts_run():
    sim = Simulator()
    sim.schedule(1.0, sim.stop)
    sim.schedule(9.0, lambda: None)
    assert sim.run() == 1.0
    assert sim.run() == 9.0  # the rest of the heap survives a stop


# ----------------------------------------------------------------------
# Interned commands
# ----------------------------------------------------------------------
def test_lock_interns_one_command_per_mode():
    lock = RWLock("n")
    assert lock.acquire_read is lock.acquire_read
    assert lock.acquire_read == Acquire(lock, READ)
    assert lock.acquire_write == Acquire(lock, WRITE)
    assert lock.release_cmd == Release(lock)
    assert lock.acquire_read.kind != lock.release_cmd.kind


def test_interned_and_allocated_commands_equivalent():
    def worker(sim, lock, interned, log):
        if interned:
            wait = yield lock.acquire_write
            yield 1.0
            yield lock.release_cmd
        else:
            wait = yield Acquire(lock, WRITE)
            yield Hold(1.0)
            yield Release(lock)
        log.append((sim.now, wait))

    outcomes = []
    for interned in (True, False):
        sim = Simulator()
        lock = RWLock("n")
        log = []
        sim.spawn(worker(sim, lock, interned, log))
        sim.spawn(worker(sim, lock, interned, log))
        end = sim.run()
        outcomes.append((end, log, lock.grants_write))
    assert outcomes[0] == outcomes[1]
    end, log, grants = outcomes[0]
    assert end == 2.0
    assert grants == 2
    assert log == [(1.0, 0.0), (2.0, 1.0)]


# ----------------------------------------------------------------------
# Traced vs untraced equivalence
# ----------------------------------------------------------------------
def _contended_workload(sim, lock, finish_times, n=8, iters=5):
    def worker(i):
        rng = random.Random(i)
        acquire = lock.acquire_write if i % 3 == 0 else lock.acquire_read
        for _ in range(iters):
            wait = yield acquire
            assert wait >= 0.0
            yield rng.uniform(0.1, 0.5)
            yield lock.release_cmd
            yield rng.uniform(0.0, 0.2)
        finish_times.append(sim.now)

    for i in range(n):
        sim.spawn(worker(i), name=f"w{i}")


def test_traced_run_matches_untraced():
    results = []
    for trace in (None, TraceLog()):
        sim = Simulator(trace=trace)
        lock = RWLock("contended")
        finish_times = []
        _contended_workload(sim, lock, finish_times)
        end = sim.run()
        results.append((end, finish_times, lock.grants_read,
                        lock.grants_write, lock.time_writer_held,
                        lock.time_held_any))
    assert results[0] == results[1]
    # sanity: the traced run actually recorded the lock protocol
    trace_kinds = {e.kind for e in trace}
    assert {"spawn", "request", "grant", "release", "hold",
            "finish"} <= trace_kinds


# ----------------------------------------------------------------------
# O(1) writer_waiting counter
# ----------------------------------------------------------------------
def test_writer_waiting_counter_tracks_queue():
    sim = Simulator()
    lock = RWLock("counted")

    def scan(expected):
        actual = any(req.mode == WRITE for req in lock._queue)
        assert lock.writer_waiting() == actual == expected

    def holder():
        yield lock.acquire_write
        scan(False)
        yield 5.0
        yield lock.release_cmd

    def reader():
        yield 1.0
        yield lock.acquire_read
        yield lock.release_cmd

    def writer():
        yield 2.0
        yield lock.acquire_write
        yield lock.release_cmd

    sim.spawn(holder())
    sim.spawn(reader())
    sim.spawn(writer())
    sim.schedule(3.0, lambda: scan(True))   # writer queued behind holder
    sim.run()
    scan(False)                             # everything drained
    assert lock.grants_write == 2
    assert lock.grants_read == 1


def test_writer_waiting_counter_many_writers():
    sim = Simulator()
    lock = RWLock("counted")

    def writer(duration):
        yield lock.acquire_write
        yield duration
        yield lock.release_cmd

    for _ in range(5):
        sim.spawn(writer(1.0))
    counts = []
    sim.schedule(0.5, lambda: counts.append(
        (lock.writer_waiting(),
         sum(1 for req in lock._queue if req.mode == WRITE))))
    sim.run()
    assert counts == [(True, 4)]
    assert not lock.writer_waiting()


# ----------------------------------------------------------------------
# Hyperexponential bisect vs linear walk
# ----------------------------------------------------------------------
def test_hyperexponential_bisect_matches_linear_walk():
    probs = [0.2, 0.0, 0.5, 0.3]
    means = [1.0, 99.0, 0.5, 2.0]

    def linear_reference(seed, n):
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            u = rng.random()
            acc = 0.0
            for p, m in zip(probs, means):
                acc += p
                if u <= acc:  # first threshold >= u, as the old walk did
                    out.append(rng.expovariate(1.0 / m))
                    break
        return out

    rng = random.Random(42)
    dist = Hyperexponential(probs, means, rng=rng)
    samples = [dist.sample() for _ in range(2000)]
    assert samples == linear_reference(42, 2000)
