"""Kernel performance regression benchmark → ``BENCH_kernel.json``.

Two layers of measurement:

1. **Lock-contention microbench** — a pure acquire/hold/release workload
   (no B-tree, no RNG) run through both the current ``repro.des`` kernel
   and the pre-optimization baseline preserved in
   :mod:`benchmarks._legacy_kernel`.  Both kernels execute the *same*
   logical event sequence (asserted), so events/sec is an
   apples-to-apples measure of pure kernel overhead and the recorded
   ``speedup`` is the regression gate for the hot-path work.

2. **End-to-end ops/sec per algorithm** — wall-clock operations per
   second of :func:`repro.simulator.run_simulation` at a fixed small
   scale for the three core algorithms.  These track whole-stack
   throughput (tree + locks + metrics on top of the kernel).

Results land in a versioned ``BENCH_kernel.json`` at the repo root
(schema documented in ``docs/performance.md``); every bench entry
carries its own ``generated_at`` and ``git_rev``, so a partially
regenerated file can no longer masquerade as a single snapshot.  CI
runs this at ``--scale 0.05`` as a smoke test and uploads the
artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--scale 1.0]
        [--repeat 3] [--out BENCH_kernel.json] [--min-speedup 0]
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks import _legacy_kernel as legacy  # noqa: E402
from repro.des.engine import Simulator  # noqa: E402
from repro.des.rwlock import RWLock  # noqa: E402
from repro.simulator import SimulationConfig, run_simulation  # noqa: E402

#: Bump when the JSON layout changes.  v2: per-bench ``generated_at``
#: + ``git_rev`` provenance.
SCHEMA_VERSION = 2

#: Microbench shape: N_PROCS processes contend for one lock; every
#: fourth is a writer.  Hold/think times are deterministic (pure
#: function of indices) so both kernels replay the identical schedule.
N_PROCS = 32
BASE_ITERS = 4_000

ALGO_BENCHES = ("naive-lock-coupling", "optimistic-descent", "link-type")


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _stamp(bench: dict) -> dict:
    """Per-bench provenance: when this entry was measured and at what
    revision.  ``HEAD`` is resolved here, at emit time — a module-level
    constant once froze the rev of whatever checkout first imported the
    bench, so regenerated entries kept reporting the seed commit."""
    bench["generated_at"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds")
    bench["git_rev"] = _git_rev()
    return bench


def _hold(i: int, j: int) -> float:
    return 0.001 * ((i * 13 + j * 7) % 10 + 1)


def _think(i: int, j: int) -> float:
    return 0.0005 * ((i + 3 * j) % 7 + 1)


def _worker_new(lock: RWLock, i: int, iters: int):
    acquire = lock.acquire_write if i % 4 == 0 else lock.acquire_read
    release = lock.release_cmd
    for j in range(iters):
        yield acquire
        yield _hold(i, j)
        yield release
        yield _think(i, j)


def _worker_legacy(lock: "legacy.LegacyRWLock", i: int, iters: int):
    mode = legacy.WRITE if i % 4 == 0 else legacy.READ
    for j in range(iters):
        yield legacy.Acquire(lock, mode)
        yield legacy.Hold(_hold(i, j))
        yield legacy.Release(lock)
        yield legacy.Hold(_think(i, j))


def _run_new(iters: int):
    sim = Simulator()
    lock = RWLock("bench")
    for i in range(N_PROCS):
        sim.spawn(_worker_new(lock, i, iters))
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return sim._sequence, wall, sim.now, lock.grants_write


def _run_legacy(iters: int):
    sim = legacy.LegacySimulator()
    lock = legacy.LegacyRWLock()
    for i in range(N_PROCS):
        sim.spawn(_worker_legacy(lock, i, iters))
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return sim.events_executed, wall, sim.now, lock.grants_write


def bench_lock_contention(scale: float, repeat: int) -> dict:
    """Events/sec on the pure lock workload, current vs legacy kernel."""
    iters = max(10, int(BASE_ITERS * scale))
    best_new = best_legacy = float("inf")
    events = events_legacy = 0
    for _ in range(repeat):
        n_events, wall, end_new, writes_new = _run_new(iters)
        l_events, l_wall, end_legacy, writes_legacy = _run_legacy(iters)
        # Same schedule on both kernels, or the comparison is meaningless.
        assert n_events == l_events, (n_events, l_events)
        assert end_new == end_legacy, (end_new, end_legacy)
        assert writes_new == writes_legacy, (writes_new, writes_legacy)
        events, events_legacy = n_events, l_events
        best_new = min(best_new, wall)
        best_legacy = min(best_legacy, l_wall)
    eps = events / best_new
    eps_baseline = events_legacy / best_legacy
    return {
        "name": "lock_contention_microbench",
        "kind": "kernel_events",
        "scale": scale,
        "processes": N_PROCS,
        "iterations_per_process": iters,
        "events": events,
        "wall_s": round(best_new, 6),
        "baseline_wall_s": round(best_legacy, 6),
        "events_per_sec": round(eps, 1),
        "baseline_events_per_sec": round(eps_baseline, 1),
        "speedup": round(eps / eps_baseline, 3),
    }


def bench_algorithm(algorithm: str, scale: float) -> dict:
    """Wall-clock ops/sec of one full-stack simulator run."""
    n_operations = max(50, int(4_000 * scale))
    config = SimulationConfig(
        algorithm=algorithm,
        arrival_rate=0.05,
        n_items=max(500, int(20_000 * scale)),
        n_operations=n_operations,
        warmup_operations=max(10, int(400 * scale)),
        seed=12345,
    )
    start = time.perf_counter()
    result = run_simulation(config)
    wall = time.perf_counter() - start
    return {
        "name": f"ops_{algorithm}",
        "kind": "simulator_ops",
        "algorithm": algorithm,
        "scale": scale,
        "n_operations": n_operations,
        "n_items": config.n_items,
        "measured_operations": result.measured_operations,
        "overflowed": result.overflowed,
        "wall_s": round(wall, 6),
        "ops_per_sec": round(n_operations / wall, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload multiplier (CI smoke uses 0.05)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="microbench repetitions (best-of wall time)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_kernel.json")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="exit non-zero if the microbench speedup is "
                             "below this (0 disables the gate)")
    args = parser.parse_args(argv)

    benches = [_stamp(bench_lock_contention(args.scale, args.repeat))]
    print(f"[kernel]  {benches[0]['events_per_sec']:>12,.0f} ev/s  "
          f"(baseline {benches[0]['baseline_events_per_sec']:,.0f} ev/s, "
          f"speedup {benches[0]['speedup']:.2f}x)")
    for algorithm in ALGO_BENCHES:
        bench = _stamp(bench_algorithm(algorithm, args.scale))
        benches.append(bench)
        print(f"[{algorithm:>22}]  {bench['ops_per_sec']:>9,.0f} ops/s  "
              f"({bench['wall_s']:.2f}s wall)")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "benches": benches,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    speedup = benches[0]["speedup"]
    if args.min_speedup and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
