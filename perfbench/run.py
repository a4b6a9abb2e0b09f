"""End-to-end benchmark of the reproduction, with a per-layer split.

    python3 perfbench/run.py --workload figures-warm|sim-knee \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Each workload runs in fresh interpreters (``perfbench/worker.py``) so
its set-up time and peak memory are its own.  With ``--trace 0`` the
run measures untraced passes and reports the end-to-end metrics that
``BENCHMARK.json`` declares; with ``--trace 1`` it interleaves untraced
and traced passes (and, on figures-warm, traces the cold pass that
fills the cache) and reports the per-layer metrics.  Untraced times are
adjusted to a reference host speed (``perfbench/hostspeed.py``).  Standard output
ends with a provenance-stamped result row and then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``.  ``--self-test``
traces every workload briefly and checks that each claimed layer
wrapper fires and that spans cover at least 95% of traced wall clock.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figures-warm", "sim-knee")

#: The sim-knee seed when ``--seed`` is not given.  figures-warm takes
#: no seed: its figure drivers fix every seed.
DEFAULT_SEED = 1

#: Set-up samples per sim-knee run (set-up is imports only);
#: figures-warm's set-up is a whole cold pass, so it has one.
SETUP_SAMPLES = 5

#: A run must end within this many seconds.
RUN_BUDGET_S = 170.0

#: Layer spans each workload must fire (the self-test's first check).
CLAIMED_SPANS = {
    # The traced fill (a cold pass) and the warm passes together.
    "figures-warm": ("experiments.figure", "parallel.batch", "cache.get",
                     "cache.put", "simulator.run", "btree.build",
                     "des.run", "model.throughput", "model.analyze",
                     "model.solve", "report.validate", "report.render",
                     "report.sidecar"),
    "sim-knee": ("simulator.run", "btree.build", "des.run"),
}

#: Spans must cover at least this share of traced wall clock.
MIN_COVERAGE = 0.95


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _worker(workload: str, seed: int, seconds: float, traced: str,
            workdir: Path, deadline: float, setup_only: bool = False
            ) -> dict:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--traced-passes", traced,
               "--workdir", str(workdir)]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)  # a fault plan would change the run
    env["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before a worker started")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the run budget")
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{workload} worker exited with "
                         f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _tail(values):
    """The highest percentile with at least ten values beyond it, as
    (value, percentile); with ten values or fewer, the smallest."""
    ordered = sorted(values)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    """Run the workload's workers and return what the measuring one
    printed, with every set-up sample as (measured, adjusted) seconds."""
    deadline = time.monotonic() + RUN_BUDGET_S
    child = _worker(workload, seed, seconds, "alternate" if trace else "none",
                    workdir / workload, deadline)
    child["setups"] = [(child["setup_s"], child["setup_adjusted_s"])]
    if not trace and workload == "sim-knee":
        while len(child["setups"]) < SETUP_SAMPLES:
            setup = _worker(workload, seed, 0, "none",
                            workdir / f"setup-{len(child['setups'])}",
                            deadline, setup_only=True)
            child["setups"].append((setup["setup_s"],
                                    setup["setup_adjusted_s"]))
    return child


def end_to_end(workload: str, child: dict):
    """The end-to-end metrics (times adjusted to the reference host
    speed), and the row's extra fields: the tail's percentile and count
    and the measured medians behind the adjusted times."""
    passes = child["passes"]
    walls = [p["adjusted_s"] for p in passes]
    quality = child["quality"]
    attempted, failed = _counts(child)
    if workload == "sim-knee":
        units = [u for p in passes for u in p["units_adjusted"]]
        if not units:
            raise BenchError("no sim-knee call completed")
        sim_ops_per_s = sum(p["sim_ops"] for p in passes) / sum(units)
    else:
        # A figures-warm point is a whole generate_figures call: the
        # median figure takes milliseconds, too short to time steadily.
        units = walls
        sim_ops_per_s = quality["sim_ops"] / statistics.median(walls)
    tail, tail_pct = _tail(units)
    extra = {
        "point_tail_pct": tail_pct, "point_calls": len(units),
        "measured_setup_s": statistics.median(m for m, _ in child["setups"]),
        "measured_wall_s": statistics.median(p["wall_s"] for p in passes),
    }
    return {
        "setup_s": statistics.median(a for _, a in child["setups"]),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": child["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
        "point_p50_s": statistics.median(units),
        "point_tail_s": tail,
        "sim_ops_per_s": sim_ops_per_s,
        "model_err_median_pct": quality["model_err_median_pct"],
        "validation_ok_frac": quality["validation_ok_frac"],
    }, extra


def per_layer(child: dict) -> dict:
    """Per-layer metrics: means over the traced passes, the knee's
    reference-run values and, on figures-warm, the traced fill's
    ``fill.*`` split."""
    passes, layers = child["passes"], child["layers"]
    metrics = {name: statistics.fmean(layer[name] for layer in layers)
               for name in layers[0]}
    traced = [p["wall_s"] for p in passes if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    metrics["trace.overhead_frac"] = \
        statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics.update(child["knee"])
    metrics.update(child["fill"])
    return metrics


def _counts(child):
    passes = child["passes"]
    attempted = sum(p["attempted"] for p in passes) + child["checks"][0]
    failed = sum(p["failed"] for p in passes) + child["checks"][1]
    return attempted, failed


def _coverages(child) -> list:
    coverages = [layer["trace.coverage_frac"] for layer in child["layers"]]
    if child["fill"]:
        coverages.append(child["fill"]["fill.trace.coverage_frac"])
    return coverages


def self_test_problems(workload: str, child: dict) -> list:
    """Claimed spans that never fired, passes whose spans cover too
    little of the wall clock, and bindings the tracer missed."""
    problems = [f"unwrapped binding: {ref}"
                for ref in child["stray_references"]]
    problems += [f"span {span} never fired"
                 for span in CLAIMED_SPANS[workload]
                 if not child["span_calls"].get(span)]
    problems += [f"spans cover {coverage:.1%} of a traced pass "
                 f"(< {MIN_COVERAGE:.0%})"
                 for coverage in _coverages(child) if coverage < MIN_COVERAGE]
    return problems


def _declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def _select(declared, values: dict) -> dict:
    """The declared metrics with their units; every one must have been
    measured as a finite number."""
    missing = [m["name"] for m in declared
               if not math.isfinite(values.get(m["name"], math.nan))]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _source_sha256() -> str:
    """Digest of every file under ``src/``: identifies the code under
    test where there is no git revision."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, seconds: float,
               trace: bool) -> dict:
    """The provenance fields of a result row (the kernel benchmark's
    ``BENCH_kernel.json`` v2 names, plus machine and workload)."""
    return {
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "git_rev": _git_rev(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "scale": 1.0 if workload == "sim-knee" else 0.05,
        "seconds": seconds,
        "trace": int(trace),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    end_to_end_spec, per_layer_spec = _declared()
    workdir = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    try:
        child = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = _counts(child)
    row = provenance(workload, seed, seconds, trace)
    if trace:
        metrics = per_layer(child)
        for name in (m["name"] for m in per_layer_spec):
            # Knee-only values are zero on figures-warm, fill values on
            # sim-knee.
            metrics.setdefault(name, 0.0)
        metrics = _select(per_layer_spec, metrics)
        for problem in self_test_problems(workload, child):
            print(f"perfbench: self-test: {problem}", file=sys.stderr)
    else:
        values, extra = end_to_end(workload, child)
        metrics = _select(end_to_end_spec, values)
        row.update(extra)
    row["metrics"] = metrics
    print(json.dumps(row))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def self_test(seconds: float) -> int:
    """Trace every workload once; report the checks per workload."""
    failures = 0
    for workload in WORKLOADS:
        workdir = ROOT / ".perfbench-work" / f"self-test-{os.getpid()}"
        try:
            child = measure(workload, DEFAULT_SEED, seconds, True, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        problems = self_test_problems(workload, child)
        coverage = min(_coverages(child))
        print(f"{workload}: span coverage {coverage:.1%}, "
              f"{'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failures += bool(problems)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro package next to perfbench/; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        if args.self_test:
            return self_test(min(args.seconds, 1.0))
        if args.workload is None:
            parser.error("--workload is required")
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
