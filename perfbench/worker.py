"""One benchmark workload, set up and measured in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --traced-passes none|alternate --workdir DIR [--setup-only]

Sets the workload up (imports included; on figures-warm, one cold pass
that fills the result cache), runs whole passes until the next one would
end past ``--seconds`` (at least one), checks every output, and prints
one JSON object as the last line of standard output.
``perfbench/run.py`` starts this script and turns what it prints into
metrics; see ``perfbench/README.md``.
"""

import time

# Set-up is timed from here, so it covers importing the package.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import HostSpeed  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402

#: ``--scale`` of the figures-warm workload.
FIGURE_SCALE = 0.05

#: sim-knee: (algorithm short name, arrival rate) near the simulator's
#: knee; see README.md for why each rate.
KNEE_RATES = (("naive", 0.4), ("optimistic", 2.0), ("link", 30.0))

#: Layer metrics of figures-warm's cache-filling cold pass, reported
#: with a ``fill.`` prefix: the split a cold-path change moves.
FILL_METRICS = ("btree.build_calls", "btree.build_s", "btree.trees_distinct",
                "btree.builds_per_tree", "des.run_calls", "des.run_s",
                "des.us_per_sim_op", "simulator.runs", "simulator.sim_ops",
                "simulator.self_s", "model.analyze_s", "model.solve_s",
                "model.throughput_s", "parallel.batch_self_s",
                "cache.puts", "cache.put_s", "cache.bytes",
                "report.render_s", "experiments.self_s", "other.self_s",
                "trace.coverage_frac")

#: sim-knee's quality metrics come from one run per algorithm at this
#: fixed seed: across workload seeds, errors near the knee vary by half
#: their median, too much for a bounded metric.
REFERENCE_SEED = 0

def _unit_failed(what: str) -> None:
    """Report a failed unit with its traceback; the run goes on."""
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc()


class Figures:
    """figures-warm: every registered figure through ``generate_figures``
    at ``FIGURE_SCALE``, SVG + NDJSON output, rerun on a result cache
    that one cold pass of the same call filled during set-up."""

    def __init__(self, workdir: Path, tracer) -> None:
        from repro.parallel import ResultCache, execution
        from repro.report.pipeline import generate_figures
        from repro.report.registry import FIGURES
        from repro.report.sidecar import read_sidecar
        from repro.report.validation import validate_report_dict

        self._execution = execution
        self._generate_figures = generate_figures
        self._read_sidecar = read_sidecar
        self._validate_report_dict = validate_report_dict
        self.figure_ids = list(FIGURES)
        self.workdir = workdir
        cache_dir = workdir / "cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir.mkdir(parents=True)
        self.cache = ResultCache(cache_dir)
        self.report = None
        #: figure id -> sidecar bytes of the fill; warm passes must match.
        self.reference = None
        # The fill is the cold pass, traced when ``tracer`` is given.
        if tracer is not None:
            tracer.install()
        started = time.perf_counter()
        try:
            self._fill = self._generate(workdir / "fill")
        finally:
            self.fill_wall_s = time.perf_counter() - started
            if tracer is not None:
                tracer.uninstall()

    def _generate(self, out_dir: Path):
        with self._execution(jobs=1, cache=self.cache, progress=None,
                             resilience=None, batch=None):
            return self._generate_figures(scale=FIGURE_SCALE,
                                          out_dir=out_dir, formats=["svg"])

    def run_pass(self, index: int) -> dict:
        out_dir = self.workdir / f"pass-{index}"
        attempted = len(self.figure_ids)
        started = time.perf_counter()
        try:
            result = self._generate(out_dir)
        except Exception:
            _unit_failed(f"figures pass {index}")
            ended = time.perf_counter()
            return {"wall_s": ended - started, "interval": [started, ended],
                    "attempted": attempted, "failed": attempted}
        ended = time.perf_counter()
        failed = self._check(result)
        self.report = result.report
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"wall_s": ended - started, "interval": [started, ended],
                "attempted": attempted, "failed": len(failed)}

    def _check(self, result) -> set:
        """Ids of figures whose outputs fail a check.  A report that
        fails the shipped schema validator fails every figure."""
        failed = set(self.figure_ids) - {o.figure_id for o in result.figures}
        try:
            self._validate_report_dict(
                json.loads(result.report_json.read_text(encoding="utf-8")))
        except (OSError, ValueError):  # ConfigurationError is a ValueError
            _unit_failed("report.json validation")
            return set(self.figure_ids)
        for output in result.figures:
            try:
                sidecar = output.paths["ndjson"]
                ok = (_same_table(self._read_sidecar(sidecar), output.table)
                      and output.paths["svg"].stat().st_size > 0)
                if self.reference is not None:
                    ok = ok and (sidecar.read_bytes()
                                 == self.reference.get(output.figure_id))
            except (OSError, ValueError, KeyError):
                _unit_failed(f"{output.figure_id} output check")
                ok = False
            if not ok:
                print(f"perfbench: {output.figure_id} outputs are wrong",
                      file=sys.stderr)
                failed.add(output.figure_id)
        return failed

    def check_fill(self) -> tuple:
        """Check the fill's outputs, keep its sidecars as the warm
        passes' reference and return (figures checked, figures failed).
        Called after set-up is timed."""
        failed = self._check(self._fill)
        self.reference = {output.figure_id:
                          output.paths["ndjson"].read_bytes()
                          for output in self._fill.figures}
        shutil.rmtree(self.workdir / "fill")
        self._fill = None
        return len(self.figure_ids), len(failed)

    def finish(self) -> tuple:
        return 0, 0

    def quality(self) -> dict:
        """Model-vs-sim error and validation checks of the last report,
        and the simulated operations behind the pass's results."""
        report = self.report
        if report is None:
            return {"model_err_median_pct": math.nan,
                    "validation_ok_frac": 0.0, "sim_ops": 0}
        comparisons = [c for figure in report.figures
                       for c in figure.comparisons]
        errors = [c.median_error for c in comparisons
                  if c.metric == "relative"
                  and not math.isnan(c.median_error)]
        checks = [c.passed(report.threshold_scale) for c in comparisons]
        checks += [claim.holds for claim in report.claims]
        # Every entry in the cache is a result the fill computed and
        # each warm pass read.
        sim_ops = 0
        for entry in sorted(self.cache.directory.glob("*/*.pkl")):
            result = self.cache.get(entry.stem)
            if result is not None:
                sim_ops += result.measured_operations
        return {"model_err_median_pct": 100.0 * statistics.median(errors),
                "validation_ok_frac": sum(checks) / len(checks),
                "sim_ops": sim_ops}

    def knee_values(self) -> dict:
        return {}


class Knee:
    """sim-knee: paper-scale ``run_simulation`` for the paper's three
    algorithms near their knees; each call gets its own seed."""

    def __init__(self, seed: int) -> None:
        import repro.simulator
        from repro.algorithms import all_algorithms
        from repro.model import paper_default_config
        from repro.report.registry import FIGURES

        by_short = {spec.short: spec for spec in all_algorithms()}
        self.points = [(by_short[short], rate) for short, rate in KNEE_RATES]
        # run_simulation is looked up per call, so a traced pass calls
        # the tracer's wrapper.
        self._simulator = repro.simulator
        self._model_config = paper_default_config
        # The paper-figure response comparisons (fig03-fig08) give each
        # algorithm's insert/search threshold.
        self.comparisons = [
            c for figure in FIGURES.values() if figure.kind == "paper"
            for c in figure.comparisons
            if c.model_column in ("model_insert_response",
                                  "model_search_response")]
        self._seed = seed
        self._rng = random.Random(seed)
        self._used = set()
        #: (spec, rate, result) of each algorithm's reference run.
        self.reference = []

    def _fresh_seed(self) -> int:
        while True:
            seed = self._rng.randrange(1, 2 ** 31)
            if seed not in self._used:
                self._used.add(seed)
                return seed

    def run_pass(self, index: int) -> dict:
        units, intervals, failed, sim_ops = [], [], 0, 0
        started = time.perf_counter()
        for spec, rate in self.points:
            config = self._simulator.SimulationConfig(
                algorithm=spec.name, arrival_rate=rate,
                seed=self._fresh_seed())
            call_started = time.perf_counter()
            try:
                result = self._simulator.run_simulation(config)
            except Exception:
                _unit_failed(f"{spec.name} seed {config.seed}")
                failed += 1
                continue
            call_ended = time.perf_counter()
            units.append(call_ended - call_started)
            intervals.append([call_started, call_ended])
            sim_ops += result.measured_operations + config.warmup_operations
            if not self._result_ok(config, result):
                failed += 1
        ended = time.perf_counter()
        return {"wall_s": ended - started, "interval": [started, ended],
                "units": units, "unit_intervals": intervals,
                "attempted": len(self.points), "failed": failed,
                "sim_ops": sim_ops}

    @staticmethod
    def _result_ok(config, result) -> bool:
        ok = (all(math.isfinite(value)
                  for value in result.mean_response.values())
              and result.measured_operations == config.n_operations)
        if not ok:
            print(f"perfbench: {config.algorithm} seed {config.seed}: "
                  f"non-finite means or {result.measured_operations} of "
                  f"{config.n_operations} measured operations",
                  file=sys.stderr)
        return ok

    def finish(self) -> tuple:
        """Run each algorithm once at ``REFERENCE_SEED`` (outside the
        measured window): the references the quality metrics compare
        with the model.  One of them, chosen by the workload seed, runs
        a second time and must agree digest for digest.  Returns (runs
        checked, runs failed)."""
        failed = 0
        for index, (spec, rate) in enumerate(self.points):
            config = self._simulator.SimulationConfig(
                algorithm=spec.name, arrival_rate=rate, seed=REFERENCE_SEED)
            try:
                first = self._simulator.run_simulation(config)
                if index == self._seed % len(self.points):
                    if _digest(self._simulator.run_simulation(config)) \
                            != _digest(first):
                        print(f"perfbench: {spec.name} seed {config.seed} "
                              f"differs on repetition", file=sys.stderr)
                        failed += 1
                        continue
            except Exception:
                _unit_failed(f"{spec.name} reference run")
                failed += 1
                continue
            if self._result_ok(config, first):
                self.reference.append((spec, rate, first))
            else:
                failed += 1
        return len(self.points), failed

    def quality(self) -> dict:
        """The fig03-fig08 comparisons evaluated at the knee: each
        reference run against the model at the same rate."""
        config = self._model_config()
        errors, checks = [], []
        for spec, rate, result in self.reference:
            prediction = spec.analyze(config, rate)
            for comparison in self.comparisons:
                if comparison.algorithm != spec.name:
                    continue
                operation = comparison.model_column.split("_")[1]
                model = prediction.response(operation)
                error = abs(result.mean_response[operation] - model) \
                    / abs(model)
                errors.append(error)
                checks.append(error <= comparison.threshold)
        if not errors:
            return {"model_err_median_pct": math.nan,
                    "validation_ok_frac": 0.0}
        return {"model_err_median_pct": 100.0 * statistics.median(errors),
                "validation_ok_frac": sum(checks) / len(checks)}

    def knee_values(self) -> dict:
        """Per algorithm, the reference run's root rho_w and redo
        descents per operation beside the model's root rho_w at the same
        rate: the inputs behind the model-vs-sim error."""
        config = self._model_config()
        values = {}
        for spec, rate, result in self.reference:
            values[f"simulator.root_rho_w.{spec.short}"] = \
                result.root_writer_utilization
            values[f"simulator.redo_per_op.{spec.short}"] = \
                result.redo_descents / result.measured_operations
            values[f"model.root_rho_w.{spec.short}"] = \
                spec.analyze(config, rate).root_writer_utilization
        return values


def _same_table(loaded, table) -> bool:
    """A sidecar read back holds the figure's columns, rows and notes
    (values compared by ``repr``, so NaN matches NaN)."""
    return (loaded.columns == table.columns
            and list(loaded.notes) == list(table.notes)
            and [repr(tuple(row)) for row in loaded.rows]
            == [repr(tuple(row)) for row in table.rows])


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode("utf-8")).hexdigest()


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (times are self times)."""
    spans = tracer.spans

    def calls(name):
        return spans[name][0]

    def self_s(name):
        return spans[name][2]

    runs = len(tracer.runs)
    sim_ops = sum(ops for _, ops, _ in tracer.runs)
    builds = calls("btree.build")
    gets = calls("cache.get")
    covered = sum(spans[name][2] for name in SPANS)
    return {
        "btree.build_calls": builds,
        "btree.build_s": self_s("btree.build"),
        "btree.trees_distinct": len(tracer.tree_keys),
        "btree.builds_per_tree":
            builds / len(tracer.tree_keys) if tracer.tree_keys else 0.0,
        "des.run_calls": calls("des.run"),
        "des.run_s": self_s("des.run"),
        "des.us_per_sim_op":
            1e6 * self_s("des.run") / sim_ops if sim_ops else 0.0,
        "simulator.runs": runs,
        "simulator.sim_ops": sim_ops,
        "simulator.overflow_frac":
            sum(o for _, _, o in tracer.runs) / runs if runs else 0.0,
        "simulator.self_s": self_s("simulator.run"),
        "model.analyze_calls": calls("model.analyze"),
        "model.analyze_s": self_s("model.analyze"),
        "model.solve_calls": calls("model.solve"),
        "model.solve_s": self_s("model.solve"),
        "model.throughput_calls": calls("model.throughput"),
        "model.throughput_s": self_s("model.throughput"),
        "parallel.tasks": tracer.batch_tasks,
        "parallel.batch_self_s": self_s("parallel.batch"),
        "cache.gets": gets,
        "cache.hit_ratio": tracer.cache_hits / gets if gets else 0.0,
        "cache.get_s": self_s("cache.get"),
        "cache.puts": calls("cache.put"),
        "cache.put_s": self_s("cache.put"),
        "cache.bytes": tracer.cache_bytes,
        "report.validate_s": self_s("report.validate"),
        "report.render_s": self_s("report.render"),
        "report.sidecar_s": self_s("report.sidecar"),
        "experiments.self_s": self_s("experiments.figure"),
        "other.self_s": wall_s - covered,
        "trace.coverage_frac": covered / wall_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures-warm", "sim-knee"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced-passes", default="none",
                        choices=("none", "alternate"))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    mode = args.traced_passes
    # Untraced runs sample the host's speed from here on; traced runs
    # report measured times only.
    host = HostSpeed() if mode == "none" else None
    if host is not None:
        host.start()
    fill_tracer = None
    if args.workload == "sim-knee":
        workload = Knee(args.seed)
    else:
        if mode != "none" and not args.setup_only:
            fill_tracer = Tracer()
        workload = Figures(args.workdir, fill_tracer)
    setup_end = time.perf_counter()
    setup_s = setup_end - _STARTED
    setup_adjusted_s = None
    if host is not None:
        setup_adjusted_s = host.adjusted(_STARTED, setup_end)
    if args.setup_only:
        if host is not None:
            host.stop()
        print(json.dumps({"setup_s": setup_s,
                          "setup_adjusted_s": setup_adjusted_s}))
        return 0

    passes, layers, stray, span_calls = [], [], [], {}
    checked, failed = 0, 0
    fill = {}
    if args.workload == "figures-warm":
        checked, failed = workload.check_fill()
    if fill_tracer is not None:
        layer = layer_metrics(fill_tracer, workload.fill_wall_s)
        fill = {f"fill.{name}": layer[name] for name in FILL_METRICS}
        fill["fill.wall_s"] = workload.fill_wall_s
        span_calls = {name: fill_tracer.spans[name][0] for name in SPANS}
    started = time.perf_counter()
    while True:
        traced = mode == "alternate" and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
            if not layers:
                stray = tracer.stray_references()
        try:
            record = workload.run_pass(len(passes))
        finally:
            if tracer is not None:
                tracer.uninstall()
        record["traced"] = bool(traced)
        passes.append(record)
        if tracer is not None:
            layers.append(layer_metrics(tracer, record["wall_s"]))
            for name in SPANS:
                span_calls[name] = span_calls.get(name, 0) \
                    + tracer.spans[name][0]
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds and (
                mode != "alternate" or len(passes) % 2 == 0):
            break

    if host is not None:
        host.stop()
        for record in passes:
            record["adjusted_s"] = host.adjusted(*record["interval"])
            if "unit_intervals" in record:
                record["units_adjusted"] = [
                    host.adjusted(*span) for span in record["unit_intervals"]]
    finished = workload.finish()
    output = {
        "setup_s": setup_s,
        "setup_adjusted_s": setup_adjusted_s,
        "passes": passes,
        "checks": [checked + finished[0], failed + finished[1]],
        "quality": workload.quality(),
        "knee": workload.knee_values(),
        "layers": layers,
        "fill": fill,
        "span_calls": span_calls,
        "stray_references": stray,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
