"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces each layer's public entry point with a
wrapper that times the call and charges it to a span name.  A span's
*self* time is its duration minus the spans it encloses, so the self
times of all spans in a pass add up to the part of the pass that some
layer covers; the rest is ``other.self_s``.

A wrapper must sit at the name its callers resolve, not only where the
function is defined: ``build_tree``, ``solve_rw_queue``, the analyzers
and the throughput solvers are bound by ``from ... import`` into many
modules.  :meth:`Tracer.install` therefore rebinds every attribute of
every loaded ``repro`` module that holds the original, patches methods
on their classes, and swaps the analyzer each ``AlgorithmSpec`` caches
after its lazy import.  :meth:`Tracer.uninstall` restores all of them,
so one process can interleave untraced and traced passes.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (span, module, attribute) for plain functions.
_FUNCTIONS = (
    ("btree.build", "repro.btree.builder", "build_tree"),
    ("simulator.run", "repro.simulator.driver", "run_simulation"),
    ("simulator.run", "repro.simulator.closed", "run_closed_simulation"),
    ("model.solve", "repro.model.rwqueue", "solve_rw_queue"),
    ("model.throughput", "repro.model.throughput", "max_throughput"),
    ("model.throughput", "repro.model.throughput",
     "arrival_rate_for_root_utilization"),
    ("model.analyze", "repro.model.recovery",
     "analyze_optimistic_with_recovery"),
    ("parallel.batch", "repro.parallel.executor", "run_batch"),
    ("report.validate", "repro.report.validation", "build_report"),
    ("report.render", "repro.report.svg", "render_svg"),
    ("report.sidecar", "repro.report.sidecar", "write_sidecar"),
)

#: (span, module, class, method) for methods, patched on the class.
_METHODS = (
    ("des.run", "repro.des.engine", "Simulator", "run"),
    ("cache.get", "repro.parallel.cache", "ResultCache", "get"),
    ("cache.put", "repro.parallel.cache", "ResultCache", "put"),
    ("experiments.figure", "repro.report.registry", "FigureSpec", "run"),
)

#: Every span name, in report order.
SPANS = ("experiments.figure", "parallel.batch", "cache.get", "cache.put",
         "simulator.run", "btree.build", "des.run", "model.throughput",
         "model.analyze", "model.solve", "report.validate",
         "report.render", "report.sidecar")


class Tracer:
    """Accumulates span counts and times while installed."""

    def __init__(self) -> None:
        #: span -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0] for name in SPANS}
        #: Child-time accumulator per open span; [0] is "no span open".
        self._stack: List[float] = [0.0]
        self.tree_keys: set = set()
        self.batch_tasks = 0
        self.cache_hits = 0
        self.cache_bytes = 0
        #: (algorithm, warm-up + measured ops, overflowed) per run.
        self.runs: List[Tuple[str, int, bool]] = []
        #: id(original) -> (original, wrapper) while installed.
        self._swaps: Dict[int, Tuple[object, object]] = {}
        #: (class or spec, attribute, original) patched outside modules.
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------
    def _wrap(self, span: str, fn: Callable,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        stats = self.spans[span]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                enclosed = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - enclosed
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _note_build(self, signature: inspect.Signature):
        def before(args, kwargs) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            given = bound.arguments
            rng = given["rng"]
            # The tree is a function of its construction stream: the rng
            # state when one is passed, else the integer seed.
            stream = hash(rng.getstate()) if rng is not None \
                else given["seed"]
            self.tree_keys.add((stream, given["n_items"], given["order"],
                                given["insert_fraction"],
                                repr(given["merge_policy"]),
                                given["key_space"]))
        return before

    def _note_run(self, args, kwargs, result) -> None:
        config = args[0] if args else kwargs["config"]
        result = getattr(result, "result", result)  # TruncatedResult
        self.runs.append((config.algorithm,
                          result.measured_operations
                          + config.warmup_operations,
                          bool(result.overflowed)))

    def _note_batch(self, args, kwargs) -> None:
        self.batch_tasks += len(args[0] if args else kwargs["tasks"])

    def _note_get(self, args, kwargs, result) -> None:
        if result is not None:
            self.cache_hits += 1

    def _note_put(self, args, kwargs, result) -> None:
        cache, key = args[0], args[1]
        self.cache_bytes += cache.path_for(key).stat().st_size

    # -- install / uninstall ---------------------------------------------
    def install(self) -> None:
        """Put a wrapper at every name the wrapped callables resolve by."""
        if self._swaps:
            raise RuntimeError("tracer already installed")
        for span, module_name, attr in _FUNCTIONS:
            fn = getattr(importlib.import_module(module_name), attr)
            before = after = None
            if span == "btree.build":
                before = self._note_build(inspect.signature(fn))
            elif span == "simulator.run":
                after = self._note_run
            elif span == "parallel.batch":
                before = self._note_batch
            self._swaps[id(fn)] = (fn, self._wrap(span, fn, before, after))
        from repro.algorithms import all_algorithms
        specs = [spec for spec in all_algorithms() if spec.has_model]
        for spec in specs:
            fn = spec.analyze  # resolves and caches the lazy reference
            if id(fn) not in self._swaps:
                self._swaps[id(fn)] = (fn, self._wrap("model.analyze", fn))
            self._patch(spec, "_analyze", fn, self._swaps[id(fn)][1])
        for span, module_name, cls_name, attr in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            fn = cls.__dict__[attr]
            after = {"cache.get": self._note_get,
                     "cache.put": self._note_put}.get(span)
            self._patch(cls, attr, fn, self._wrap(span, fn, after=after))
        _rebind_modules(dict(self._swaps))

    def _patch(self, owner, attr, original, wrapper) -> None:
        _set(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original binding, including those that modules
        imported while the tracer was installed copied from a wrapper."""
        for owner, attr, original in reversed(self._patches):
            _set(owner, attr, original)
        self._patches.clear()
        _rebind_modules({id(wrapper): (wrapper, original)
                         for original, wrapper in self._swaps.values()})
        self._swaps.clear()

    def stray_references(self) -> List[str]:
        """Referrers, other than the tracer's own records and the
        wrappers' closures, that still hold an unwrapped original while
        installed: a binding the scan missed, such as a default argument
        or a module-level table."""
        own = {id(record) for record in self._patches}
        own.update(id(pair) for pair in self._swaps.values())
        stray = []
        for fn, _ in self._swaps.values():
            for referrer in gc.get_referrers(fn):
                if (id(referrer) in own or inspect.isframe(referrer)
                        or type(referrer).__name__ == "cell"
                        or (isinstance(referrer, dict)
                            and referrer.get("__wrapped__") is fn)):
                    continue
                stray.append(f"{fn.__module__}.{fn.__qualname__} held by "
                             f"a {type(referrer).__name__}")
        return stray


def _rebind_modules(swaps: Dict[int, Tuple[object, object]]) -> None:
    """In every loaded ``repro`` module, replace each attribute bound to
    the first object of a ``swaps`` pair with the second."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            pair = swaps.get(id(value))
            if pair is not None and pair[0] is value:
                namespace[attr] = pair[1]


def _set(owner, attr: str, value) -> None:
    """``setattr`` that also reaches frozen dataclass instances."""
    if isinstance(owner, type):
        setattr(owner, attr, value)
    else:
        object.__setattr__(owner, attr, value)
