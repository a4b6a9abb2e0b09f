"""Closed-system simulation: a fixed multiprogramming level.

The paper's introduction frames the problem in closed-system terms — a
transaction-processing system with "a multiprocessing level around 100"
— while its analysis uses an open arrival stream (Section 3.1 makes the
distinction explicit, contrasting with the closed analyses of Bayer &
Schkolnick and Ellis).  This module adds the closed mode: a fixed number
of *terminal* processes, each issuing one B-tree operation at a time and
(optionally) thinking between operations.

Running the same algorithms in both modes is the textbook consistency
check: a closed system with multiprogramming level N drives the B-tree
at its throughput limit as N grows, and that limit must match Theorem
2's open-system maximum throughput.
"""

from __future__ import annotations

import random

from repro.algorithms import get_algorithm
from repro.errors import ConfigurationError
from repro.simulator.config import SimulationConfig
from repro.simulator.driver import _finish, _root_sampler, _RunState, _set_up
from repro.simulator.operations import OP_DELETE, pick_resident_key
from repro.workload.runtime import WorkloadRuntime
from repro.workload.spec import PoissonArrivals


def run_closed_simulation(config: SimulationConfig,
                          multiprogramming_level: int,
                          think_time: float = 0.0, budget=None):
    """Run ``config``'s algorithm under a fixed population of
    ``multiprogramming_level`` concurrent operations.

    ``config.arrival_rate`` is ignored (the population is the load
    control), and a non-Poisson ``config.workload.arrival`` raises
    :class:`~repro.errors.ConfigurationError`; ``think_time`` is the
    mean exponential pause a terminal takes between operations (0 =
    back-to-back).  The returned
    :class:`~repro.simulator.metrics.SimulationResult` reports the
    achieved throughput — the closed system's primary output.

    ``budget`` (a :class:`~repro.resilience.TaskBudget`) bounds the run
    as in :func:`~repro.simulator.driver.run_simulation`: a tripped
    budget returns a :class:`~repro.resilience.TruncatedResult` with
    the partial metrics flagged ``overflowed``.
    """
    if multiprogramming_level < 1:
        raise ConfigurationError(
            f"multiprogramming level must be >= 1, got "
            f"{multiprogramming_level}")
    if think_time < 0:
        raise ConfigurationError(f"think_time must be >= 0, got {think_time}")

    if config.workload.transaction.size != 1:
        # Transaction envelopes are an open-system construct.
        raise ConfigurationError(
            "transaction envelopes are not modelled in the closed "
            "system (each terminal already serialises its operations); "
            "use the open simulator for TransactionSpec(size > 1)")

    if not isinstance(config.workload.arrival, PoissonArrivals):
        # The fixed population is the load control: an arrival process
        # would be ignored, yet the result cache would key on it.
        raise ConfigurationError(
            "the closed system has no arrival stream; "
            f"{config.workload.arrival.kind!r} arrivals would be ignored. "
            "Use the default PoissonArrivals() or the open simulator")

    module = get_algorithm(config.algorithm).closed_module
    seed_root = random.Random(config.seed)
    build_seed = seed_root.randrange(2 ** 63)
    rng_keys = random.Random(seed_root.randrange(2 ** 63))
    rng_service = random.Random(seed_root.randrange(2 ** 63))
    rng_think = random.Random(seed_root.randrange(2 ** 63))

    metrics, tree, sim, ctx = _set_up(config, build_seed, rng_keys,
                                      rng_service)
    state = _RunState()
    warmup = config.warmup_operations

    # Key distribution and (hoisted) mix thresholds come from the
    # workload layer; the arrival process is Poisson (checked above)
    # and unused.
    runtime = WorkloadRuntime(config, rng_keys)
    picker = runtime.picker

    def draw_operation() -> tuple:
        op_name = runtime.draw_operation(rng_keys)
        if op_name == OP_DELETE:
            return OP_DELETE, pick_resident_key(tree, rng_keys,
                                                config.key_space,
                                                probe=picker.pick(sim.now))
        return op_name, picker.pick(sim.now)

    def terminal():
        while True:
            if think_time > 0.0:
                yield rng_think.expovariate(1.0 / think_time)
            op_name, key = draw_operation()
            yield from getattr(module, op_name)(ctx, key)
            state.completions += 1
            if state.completions == warmup and not metrics.measuring:
                metrics.measuring = True
                metrics.measure_start_time = sim.now

    for index in range(multiprogramming_level):
        sim.spawn(terminal(), name=f"terminal-{index}",
                  delay=index * 1e-6)  # stagger identical start times
    sim.spawn(_root_sampler(tree, metrics), name="root-sampler")
    metrics.note_population(multiprogramming_level)

    # No open arrival stream, hence no arrival rate.
    return _finish(config, sim, metrics, tree, state, budget,
                   arrival_rate=float("nan"))
