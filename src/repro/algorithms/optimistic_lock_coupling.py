"""Registry spec: Optimistic Lock-coupling (registered extension).

A middle point between Naive Lock-coupling and Optimistic Descent:
updates R-lock-couple through the upper levels and switch to the W
protocol for the two deepest levels, redoing with the full Naive W
protocol when the level-2 node is unsafe.

This variant is the registry's extensibility proof: it ships entirely
as this spec module plus its ops module — no core dispatch site
(driver, closed system, figures, CLI) mentions it.  See
``docs/architecture.md`` ("Adding an algorithm").
"""

from repro.algorithms.names import OPTIMISTIC_LOCK_COUPLING
from repro.algorithms.spec import AlgorithmSpec, register_algorithm

SPEC = register_algorithm(AlgorithmSpec(
    name=OPTIMISTIC_LOCK_COUPLING,
    label="Optimistic Lock-coupling",
    short="olc",
    ops_ref="repro.simulator.optimistic_lock_coupling",
    has_restarts=True,
    coupling_updates=True,
))
