"""Registry spec: Optimistic Descent (paper Section 2).

Updates descend like searches and W-lock only the leaf, redoing with
the Naive W protocol when the leaf is unsafe.  The only algorithm the
Section 7 recovery lock-retention policies are modelled on.
"""

from repro.algorithms.names import OPTIMISTIC_DESCENT
from repro.algorithms.spec import AlgorithmSpec, register_algorithm

SPEC = register_algorithm(AlgorithmSpec(
    name=OPTIMISTIC_DESCENT,
    label="Optimistic Descent",
    short="optimistic",
    ops_ref="repro.simulator.optimistic",
    analyze_ref="repro.model.optimistic:analyze_optimistic",
    has_restarts=True,
    supports_closed=True,
    supports_recovery=True,
))
