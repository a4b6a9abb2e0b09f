"""Registry spec: Naive Lock-coupling (paper Section 2).

The paper's baseline: searches R-lock-couple, updates W-lock-couple and
release ancestors only above safe children, so root writer presence is
the load-limiting signal.
"""

from repro.algorithms.names import NAIVE_LOCK_COUPLING
from repro.algorithms.spec import AlgorithmSpec, register_algorithm

SPEC = register_algorithm(AlgorithmSpec(
    name=NAIVE_LOCK_COUPLING,
    label="Naive Lock-coupling",
    short="naive",
    ops_ref="repro.simulator.lock_coupling",
    analyze_ref="repro.model.lock_coupling:analyze_lock_coupling",
    has_restarts=True,
    supports_closed=True,
    coupling_updates=True,
))
