"""Registry spec: strict Two-Phase Locking (extension baseline).

Every lock placed on the descent is held until the operation commits —
the fully restrictive end of the concurrency spectrum (ext01).
"""

from repro.algorithms.names import TWO_PHASE_LOCKING
from repro.algorithms.spec import AlgorithmSpec, register_algorithm

SPEC = register_algorithm(AlgorithmSpec(
    name=TWO_PHASE_LOCKING,
    label="Two-Phase Locking",
    short="two_phase",
    ops_ref="repro.simulator.two_phase",
    analyze_ref="repro.model.two_phase:analyze_two_phase",
    has_restarts=True,
    coupling_updates=True,
))
