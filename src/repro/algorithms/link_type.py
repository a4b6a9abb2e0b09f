"""Registry spec: the Link-type (Lehman-Yao) algorithm.

Descents hold one lock at a time and recover from concurrent splits by
chasing right-links; merges never happen inline, so the background
compactor is the only way empty leaves are reclaimed.
"""

from repro.algorithms.names import LINK_TYPE
from repro.algorithms.spec import AlgorithmSpec, register_algorithm

SPEC = register_algorithm(AlgorithmSpec(
    name=LINK_TYPE,
    label="Link-type (Lehman-Yao)",
    short="link",
    ops_ref="repro.simulator.link",
    analyze_ref="repro.model.link:analyze_link",
    has_link_crossings=True,
    supports_closed=True,
    supports_compaction=True,
))
