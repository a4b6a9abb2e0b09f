"""Registry spec: the symmetric Link-type variant (Lanin-Shasha).

Link-type descent with symmetric handling of deletes; simulator-only
(the paper analyses the Lehman-Yao variant).
"""

from repro.algorithms.names import LINK_SYMMETRIC
from repro.algorithms.spec import AlgorithmSpec, register_algorithm

SPEC = register_algorithm(AlgorithmSpec(
    name=LINK_SYMMETRIC,
    label="Symmetric Link-type (Lanin-Shasha)",
    short="link_symmetric",
    ops_ref="repro.simulator.link_symmetric",
    has_link_crossings=True,
    supports_compaction=True,
))
