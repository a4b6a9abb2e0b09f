"""Named operation mixes.

The mix triple (q_s, q_i, q_d) is the single workload knob of the
paper's framework.  ``PAPER_MIX`` is the Section 5.3 setting; the
others are common transaction-processing profiles used by the examples
and the sensitivity benchmarks.
"""

from __future__ import annotations

from repro.model.params import OperationMix
from repro.model.params import PAPER_MIX  # re-exported

#: Index-heavy OLTP: mostly lookups, few updates.
READ_HEAVY = OperationMix(q_search=0.8, q_insert=0.15, q_delete=0.05)

#: Ingest-heavy workload: updates dominate.
UPDATE_HEAVY = OperationMix(q_search=0.1, q_insert=0.6, q_delete=0.3)

#: Pure ingest (append-style loading).
INSERT_ONLY = OperationMix(q_search=0.0, q_insert=1.0, q_delete=0.0)

__all__ = ["INSERT_ONLY", "PAPER_MIX", "READ_HEAVY", "UPDATE_HEAVY"]
