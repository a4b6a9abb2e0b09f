"""B+-tree substrate.

The paper's simulator runs the concurrent algorithms "on actual B-trees"
(Section 4).  This subpackage provides that substrate:

* :class:`~repro.btree.node.LeafNode` / :class:`~repro.btree.node.InternalNode`
  — nodes carry right links and high keys at every level, so the same tree
  serves both the lock-coupling algorithms and the Link-type
  (Lehman-Yao) algorithm.
* :class:`~repro.btree.tree.BPlusTree` — a sequential B+-tree exposing both
  whole operations (``insert``/``delete``/``search``) and the structure
  modification primitives (``half_split``, ``complete_split``,
  ``split_path`` ...) that the concurrent algorithms invoke under locks.
* :mod:`~repro.btree.policies` — merge-at-empty vs merge-at-half
  restructuring (paper Section 3.2, "B-trees").
* :mod:`~repro.btree.builder` — the construction phase: build a tree from
  a random insert/delete mix before concurrent operation begins
  (``warm_tree`` builds each distinct tree once and clones it after).
* :mod:`~repro.btree.validate` — structural invariant checker used by the
  property-based tests.
* :mod:`~repro.btree.stats` — per-level shape statistics (fanout, fill
  factor) feeding the analytical model's tree-shape inputs.
"""

from repro.btree.node import InternalNode, LeafNode, Node
from repro.btree.policies import MERGE_AT_EMPTY, MERGE_AT_HALF, MergePolicy
from repro.btree.tree import BPlusTree
from repro.btree.builder import build_tree
from repro.btree.stats import TreeStatistics, collect_statistics
from repro.btree.validate import check_invariants

__all__ = [
    "BPlusTree",
    "InternalNode",
    "LeafNode",
    "MERGE_AT_EMPTY",
    "MERGE_AT_HALF",
    "MergePolicy",
    "Node",
    "TreeStatistics",
    "build_tree",
    "check_invariants",
    "collect_statistics",
]
