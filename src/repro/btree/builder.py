"""Construction phase: build a B-tree from a random insert/delete mix.

The paper's simulator "first builds a B-tree out of a sequence of insert
and delete operations ... The proportion of insert to delete operations in
the construction phase is the same as the proportion in the concurrent
operation phase" (Section 4).  ``build_tree`` reproduces that: it applies
insert/delete operations drawn with the mix's update proportions until the
tree holds the requested number of items.

A sweep runs the same construction once per arrival rate, so the
simulators take their trees from ``warm_tree``: it builds each distinct
tree once, keeps a compact snapshot of it, and hands every later caller
a fresh clone that is indistinguishable from a new build.
"""

from __future__ import annotations

import random
from array import array
from collections import OrderedDict
from typing import List, NamedTuple, Optional, Tuple

from repro.btree.node import Node
from repro.btree.policies import MERGE_AT_EMPTY, MergePolicy
from repro.btree.tree import BPlusTree, NodeHook
from repro.errors import ConfigurationError

#: Default size of the integer key universe used by the experiments; large
#: enough that random inserts rarely collide.
DEFAULT_KEY_SPACE = 1 << 30

#: Most construction snapshots ``warm_tree`` keeps (least recently used
#: first out).  A paper-scale snapshot takes well under 1 MB.
WARM_TREE_MEMO_SIZE = 8

#: Snapshots store keys in signed 32-bit arrays when they fit, else in
#: 64-bit ones, with -1 for "no high key"; larger key spaces are built
#: without the memo.
_MAX_SNAPSHOT_KEY_SPACE = 1 << 63


def build_tree(n_items: int, order: int = 13,
               insert_fraction: float = 5.0 / 7.0,
               merge_policy: MergePolicy = MERGE_AT_EMPTY,
               key_space: int = DEFAULT_KEY_SPACE,
               seed: int = 0,
               on_new_node: NodeHook = None,
               on_free_node: NodeHook = None,
               rng: Optional[random.Random] = None) -> BPlusTree:
    """Grow a tree to ``n_items`` keys with a mixed insert/delete stream.

    Parameters
    ----------
    n_items:
        Target number of keys (the paper's experiments use ~40,000).
    insert_fraction:
        Probability that a construction operation is an insert, i.e.
        ``q_i / (q_i + q_d)`` of the concurrent mix (paper default
        .5/.7 = 5/7).
    key_space:
        Keys are drawn uniformly from ``[0, key_space)``.
    seed / rng:
        Reproducibility controls; ``rng`` wins when both are given.

    Returns the populated :class:`~repro.btree.tree.BPlusTree`.
    """
    if n_items < 0:
        raise ConfigurationError(f"cannot build a tree of {n_items} items")
    if n_items > key_space:
        raise ConfigurationError(
            f"cannot hold {n_items} distinct keys in a key space of "
            f"{key_space}")
    if not 0.5 < insert_fraction <= 1.0:
        raise ConfigurationError(
            "insert_fraction must be in (0.5, 1.0] so the tree grows "
            f"(got {insert_fraction})"
        )
    rng = rng if rng is not None else random.Random(seed)
    tree = BPlusTree(order=order, merge_policy=merge_policy,
                     on_new_node=on_new_node, on_free_node=on_free_node)
    while len(tree) < n_items:
        key = rng.randrange(key_space)
        if rng.random() < insert_fraction:
            tree.insert(key)
        else:
            # Deleting a uniformly random key usually misses; aim at the
            # resident population half the time so deletes actually bite,
            # as in a mixed workload with re-reads of existing keys.
            if len(tree) > 0 and rng.random() < 0.5:
                key = _approximate_resident_key(tree, key)
            tree.delete(key)
    return tree


def _approximate_resident_key(tree: BPlusTree, probe: int) -> int:
    """Return a key actually present in the tree near ``probe``.

    Finds the leaf responsible for ``probe`` and picks one of its keys
    (or walks right to the first non-empty leaf).  O(height) instead of
    O(n), which keeps construction of 40k-item trees fast.
    """
    leaf = tree.find_leaf(probe)
    node = leaf
    while node is not None and not node.keys:
        node = node.right  # type: ignore[assignment]
    if node is None or not node.keys:
        return probe
    return node.keys[len(node.keys) // 2]


class _Snapshot(NamedTuple):
    """A built tree, flattened into arrays.

    Nodes are numbered in creation order, freed ones included; node
    ``i``'s keys are ``keys[key_at[i]:key_at[i + 1]]`` and its children
    the node numbers ``children[child_at[i]:child_at[i + 1]]``.  ``right``
    holds -1 for no right link and ``high_keys`` -1 for no high key.
    """

    levels: array
    key_at: array
    keys: array
    child_at: array
    children: array
    right: array
    high_keys: array
    dead: array
    root: int
    size: int
    splits: int
    merges: int


_memo: "OrderedDict[Tuple, _Snapshot]" = OrderedDict()


def warm_tree(n_items: int, order: int, insert_fraction: float,
              merge_policy: MergePolicy, key_space: int, seed: int,
              on_new_node: NodeHook = None) -> BPlusTree:
    """The tree ``build_tree`` grows from these arguments, built once.

    The first call for a given (seed, shape) builds the tree and keeps a
    snapshot; later calls rebuild it from the snapshot.  Either way the
    caller owns a private tree, ``on_new_node`` sees the same nodes in the
    same order (those freed during construction included), and the tree
    equals a fresh build node for node, so results do not depend on
    whether the memo was hit.
    """
    key = (seed, n_items, order, insert_fraction, merge_policy, key_space)
    snapshot = _memo.get(key)
    if snapshot is not None:
        _memo.move_to_end(key)
        return _restore(snapshot, order, merge_policy, on_new_node)
    if key_space > _MAX_SNAPSHOT_KEY_SPACE:
        return build_tree(n_items, order, insert_fraction, merge_policy,
                          key_space, seed=seed, on_new_node=on_new_node)
    created: List[Node] = []

    def record(node: Node) -> None:
        created.append(node)
        if on_new_node is not None:
            on_new_node(node)

    tree = build_tree(n_items, order, insert_fraction, merge_policy,
                      key_space, seed=seed, on_new_node=record)
    tree.on_new_node = on_new_node
    _memo[key] = _snapshot(tree, created, "i" if key_space <= 1 << 31 else "q")
    if len(_memo) > WARM_TREE_MEMO_SIZE:
        _memo.popitem(last=False)
    return tree


def _snapshot(tree: BPlusTree, created: List[Node], key_type: str) -> _Snapshot:
    number = {node.node_id: i for i, node in enumerate(created)}
    levels, key_at, keys = array("b"), array("i", [0]), array(key_type)
    child_at, children = array("i", [0]), array("i")
    right, high_keys, dead = array("i"), array(key_type), array("i")
    for i, node in enumerate(created):
        levels.append(node.level)
        keys.extend(node.keys)
        key_at.append(len(keys))
        if node.level != 1:
            children.extend(number[child.node_id] for child in node.children)
        child_at.append(len(children))
        right.append(-1 if node.right is None else number[node.right.node_id])
        high_keys.append(-1 if node.high_key is None else node.high_key)
        if node.dead:
            dead.append(i)
    return _Snapshot(levels, key_at, keys, child_at, children, right,
                     high_keys, dead, number[tree.root.node_id], len(tree),
                     tree.split_count, tree.merge_count)


def _restore(snapshot: _Snapshot, order: int, merge_policy: MergePolicy,
             on_new_node: NodeHook) -> BPlusTree:
    # The constructor allocates node 0, the initial root leaf, exactly as
    # build_tree's does; the rest follow through the same allocators.
    tree = BPlusTree(order=order, merge_policy=merge_policy,
                     on_new_node=on_new_node)
    nodes: List[Optional[Node]] = [tree.root]
    new_leaf, new_internal = tree._new_leaf, tree._new_internal
    for level in snapshot.levels[1:]:
        nodes.append(new_leaf() if level == 1 else new_internal(level))
    nodes.append(None)  # right link -1 resolves to None
    keys, key_at = snapshot.keys, snapshot.key_at
    children, child_at = snapshot.children, snapshot.child_at
    right, high_keys = snapshot.right, snapshot.high_keys
    for i in range(len(nodes) - 1):
        node = nodes[i]
        node.keys = keys[key_at[i]:key_at[i + 1]].tolist()
        if node.level != 1:
            node.children = [nodes[j]
                             for j in children[child_at[i]:child_at[i + 1]]]
        node.right = nodes[right[i]]
        high = high_keys[i]
        if high >= 0:
            node.high_key = high
    for i in snapshot.dead:
        nodes[i].dead = True
    tree.root = nodes[snapshot.root]
    tree._size = snapshot.size
    tree._splits = snapshot.splits
    tree._merges = snapshot.merges
    return tree
