"""SP-tree decomposition: recover the series/parallel structure of an SPG.

An SPG is defined constructively (Section 3.1); this module inverts the
construction, producing a binary decomposition tree whose leaves are the
graph's edges and whose internal nodes are series or parallel compositions.
The tree certifies series-parallelness.  Walking it counts and
enumerates the graph's order ideals (the admissible subgraphs of the DP
heuristics) and measures structural statistics (series/parallel depth).
Every walk is iterative: a chain nests as deep as it is long.

The algorithm is the classical two-terminal SP reduction: repeatedly fuse
a degree-(1,1) node into a series composition and merge duplicate edges
into a parallel composition, recording the history as a tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.spg.graph import SPG
from repro.util.bitset import split_words, word_count

__all__ = [
    "SPTree", "decompose", "enumerate_ideals", "ideal_count", "sp_depth",
    "sp_tree",
]


@dataclass(frozen=True)
class SPTree:
    """A node of the series-parallel decomposition tree.

    ``kind`` is "edge" (leaf; ``edge`` holds the original ``(i, j)`` pair),
    "series" (children joined at ``via``, the fused middle stage) or
    "parallel".
    """

    kind: str
    source: int
    sink: int
    children: tuple["SPTree", ...] = ()
    edge: tuple[int, int] | None = None
    via: int | None = None

    def leaves(self) -> list[tuple[int, int]]:
        """The original SPG edges covered by this subtree, left to right."""
        return [nd.edge for nd in _postorder(self) if nd.kind == "edge"]

    def count(self, kind: str) -> int:
        """Number of tree nodes of the given kind."""
        return sum(nd.kind == kind for nd in _postorder(self))

    def render(self, indent: int = 0) -> str:
        """Multi-line indented rendering (debugging / teaching aid)."""
        lines = []
        stack = [(self, indent)]
        while stack:
            node, depth = stack.pop()
            pad = "  " * depth
            if node.kind == "edge":
                lines.append(f"{pad}edge {node.edge[0]} -> {node.edge[1]}")
                continue
            lines.append(f"{pad}{node.kind} ({node.source} .. {node.sink})")
            stack.extend((c, depth + 1) for c in reversed(node.children))
        return "\n".join(lines)


def _postorder(root: SPTree) -> list[SPTree]:
    """Every node under ``root``, children (left to right) before their
    parent.  Built with an explicit stack: a chain of ``n`` stages nests
    ``n`` deep, past Python's recursion limit."""
    preorder = []
    stack = [root]
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack.extend(node.children)
    preorder.reverse()
    return preorder


def decompose(spg: SPG) -> SPTree:
    """The SP decomposition tree of ``spg``.

    Raises ``ValueError`` if the graph is not two-terminal series-parallel
    (which cannot happen for graphs built by
    :func:`repro.spg.graph.series` / :func:`repro.spg.graph.parallel`).
    """
    n = spg.n
    if n == 1:
        raise ValueError("a single stage has no SP decomposition")
    # Multigraph between remaining nodes; each parallel bundle holds trees.
    trees: dict[tuple[int, int], list[SPTree]] = {}
    preds: dict[int, set[int]] = {i: set() for i in range(n)}
    succs: dict[int, set[int]] = {i: set() for i in range(n)}
    for (i, j) in spg.edges:
        trees.setdefault((i, j), []).append(
            SPTree("edge", i, j, edge=(i, j))
        )
        succs[i].add(j)
        preds[j].add(i)

    def merge_parallel(key: tuple[int, int]) -> None:
        bundle = trees[key]
        if len(bundle) > 1:
            trees[key] = [
                SPTree("parallel", key[0], key[1], tuple(bundle))
            ]

    for key in list(trees):
        merge_parallel(key)

    changed = True
    while changed:
        changed = False
        for v in list(preds):
            if v in (spg.source, spg.sink):
                continue
            if len(preds[v]) == 1 and len(succs[v]) == 1:
                (a,) = preds[v]
                (b,) = succs[v]
                if a == b or len(trees[(a, v)]) != 1 or len(trees[(v, b)]) != 1:
                    continue
                left = trees.pop((a, v))[0]
                right = trees.pop((v, b))[0]
                node = SPTree("series", a, b, (left, right), via=v)
                succs[a].discard(v)
                preds[b].discard(v)
                del preds[v]
                del succs[v]
                trees.setdefault((a, b), []).append(node)
                succs[a].add(b)
                preds[b].add(a)
                merge_parallel((a, b))
                changed = True
    if set(trees) != {(spg.source, spg.sink)} or len(
        trees[(spg.source, spg.sink)]
    ) != 1:
        raise ValueError("graph is not two-terminal series-parallel")
    return trees[(spg.source, spg.sink)][0]


def sp_tree(spg: SPG) -> SPTree | None:
    """:func:`decompose` of ``spg``, cached on the graph; ``None`` when the
    graph is not series-parallel (or is a single stage).  The ideal count
    and the ideal enumeration share this one decomposition."""

    def build() -> SPTree | None:
        try:
            return decompose(spg)
        except ValueError:
            return None

    return spg.cached("sp_tree", build)


def ideal_count(spg: SPG) -> int | None:
    """Number of order ideals (admissible subgraphs) of ``spg``, ``None``
    when the graph is not series-parallel.

    The count includes the empty set and the full graph.  Every other
    ideal contains the source and not the sink, and the decomposition
    tree counts those per node: an edge has one (its source alone); a
    series composition ``N1 + N2`` (the ideal stops inside the first
    part, or contains ``via`` and continues into the second); a parallel
    composition the product over its branches, which share only their
    endpoints.  :func:`enumerate_ideals` emits the same ideals by the
    same rules.
    """
    if spg.n == 1:
        return 2
    root = sp_tree(spg)
    if root is None:
        return None
    counts: dict[int, int] = {}
    for node in _postorder(root):
        if node.kind == "edge":
            counts[id(node)] = 1
            continue
        kids = [counts.pop(id(c)) for c in node.children]
        counts[id(node)] = (
            sum(kids) if node.kind == "series" else math.prod(kids)
        )
    return counts[id(root)] + 2


def enumerate_ideals(spg: SPG):
    """Every order ideal of ``spg`` as a ``(words, N)`` ``uint64`` array
    (:func:`~repro.util.bitset.split_words`), sorted by population count
    and then by value, the empty set first; ``None`` when the graph is
    not series-parallel.

    The decomposition tree emits exactly the ideals :func:`ideal_count`
    counts, each once, so the caller can check a budget against the
    count before calling this.
    """
    import numpy as np

    n = spg.n
    words = word_count(n)
    if n == 1:
        inner = np.empty((words, 0), np.uint64)
    else:
        root = sp_tree(spg)
        if root is None:
            return None
        inner = _tree_ideals(root, words)
    every = np.concatenate(
        [np.zeros((words, 1), np.uint64), inner,
         split_words([(1 << n) - 1], words)],
        axis=1,
    )
    popcount = np.bitwise_count(every).sum(axis=0)
    return every[:, np.lexsort((*every, popcount))]


def _tree_ideals(root: SPTree, words: int):
    """The ideals of ``root`` that hold its source and not its sink, as
    a ``(words, N)`` ``uint64`` array in no set order (the caller sorts).

    Per node: an edge gives its source alone; a series node gives its
    first part's ideals, then the first part's *body* (every stage of it
    but its sink) joined to each of the second part's; a parallel node
    the OR of one ideal per branch, every combination.  Parallel nodes
    are built children first (one post-order pass); everything between
    a parallel node and the parallel nodes below it is laid out by one
    stack walk that carries the bodies to OR in, so a long chain costs
    one step per stage rather than a copy of everything before it.
    """
    import numpy as np

    body: dict[int, int] = {}
    product: dict[int, object] = {}

    def flatten(top: SPTree):
        # The ideals of ``top``, whose parallel descendants are built.
        singles: list[int] = []
        parts = []
        stack = [(top, 0)]
        while stack:
            node, offset = stack.pop()
            if node.kind == "edge":
                singles.append(offset | body[id(node)])
            elif node.kind == "series":
                first, second = node.children
                stack.append((second, offset | body[id(first)]))
                stack.append((first, offset))
            else:
                block = product.pop(id(node))
                if offset:
                    block = block | split_words([offset], words)
                parts.append(block)
        parts.append(split_words(singles, words))
        return np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]

    for node in _postorder(root):
        if node.kind == "edge":
            body[id(node)] = 1 << node.source
            continue
        b = 0
        for c in node.children:
            b |= body[id(c)]
        body[id(node)] = b
        if node.kind == "parallel":
            block = flatten(node.children[0])
            for c in node.children[1:]:
                other = flatten(c)
                block = (block[:, :, None] | other[:, None, :]).reshape(
                    words, -1
                )
            product[id(node)] = block
    return flatten(root)


def sp_depth(tree: SPTree) -> int:
    """Depth of composition nesting (edges have depth 0)."""
    depth: dict[int, int] = {}
    for node in _postorder(tree):
        depth[id(node)] = (
            0 if node.kind == "edge"
            else 1 + max(depth.pop(id(c)) for c in node.children)
        )
    return depth[id(tree)]
