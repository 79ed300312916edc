"""SP-tree decomposition: recover the series/parallel structure of an SPG.

An SPG is defined constructively (Section 3.1); this module inverts the
construction, producing a binary decomposition tree whose leaves are the
graph's edges and whose internal nodes are series or parallel compositions.
The tree certifies series-parallelness, and walking it re-derives node
labels, enumerates maximal chains, or measures structural statistics
(series/parallel depth) used by the structure-aware heuristics' analyses.

The algorithm is the classical two-terminal SP reduction: repeatedly fuse
a degree-(1,1) node into a series composition and merge duplicate edges
into a parallel composition, recording the history as a tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.spg.graph import SPG

__all__ = ["SPTree", "decompose", "ideal_count", "sp_depth"]


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
        """The original SPG edges covered by this subtree."""
        if self.kind == "edge":
            assert self.edge is not None
            return [self.edge]
        out: list[tuple[int, int]] = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def count(self, kind: str) -> int:
        """Number of tree nodes of the given kind."""
        own = 1 if self.kind == kind else 0
        return own + sum(c.count(kind) for c in self.children)

    def render(self, indent: int = 0) -> str:
        """Multi-line indented rendering (debugging / teaching aid)."""
        pad = "  " * indent
        if self.kind == "edge":
            return f"{pad}edge {self.edge[0]} -> {self.edge[1]}"
        label = f"{self.kind} ({self.source} .. {self.sink})"
        body = "\n".join(c.render(indent + 1) for c in self.children)
        return f"{pad}{label}\n{body}"


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


def ideal_count(spg: SPG) -> int | None:
    """Number of order ideals (admissible subgraphs) of ``spg``, ``None``
    when the graph is not series-parallel.

    The count includes the empty set and the full graph.  Every other
    ideal contains the source and not the sink, and the decomposition
    tree counts those per node: an edge has one (its source alone); a
    series composition ``N1 + N2`` (the ideal stops inside the first
    part, or contains ``via`` and continues into the second); a parallel
    composition the product over its branches, which share only their
    endpoints.  The tree is walked with an explicit stack: a chain of
    ``n`` stages nests ``n`` deep.
    """
    if spg.n == 1:
        return 2
    try:
        root = decompose(spg)
    except ValueError:
        return None
    preorder = []
    stack = [root]
    while stack:
        node = stack.pop()
        preorder.append(node)
        stack.extend(node.children)
    counts: dict[int, int] = {}
    for node in reversed(preorder):  # children before their parent
        if node.kind == "edge":
            counts[id(node)] = 1
            continue
        kids = [counts.pop(id(c)) for c in node.children]
        counts[id(node)] = (
            sum(kids) if node.kind == "series" else math.prod(kids)
        )
    return counts[id(root)] + 2


def sp_depth(tree: SPTree) -> int:
    """Depth of composition nesting (edges have depth 0)."""
    if tree.kind == "edge":
        return 0
    return 1 + max(sp_depth(c) for c in tree.children)
