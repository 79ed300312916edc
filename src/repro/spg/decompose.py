"""SP-tree decomposition: recover the series/parallel structure of an SPG.

An SPG is defined constructively (Section 3.1); this module inverts the
construction, producing a binary decomposition tree whose leaves are the
graph's edges and whose internal nodes are series or parallel compositions.
The tree certifies series-parallelness.  Walking it counts and
enumerates the graph's order ideals (the admissible subgraphs of the DP
heuristics), bounds the number of DPA1D transitions from below, and
measures structural statistics (series/parallel depth).  Every walk is
iterative, ``repr`` included: a chain nests as deep as it is long.

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
    "sp_tree", "transition_lower_bound",
]

#: Weight buckets of :func:`transition_lower_bound`: a cluster counts
#: when its stages' rounded-up bucket counts sum to at most this.
BOUND_BUCKETS = 64

#: Relative slack of :func:`transition_lower_bound`'s bucket width.
BOUND_SLACK = 1e-9


@dataclass(frozen=True, eq=False, repr=False)
class SPTree:
    """A node of the series-parallel decomposition tree.

    ``kind`` is "edge" (leaf; ``edge`` holds the original ``(i, j)`` pair),
    "series" (children joined at ``via``, the fused middle stage) or
    "parallel".

    Nodes compare and hash by identity: the generated ``__eq__`` and
    ``__hash__`` would recurse through the children, as deep as the
    tree.  ``repr`` keeps the dataclass format but is built iteratively.
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

    def __repr__(self) -> str:
        parts = []
        stack: list = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
                continue
            parts.append(
                f"SPTree(kind={node.kind!r}, source={node.source!r}, "
                f"sink={node.sink!r}, children=("
            )
            # A one-element tuple keeps its trailing comma.
            stack.append(
                ("," if len(node.children) == 1 else "")
                + f"), edge={node.edge!r}, via={node.via!r})"
            )
            for k in range(len(node.children) - 1, -1, -1):
                stack.append(node.children[k])
                if k:
                    stack.append(", ")
        return "".join(parts)

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


def transition_lower_bound(spg: SPG, cap: float, limit: int) -> int | None:
    """A lower bound on DPA1D's transitions at weight cap ``cap``, from
    one walk of the SP tree; ``None`` when the graph is not
    series-parallel, has a negative stage weight or a million stages or
    more.

    A transition is a pair of order ideals ``I' ⊊ I`` whose difference,
    a suffix cluster of ``I``, the enumeration keeps at ``cap``.  The
    bound counts the pairs whose difference fits in :data:`BOUND_BUCKETS`
    buckets of width ``δ = cap * (1 - BOUND_SLACK) / BOUND_BUCKETS``,
    each stage rounded *up* to ``q_i = ceil(w_i / δ)`` buckets.  Every
    count is saturated at ``limit + 1`` (and at ``2**28``, which keeps
    every product inside ``int64``), so the result is
    ``min(pairs, limit + 1)`` and still decides "more than ``limit``".

    Per tree node the walk keeps three truncated histograms over the
    bucket sums of the node's inner ideals (those holding its source but
    not its sink): ``A`` of the ideal minus the source, ``U`` of the
    node's body (every stage but the sink) minus the ideal, and ``P`` of
    ``I \\ I'`` over the pairs ``I' ⊆ I``.  An edge is ``(1, 1, 1)``; a
    series node ``G1 →v→ G2`` has ``A = A1 + x^(b1 - q_s + q_v) A2``,
    ``U = x^b2 U1 + U2`` and ``P = P1 + P2 + U1 x^q_v A2`` (the pairs
    whose smaller ideal stops in ``G1`` and whose larger one reaches
    into ``G2``); a parallel node multiplies its branches' ``A``, ``U``
    and ``P``, since the branches share only their endpoints.  ``b`` is
    the body's bucket sum: ``b1 + b2`` in series, the branches' sum with
    the shared source counted once in parallel.  The root adds the
    pairs that start at ∅ (``x^q_s A``), end at the full graph
    (``x^q_t U``) or both, and drops bucket 0, where the ``I' = I``
    pairs lie.

    Why every counted pair is a transition: its cluster has at most
    ``n`` stages and a real weight of at most ``BOUND_BUCKETS * δ``,
    which is ``cap * (1 - BOUND_SLACK) * (1 + 4u)`` with rounding in
    ``δ`` and in each ``w_i / δ`` (``u = 2**-53``).  The enumeration
    accumulates the same non-negative weights one at a time, in DFS
    order, which raises a sum by a relative ``(n - 1) * u < 1.2e-10``
    at most for ``n < 10**6``, far inside the slack.  So each counted
    cluster, and every DFS prefix of it, weighs at most ``cap``, and a
    bound above a transition budget is a budget the enumeration would
    exceed too, under any kernel.
    """
    import numpy as np

    weights = spg.weights
    if spg.n >= 10**6 or min(weights) < 0:
        return None
    root = sp_tree(spg)
    if root is None and spg.n > 1:
        return None
    top = BOUND_BUCKETS
    sat = min(limit + 1, 1 << 28)
    delta = cap * (1.0 - BOUND_SLACK) / top
    if not delta > 0:
        return 0
    # A stage past top buckets keeps every set it is in out of the bound.
    q = np.minimum(np.ceil(np.asarray(weights) / delta), top + 1)
    q = q.astype(np.int64).tolist()
    if root is None:  # one stage: the single pair ∅ ⊊ {0}
        return min(int(1 <= q[0] <= top), sat)
    size = top + 1
    one = np.zeros(size, np.int64)
    one[0] = 1

    def shift(h, k):
        out = np.zeros(size, np.int64)
        if k < size:
            out[k:] = h[:size - k]
        return out

    def mul(a, b):
        return np.minimum(np.convolve(a, b)[:size], sat)

    hists: dict[int, tuple] = {}
    for node in _postorder(root):
        if node.kind == "edge":
            hists[id(node)] = (one, one, one, q[node.source])
            continue
        kids = [hists.pop(id(c)) for c in node.children]
        if node.kind == "series":
            (a1, u1, p1, b1), (a2, u2, p2, b2) = kids
            qv = q[node.via]
            hists[id(node)] = (
                np.minimum(a1 + shift(a2, b1 - q[node.source] + qv), sat),
                np.minimum(shift(u1, b2) + u2, sat),
                np.minimum(p1 + p2 + mul(u1, shift(a2, qv)), sat),
                b1 + b2,
            )
            continue
        a, u, p, b = kids[0]
        for a2, u2, p2, b2 in kids[1:]:
            a, u, p = mul(a, a2), mul(u, u2), mul(p, p2)
            b += b2 - q[node.source]
        hists[id(node)] = (a, u, p, b)
    a, u, p, b = hists[id(root)]
    pairs = p + shift(a, q[root.source]) + shift(u, q[root.sink])
    whole = b + q[root.sink]
    return min(int(pairs[1:].sum()) + int(1 <= whole <= top), sat)


def sp_depth(tree: SPTree) -> int:
    """Depth of composition nesting (edges have depth 0)."""
    depth: dict[int, int] = {}
    for node in _postorder(tree):
        depth[id(node)] = (
            0 if node.kind == "edge"
            else 1 + max(depth.pop(id(c)) for c in node.children)
        )
    return depth[id(tree)]
