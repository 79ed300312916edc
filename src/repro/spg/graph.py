"""Series-parallel graphs with the paper's recursive ``(x, y)`` labelling.

An SPG (Section 3.1 of the paper) is built from two-node graphs by *series*
composition (merge the sink of the first with the source of the second) and
*parallel* composition (merge both sources and both sinks).  Each stage
carries a computation requirement ``w_i`` (cycles) and each edge carries a
communication volume ``delta_{i,j}`` (bytes).

Every node has a label ``(x_i, y_i)``: its coordinates in the recursive
construction.  The source always has label ``(1, 1)``; the sink has label
``(xmax, 1)``; the maximum ``y`` value is the *elevation* ``ymax``, the
maximal degree of parallelism of the SPG.  Labels drive the DPA2D heuristic,
which first lays the SPG out on an ``xmax x ymax`` grid.

Node identifiers are integers ``0 .. n-1``; the source is always node ``0``
and the sink is always node ``n - 1`` (compositions renumber accordingly).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["SPG", "series", "parallel", "sp_edge"]

#: How to merge the weights of the two stages identified by a composition.
MergeRule = "str | Callable[[float, float], float]"


def _merge_fn(rule) -> Callable[[float, float], float]:
    if callable(rule):
        return rule
    if rule == "sum":
        return lambda a, b: a + b
    if rule == "first":
        return lambda a, b: a
    if rule == "second":
        return lambda a, b: b
    if rule == "max":
        return max
    raise ValueError(f"unknown merge rule: {rule!r}")


class SPG:
    """An immutable series-parallel workflow graph.

    Parameters
    ----------
    weights:
        ``weights[i]`` is the computation requirement of stage ``i`` (cycles).
    labels:
        ``labels[i] = (x_i, y_i)`` per the paper's recursive labelling, or
        ``None`` to derive fallback labels (longest-path depth for ``x``, a
        per-level counter for ``y``).  Fallback labels satisfy the structural
        invariants used by the heuristics but are only meaningful for graphs
        actually built by composition.
    edges:
        mapping ``(i, j) -> delta_ij`` (bytes sent from stage i to stage j).
    validate:
        verify the structural invariants (single source 0, single sink n-1,
        acyclic, edges strictly increase ``x``).
    """

    __slots__ = (
        "weights", "labels", "edges", "_preds", "_succs", "_topo",
        "_derived", "_shape",
    )

    def __init__(
        self,
        weights: list[float],
        labels: list[tuple[int, int]] | None,
        edges: Mapping[tuple[int, int], float],
        *,
        validate: bool = True,
    ) -> None:
        self.weights: tuple[float, ...] = tuple(float(w) for w in weights)
        self.edges: dict[tuple[int, int], float] = {
            (int(i), int(j)): float(d) for (i, j), d in edges.items()
        }
        n = len(self.weights)
        preds: list[list[int]] = [[] for _ in range(n)]
        succs: list[list[int]] = [[] for _ in range(n)]
        for (i, j) in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) references unknown stage")
            succs[i].append(j)
            preds[j].append(i)
        self._preds = tuple(tuple(sorted(p)) for p in preds)
        self._succs = tuple(tuple(sorted(s)) for s in succs)
        # The topological order is computed lazily: compositions build many
        # intermediate SPGs (validate=False) that never ask for it.
        self._topo: tuple[int, ...] | None = None
        # Lazily computed derived data (see cached).  SPGs are immutable,
        # so entries never need invalidation; the dict is dropped on
        # pickling.
        self._derived: dict = {}
        # Derived data of the stages, edges and weights alone, shared by
        # reference with volume-only copies (see shape_cached).
        self._shape: dict = {}
        if labels is None:
            labels = self._fallback_labels()
        self.labels: tuple[tuple[int, int], ...] = tuple(
            (int(x), int(y)) for x, y in labels
        )
        if len(self.labels) != n:
            raise ValueError("labels/weights length mismatch")
        if validate:
            self.topological_order()  # eager cycle detection
            self._validate()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of stages."""
        return len(self.weights)

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return self.n - 1

    def cached(self, key: str, factory: Callable[[], object]):
        """Fetch derived data from the per-instance cache, computing once.

        The cache holds anything recomputable from the immutable graph,
        edge volumes included: the length ``xmax``, adjacency arrays,
        reachability bitmasks and the DP solves of
        :func:`~repro.heuristics.base.shared_solve`.
        ``factory`` runs at most once per key for the lifetime of the SPG
        (or until :meth:`drop_caches`).
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = factory()
            return value

    def shape_cached(self, key, factory: Callable[[], object]):
        """Fetch derived data from the shape cache, computing once.

        The shape cache holds data that depends only on the stages, the
        edges (not their volumes) and the weights: the ideal lattice of
        DPA1D, the SP decomposition tree, and DPA2D's levels, level blocks
        and per-period cluster and level-range costs.  A copy that
        differs only in its volumes (:meth:`with_weights` with
        ``weights=None``, and so :meth:`with_comm_scaled` and
        :meth:`with_ccr`) shares this dict by
        reference, so ``factory`` runs once for the whole family.  Any
        other constructor, and unpickling, starts an empty one.  Only a
        StreamIt workflow's CCR variants are such a family in the paper's
        panels: the random panels draw every graph afresh.
        """
        try:
            return self._shape[key]
        except KeyError:
            value = self._shape[key] = factory()
            return value

    def drop_caches(self) -> None:
        """Empty both derived-data caches, to free their memory.

        The shape cache is cleared in place, so volume-only copies
        sharing it lose its entries too; everything is recomputed on
        demand.
        """
        self._derived.clear()
        self._shape.clear()

    @property
    def xmax(self) -> int:
        """Length of the SPG: the ``x`` label of the sink."""
        return self.cached("xmax", lambda: max(x for x, _ in self.labels))

    @property
    def ymax(self) -> int:
        """Elevation of the SPG: the maximal ``y`` label."""
        return max(y for _, y in self.labels)

    def preds(self, i: int) -> tuple[int, ...]:
        """Immediate predecessors of stage ``i``."""
        return self._preds[i]

    def succs(self, i: int) -> tuple[int, ...]:
        """Immediate successors of stage ``i``."""
        return self._succs[i]

    def comm(self, i: int, j: int) -> float:
        """Communication volume on edge ``(i, j)`` (0 if absent)."""
        return self.edges.get((i, j), 0.0)

    def topological_order(self) -> tuple[int, ...]:
        """A topological ordering of the stages (computed once, lazily)."""
        if self._topo is None:
            self._topo = self._toposort()
        return self._topo

    @property
    def edge_list(self) -> tuple[tuple[int, int, float], ...]:
        """Edges as an immutable ``(i, j, delta)`` array (dict order).

        Hot loops iterate this flat tuple instead of ``edges.items()``;
        the order matches the ``edges`` dict so float accumulations are
        bit-identical either way.
        """
        return self.cached(
            "edge_list",
            lambda: tuple((i, j, d) for (i, j), d in self.edges.items()),
        )

    def in_edges(self, j: int) -> tuple[tuple[int, float], ...]:
        """Incoming ``(pred, delta)`` pairs of stage ``j`` (sorted by pred)."""
        return self.cached(
            "in_edges",
            lambda: tuple(
                tuple((i, self.edges[(i, k)]) for i in self._preds[k])
                for k in range(self.n)
            ),
        )[j]

    def descendant_masks(self) -> list[int]:
        """``masks[i]`` = bitset of strict descendants of stage ``i`` (cached)."""
        return self.cached("desc_masks", self._descendant_masks)

    def ancestor_masks(self) -> list[int]:
        """``masks[i]`` = bitset of strict ancestors of stage ``i`` (cached)."""
        return self.cached("anc_masks", self._ancestor_masks)

    def _descendant_masks(self) -> list[int]:
        masks = [0] * self.n
        for i in reversed(self.topological_order()):
            m = 0
            for j in self._succs[i]:
                m |= (1 << j) | masks[j]
            masks[i] = m
        return masks

    def _ancestor_masks(self) -> list[int]:
        masks = [0] * self.n
        for i in self.topological_order():
            m = 0
            for j in self._preds[i]:
                m |= (1 << j) | masks[j]
            masks[i] = m
        return masks

    @property
    def total_work(self) -> float:
        """Sum of all computation requirements."""
        return sum(self.weights)

    @property
    def total_comm(self) -> float:
        """Sum of all communication volumes."""
        return sum(self.edges.values())

    @property
    def ccr(self) -> float:
        """Computation-to-communication ratio ``sum(w) / sum(delta)``."""
        tc = self.total_comm
        return float("inf") if tc == 0 else self.total_work / tc

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def levels(self) -> dict[int, list[int]]:
        """Stages grouped by ``x`` label: ``{x: [stage, ...]}`` (sorted)."""
        out: dict[int, list[int]] = {}
        for i, (x, _) in enumerate(self.labels):
            out.setdefault(x, []).append(i)
        return {x: sorted(nodes) for x, nodes in sorted(out.items())}

    def to_networkx(self) -> nx.DiGraph:
        """Export as a :class:`networkx.DiGraph`.

        Nodes carry ``w``, ``x``, ``y`` attributes; edges carry ``delta``.
        networkx is imported here, its only use, so importing the
        package does not load it.
        """
        import networkx as nx

        g = nx.DiGraph()
        for i, w in enumerate(self.weights):
            x, y = self.labels[i]
            g.add_node(i, w=w, x=x, y=y)
        for (i, j), d in self.edges.items():
            g.add_edge(i, j, delta=d)
        return g

    def with_weights(
        self,
        weights: list[float] | None = None,
        edges: Mapping[tuple[int, int], float] | None = None,
    ) -> "SPG":
        """A copy of this SPG with replaced node weights and/or edge volumes.

        A copy that keeps the weights (``weights=None``) differs from this
        graph in its volumes at most, so it shares the shape cache (see
        :meth:`shape_cached`).
        """
        new_edges = dict(self.edges)
        if edges is not None:
            for e, d in edges.items():
                if e not in new_edges:
                    raise KeyError(f"edge {e} not present")
                new_edges[e] = float(d)
        out = SPG(
            list(weights) if weights is not None else list(self.weights),
            list(self.labels),
            new_edges,
            validate=False,
        )
        if weights is None:
            out._shape = self._shape
        return out

    def with_comm_scaled(self, factor: float) -> "SPG":
        """A copy with every communication volume multiplied by ``factor``."""
        return self.with_weights(
            edges={e: d * factor for e, d in self.edges.items()}
        )

    def with_ccr(self, target_ccr: float) -> "SPG":
        """A copy whose communication volumes are rescaled to hit ``target_ccr``.

        Used by the evaluation section of the paper, which rescales the
        ``delta``'s of each workflow so the CCR becomes 10, 1 or 0.1.
        """
        if target_ccr <= 0:
            raise ValueError("target CCR must be positive")
        if self.total_comm == 0:
            raise ValueError("cannot rescale an SPG with no communications")
        return self.with_comm_scaled(self.ccr / target_ccr)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _toposort(self) -> tuple[int, ...]:
        n = self.n
        indeg = [len(self._preds[i]) for i in range(n)]
        stack = [i for i in range(n) if indeg[i] == 0]
        order: list[int] = []
        while stack:
            i = stack.pop()
            order.append(i)
            for j in self._succs[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    stack.append(j)
        if len(order) != n:
            raise ValueError("graph has a cycle")
        return tuple(order)

    def _fallback_labels(self) -> list[tuple[int, int]]:
        n = self.n
        depth = [1] * n
        for i in self.topological_order():
            for j in self._succs[i]:
                depth[j] = max(depth[j], depth[i] + 1)
        seen: dict[int, int] = {}
        labels: list[tuple[int, int]] = [(0, 0)] * n
        for i in sorted(range(n), key=lambda k: (depth[k], k)):
            lane = seen.get(depth[i], 0) + 1
            seen[depth[i]] = lane
            labels[i] = (depth[i], lane)
        return labels

    def _validate(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError("SPG must have at least one stage")
        if n >= 2:
            for i in range(n):
                if i != self.source and not self._preds[i]:
                    raise ValueError(f"stage {i} is a second source")
                if i != self.sink and not self._succs[i]:
                    raise ValueError(f"stage {i} is a second sink")
        for (i, j) in self.edges:
            if self.labels[i][0] >= self.labels[j][0]:
                raise ValueError(
                    f"edge ({i}, {j}) does not increase x: "
                    f"{self.labels[i]} -> {self.labels[j]}"
                )
        if self.labels[self.source] != (1, 1):
            raise ValueError("source label must be (1, 1)")
        if self.labels[self.sink][1] != 1:
            raise ValueError("sink label must have y = 1")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SPG(n={self.n}, edges={len(self.edges)}, "
            f"xmax={self.xmax}, ymax={self.ymax}, ccr={self.ccr:.3g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SPG):
            return NotImplemented
        return (
            self.weights == other.weights
            and self.labels == other.labels
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash(
            (self.weights, self.labels, tuple(sorted(self.edges.items())))
        )

    # ------------------------------------------------------------------
    # Pickling (the parallel experiment engine ships SPGs to workers).
    # Both derived-data caches are dropped: workers rebuild what they need.
    # ------------------------------------------------------------------
    def __reduce__(self):
        return (_unpickle_spg, (self.weights, self.labels, self.edges))


def _unpickle_spg(weights, labels, edges) -> "SPG":
    return SPG(list(weights), list(labels), edges, validate=False)


def sp_edge(w_src: float, w_dst: float, delta: float) -> SPG:
    """The smallest SPG: two stages joined by one edge (labels (1,1)->(2,1))."""
    return SPG([w_src, w_dst], [(1, 1), (2, 1)], {(0, 1): delta})


def series(g1: SPG, g2: SPG, merge: MergeRule = "sum") -> SPG:
    """Series composition: merge the sink of ``g1`` with the source of ``g2``.

    The merged stage's weight combines the two endpoint weights according to
    ``merge`` ("sum" by default).  Labels follow Section 3.1: ``g2``'s labels
    have their ``x`` values incremented by ``x_sink(g1) - 1``.
    """
    fn = _merge_fn(merge)
    n1 = g1.n
    xshift = g1.labels[g1.sink][0] - 1

    def remap(j: int) -> int:
        # g2 node j -> result id; g2's source coincides with g1's sink.
        return g1.sink if j == 0 else n1 - 1 + j

    weights = list(g1.weights) + [g2.weights[j] for j in range(1, g2.n)]
    weights[g1.sink] = fn(g1.weights[g1.sink], g2.weights[0])
    labels = list(g1.labels) + [
        (x + xshift, y) for (x, y) in list(g2.labels)[1:]
    ]
    edges: dict[tuple[int, int], float] = dict(g1.edges)
    for (i, j), d in g2.edges.items():
        e = (remap(i), remap(j))
        edges[e] = edges.get(e, 0.0) + d
    return SPG(weights, labels, edges, validate=False)


def parallel(g1: SPG, g2: SPG, merge: MergeRule = "sum") -> SPG:
    """Parallel composition: merge both sources and both sinks.

    Following Section 3.1, the component with the longest path (largest
    ``x_sink``) is placed first; the other component's internal ``y`` labels
    are incremented by the first component's maximal ``y``.  If both
    components contribute a direct source->sink edge, the volumes add up.
    """
    if g1.n < 2 or g2.n < 2:
        raise ValueError("parallel composition needs SPGs with >= 2 stages")
    if g1.labels[g1.sink][0] < g2.labels[g2.sink][0]:
        g1, g2 = g2, g1
    fn = _merge_fn(merge)
    n1, n2 = g1.n, g2.n
    n = n1 + n2 - 2
    yshift = g1.ymax

    def remap2(j: int) -> int:
        if j == 0:
            return 0
        if j == g2.sink:
            return n - 1
        return n1 - 2 + j  # inner g2 nodes come after inner g1 nodes

    def remap1(i: int) -> int:
        return n - 1 if i == g1.sink else i

    weights = [0.0] * n
    labels: list[tuple[int, int]] = [(0, 0)] * n
    weights[0] = fn(g1.weights[0], g2.weights[0])
    labels[0] = g1.labels[0]
    weights[n - 1] = fn(g1.weights[g1.sink], g2.weights[g2.sink])
    labels[n - 1] = g1.labels[g1.sink]
    for i in range(1, n1 - 1):
        weights[i] = g1.weights[i]
        labels[i] = g1.labels[i]
    for j in range(1, n2 - 1):
        x, y = g2.labels[j]
        weights[n1 - 2 + j] = g2.weights[j]
        labels[n1 - 2 + j] = (x, y + yshift)

    edges: dict[tuple[int, int], float] = {}
    for (i, j), d in g1.edges.items():
        e = (remap1(i), remap1(j))
        edges[e] = edges.get(e, 0.0) + d
    for (i, j), d in g2.edges.items():
        e = (remap2(i), remap2(j))
        edges[e] = edges.get(e, 0.0) + d
    return SPG(weights, labels, edges, validate=False)
