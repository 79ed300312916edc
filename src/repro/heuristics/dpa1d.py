"""DPA1D (Sections 4.1 and 5.4): optimal 1D dynamic program on the snake.

The grid is configured as a uni-directional uni-line CMP with ``r = p*q``
cores by embedding the line into the grid as a snake.  Theorem 1's DP then
computes the *optimal* energy for this restricted platform:

``E(G, k) = min over admissible G' of  E(G', k-1) (+) Ecal(G \\ G')``

where admissible subgraphs are the order ideals of the SPG, ``Ecal`` maps a
cluster to one core at its energy-optimal feasible speed, the prefix cut
must fit the link bandwidth, and ``(+)`` charges ``E_bit`` for every byte
crossing the link (each physical snake link carries the cut of the prefix
before it, so an edge spanning several positions pays once per hop,
consistently with Section 3.5).  The DP runs over the ideals one popcount
layer at a time, as numpy batches, for graphs of any width.

Each ideal's row holds only the band of cluster counts from which the
sink is still reachable within ``r`` clusters, given that no cluster
outweighs what the fastest speed runs in one period; the proof that
this changes no output is in :meth:`_UnilineDP.solve`.  The walk-back
prices all of an ideal's suffix clusters in one array expression and
takes the first, in DFS order, that meets the DP's entry.

The number of ideals is bounded by ``n^ymax``; like the paper we let the
heuristic *fail* when the state space explodes (budget caps), which is
exactly its reported behaviour on high-elevation workflows.  Both
budgets are decided on the SP decomposition tree where they can be,
before anything is enumerated: the exact ideal count, then a lower bound
on the DP transitions
(:func:`~repro.spg.decompose.transition_lower_bound`); a lattice the
bound cannot reject is enumerated, and its suffix-cluster enumeration
fails as soon as it crosses the transition budget.  For linear chains
(and for any SPG when communications are free) DPA1D is optimal among
all mappings.

The solve reads only the graph, the period, the base power model, ``r``,
the budgets and the kernel, so :func:`solve_uniline` memoises it on the
graph under that key: every fabric with ``r`` cores, hetmesh included
(its ``grid.model`` is the base model), lays out one shared solve.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from repro.core.errors import HeuristicFailure
from repro.core.kernels import resolve_kernel, suffix_forest
from repro.core.mapping import Mapping
from repro.core.partition import IdealLattice
from repro.core.problem import ProblemInstance
from repro.heuristics.base import register, shared_solve
from repro.spg.decompose import ideal_count
from repro.util.bitset import bits_of, join_words

__all__ = ["dpa1d_mapping", "solve_uniline"]

INF = float("inf")

#: Transitions per DP batch on a wide graph (n > 62): a batch ends at the
#: first ideal that reaches this many, and never spans two popcount
#: layers, so the DP's per-batch arrays stay a few MB while the lattice
#: streams through the suffix forest.
WIDE_CHUNK = 32_768


class _UnilineDP:
    """State shared between the forward DP pass and the reconstruction."""

    def __init__(
        self,
        problem: ProblemInstance,
        r: int,
        ideal_budget: int,
        kernel=None,
    ):
        self.spg = problem.spg
        self.model = problem.grid.model
        self.T = problem.period
        self.r = min(r, self.spg.n)
        self.cap_work = self.T * self.model.s_max
        self.cap_bytes = self.model.link_capacity(self.T)
        self.lookup = self.model.speed_lookup(self.T)
        # The lattice (ideal enumeration, suffix table) depends on the
        # SPG's stages, edges and weights only, so it is shared across the
        # several periods choose_period probes on the same graph, and
        # across the graphs that differ from it in their volumes alone.
        # The cut volumes come from this graph (see _edge_cuts).
        self.lat = IdealLattice.for_spg(
            self.spg, budget=ideal_budget, kernel=kernel
        )
        # B[row, k] = optimal energy of the ideal at ``row`` on exactly k
        # clusters, inf outside the ideal's band of cluster counts (see
        # solve); row 0 is the empty ideal (column 0 is only finite
        # there) and the last row the full one.  words[:, row] is the
        # ideal's mask, cuts[row] its cut volume, and suffix(row) its
        # suffix clusters as (prefix rows, works) in DFS order.
        self.B: np.ndarray | None = None
        self.words = self.cuts = self.suffix = None

    def solve(self, transition_budget: int) -> tuple[float, int]:
        """Forward pass; returns (optimal energy, optimal cluster count).

        The DP walks the ideals layer by layer over popcount classes:
        every prefix of a layer-``c`` ideal lies in an earlier layer, so
        each batch of transitions sees finalised predecessor rows only.
        Every per-transition quantity -- prefix row, cluster energy,
        boundary cost, ``k``-vector min -- is a numpy array operation
        that reproduces the scalar arithmetic IEEE-exactly.  The batches
        come from one of two sources: slices of the lattice's flat
        suffix table for word-sized graphs (n <= 62), or the lattice's
        suffix stream for wider graphs, which runs the multi-word suffix
        forest over chunks of ideals and reads each prefix row off the
        lattice's step table; both enumerate in bulk and never one ideal
        at a time.

        **The band.**  Only the cluster counts that can reach the sink
        are computed.  Let ``c = limits[-1] * (1 + 1e-9)``, the heaviest
        work any speed admits at ``T`` with a margin, ``w(I)`` the work
        of ideal ``I`` and ``W`` the graph's.  Every cluster weighs at
        most ``T * s_max < c``, so an ideal on ``k`` clusters has
        ``k >= ceil(w(I) / c)``, and one that the sink can still be
        reached from within ``r`` clusters has ``k <= r - ceil((W -
        w(I)) / c)``.  Row ``I`` computes only that band (each batch the
        union of its rows' bands) and holds ``inf`` outside it, so ``B``
        does not depend on how the batches are cut.  The outputs cannot
        change:

        * *In-band entries read only in-band or naturally infinite
          prefix entries.*  ``B[I, k]`` reads ``B[P, k - 1]`` for ``P =
          I \\ C``; ``w(C) < c`` gives ``ceil((W - w(P)) / c) <= ceil((W
          - w(I)) / c) + 1``, so ``k - 1`` is not above ``P``'s band, and
          an entry below a band is ``inf`` in any DP (no ``k - 1``
          clusters hold ``P``).  By induction over the layers every
          in-band entry is the unbanded DP's, the sink's row included,
          and so are the energy and the cluster count.
        * *Every entry on a walk-back path is in its band.*  A prefix
          the walk-back accepts at ``k - 1`` is finite, and real clusters
          lead from it to the sink in ``k_best - k + 1 <= r - k + 1``
          steps, so it lies in its band; the candidates before it in DFS
          order hold their unbanded value or ``inf``, and are rejected
          as before.  The walk-back picks the same clusters.

        ``w(I)`` is summed in any order: when the sink is reachable,
        ``W <= r * T * s_max``, so each ``w(I) / c`` is off by less
        than ``r * n * 2**-52``, far inside the ``1e-9`` margin; when it
        is not, the sink's row is ``inf`` either way.

        The source is asked for first: it checks the ideal budget and
        then the SP-tree transition bound before enumerating the ideals,
        so a lattice the bound proves over ``transition_budget`` fails
        with no enumeration at all.  A graph with no SP count, or over
        the ideal budget, goes through :meth:`IdealLattice.ideals` first
        (the search, or the ideal-budget failure), as before: an
        ideal-budget failure still comes from ``ideals()`` and a
        transition failure from the suffix source, so a trace of the
        lattice's methods tells the two apart.  Every batch is still
        drawn, so a stream over its budget fails whatever the band.
        """
        lat = self.lat
        count = ideal_count(self.spg)
        if count is None or count > lat.budget:
            lat.ideals()  # may raise BudgetExceeded
        source = (
            self._table_source if self.spg.n <= 62 else self._wide_source
        )
        words, self.suffix, batches = source(transition_budget)
        self.words = words
        cuts = self.cuts = _edge_cuts(self.spg, words)
        r = self.r
        B = self.B = np.full((words.shape[1], r + 1), INF)
        full_row = words.shape[1] - 1
        B[0, 0] = 0.0
        c = self.lookup.limits[-1] * (1 + 1e-9)
        work = _ideal_works(self.spg.weights, words)
        k_lo = np.maximum(np.ceil(work / c), 1).astype(np.intp)
        k_hi = r - np.ceil((work[-1] - work) / c).astype(np.intp)
        for rows, counts, prows, W in batches:
            lo, hi = k_lo[rows], k_hi[rows]
            # Dead-end pruning: an ideal whose cut exceeds the link
            # capacity can never be extended, so its row stays inf unless
            # it is the final state.  (Its enumeration still counted
            # towards the transition budget.)  Nor is an ideal computed
            # whose band is empty.
            alive = (counts > 0) & (lo <= hi) & (
                (cuts[rows] <= self.cap_bytes) | (rows == full_row)
            )
            if not alive.any():
                continue
            keep = np.repeat(alive, counts)
            prows, W = prows[keep], W[keep]
            rows, lo, hi = rows[alive], lo[alive], hi[alive]
            a, b = int(lo.min()), int(hi.max())
            costs, _k = self._costs(prows, W)
            cand = B[prows, a - 1:b] + costs[:, None]
            seg = counts[alive]
            starts = np.zeros(len(seg), dtype=np.intp)
            np.cumsum(seg[:-1], out=starts[1:])
            best = np.minimum.reduceat(cand, starts, axis=0)
            ks = np.arange(a, b + 1)
            best[(ks < lo[:, None]) | (ks > hi[:, None])] = INF
            B[rows, a:b + 1] = best
        return self._finish(B[full_row])

    def _table_source(self, transition_budget: int):
        """``(words, suffix, batches)`` for a word-sized graph (n <= 62):
        one batch per popcount layer, sliced from the flat suffix table.

        The lattice keeps one table at the loosest cap seen and serves
        tighter caps as filtered copies.  A run destined to blow its
        transition budget raises in :meth:`IdealLattice.suffix_table`
        without any DP work: before enumerating anything when the
        SP-tree bound proves it, otherwise as soon as the enumeration
        crosses the budget, or from a kept table's exact total.  Rows
        and prefix rows index :meth:`IdealLattice.sorted_values`, so the
        empty ideal is row 0 and the full one the last; ``suffix(row)``
        is the ideal's slice of the same table.
        """
        lat = self.lat
        _M, W, counts, offsets, pidx, _total = lat.suffix_table(
            self.cap_work, transition_budget
        )
        _ideal_vals, epos = lat.ideal_positions()
        batches = (
            (epos[lo:hi], counts[lo:hi], pidx[offsets[lo]:offsets[hi]],
             W[offsets[lo]:offsets[hi]])
            for lo, hi in _layers(lat.ideals())
        )
        slot = np.empty_like(epos)
        slot[epos] = np.arange(len(epos))

        def suffix(row: int):
            lo, hi = offsets[slot[row]], offsets[slot[row] + 1]
            return pidx[lo:hi], W[lo:hi]

        return lat.sorted_values()[None, :], suffix, batches

    def _wide_source(self, transition_budget: int):
        """``(words, suffix, batches)`` for a graph of any width: rows
        are :meth:`IdealLattice.ideals` indices (the empty ideal first,
        the full one last) and the batches are cut from
        :meth:`IdealLattice.suffix_stream`.

        A batch never spans two popcount layers, so every prefix row is
        final before it is read, and it ends at the first ideal that
        brings it to :data:`WIDE_CHUNK` transitions, so the DP's
        per-batch arrays stay small while the stream moves on.
        ``suffix(row)`` runs the same forest on that one ideal.
        """
        lat = self.lat
        stream = lat.suffix_stream(self.cap_work, transition_budget)
        layer_ends = np.array([hi for _lo, hi in _layers(lat.ideals())])
        batches = (
            batch
            for lo, hi, counts, pidx, W in stream
            for batch in _dp_batches(lo, hi, counts, pidx, W, layer_ends)
        )
        words = lat.ideal_words()

        def suffix(row: int):
            prows, W, _counts = suffix_forest(
                lat, words[:, row:row + 1], self.cap_work, root_rows=[row]
            )
            return prows, W

        return words, suffix, batches

    def _costs(self, prows, W) -> tuple[np.ndarray, np.ndarray]:
        """``(costs, k)`` of clusters of work ``W`` appended after the
        prefixes at ``prows``: one core at speed index ``k`` plus the
        dynamic cost of the prefix cut, in the scalar order (comm energy
        is ``(8.0 * cut) * e_bit``), for the forward pass and the
        walk-back alike."""
        model = self.model
        k = self.lookup.indices(W)
        comp = model.comp_leak * self.T + (
            W / np.array(model.speeds)[k]
        ) * np.array(model.dyn_power)[k]
        return comp + 8.0 * self.cuts[prows] * model.e_bit, k

    def _finish(self, final: np.ndarray) -> tuple[float, int]:
        if not np.isfinite(final[1:]).any():
            raise HeuristicFailure("DPA1D: no feasible clustering")
        k_best = int(np.argmin(final[1:])) + 1
        return float(final[k_best]), k_best

    def reconstruct(self, k_best: int) -> tuple[list[list[int]], list[float]]:
        """Walk back through the DP from the full ideal on ``k_best``
        clusters.  At each ideal, every suffix cluster is priced in one
        array expression, with the DP's own arithmetic, and the first in
        DFS order whose prefix row plus its cost meets the ideal's entry
        (to a relative ``1e-12``) is taken."""
        words, B = self.words, self.B
        clusters_rev: list[list[int]] = []
        speeds_rev: list[float] = []
        row, k = words.shape[1] - 1, k_best
        while row:
            prows, W = self.suffix(row)
            costs, s = self._costs(prows, W)
            hits = np.flatnonzero(
                B[prows, k - 1] + costs <= B[row, k] * (1 + 1e-12) + 1e-30
            )
            if not hits.size:  # pragma: no cover - numerical safety net
                raise HeuristicFailure("DPA1D: reconstruction failed")
            j = hits[0]
            prefix = int(prows[j])
            cluster = words[:, row:row + 1] ^ words[:, prefix:prefix + 1]
            clusters_rev.append(bits_of(join_words(cluster)[0]))
            speeds_rev.append(self.model.speeds[s[j]])
            row, k = prefix, k - 1
        return clusters_rev[::-1], speeds_rev[::-1]


def _edge_cuts(spg, words) -> np.ndarray:
    """Cut volumes of the ideals in ``words``, a ``(words, N)`` ``uint64``
    array: one masked add per edge in ``edge_list`` order, so each cut
    sums exactly like :func:`repro.spg.analysis.cut_volume`."""
    one = np.uint64(1)

    def bit(i):
        return (words[i >> 6] >> np.uint64(i & 63)) & one

    cuts = np.zeros(words.shape[1])
    for i, j, d in spg.edge_list:
        cuts[(bit(i) == 1) & (bit(j) == 0)] += d
    return cuts


def _ideal_works(weights, words) -> np.ndarray:
    """Work of every ideal in ``words``, a ``(words, N)`` ``uint64``
    array, eight stages at a time through a 256-entry table of their
    subset sums (the band of :meth:`_UnilineDP.solve` admits any float
    order)."""
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    work = np.zeros(words.shape[1])
    for lo in range(0, len(weights), 8):
        chunk = weights[lo:lo + 8]
        table = bits[:, :len(chunk)] @ np.array(chunk)
        work += table[(words[lo >> 6] >> np.uint64(lo & 63)) & np.uint64(255)]
    return work


def _layers(ideals: list[int]):
    """``(lo, hi)`` bounds of the popcount classes of ``ideals``, which
    :meth:`IdealLattice.ideals` returns sorted by popcount."""
    lo = 0
    for _count, layer in groupby(ideals, int.bit_count):
        hi = lo + sum(1 for _ in layer)
        yield lo, hi
        lo = hi


def _dp_batches(lo, hi, counts, pidx, W, layer_ends):
    """Split the streamed ideals ``[lo, hi)`` into DP batches ``(rows,
    counts, prows, W)``: cut at every popcount-layer end, and after the
    first ideal that brings a batch to :data:`WIDE_CHUNK` transitions."""
    offs = np.zeros(hi - lo + 1, dtype=np.intp)
    np.cumsum(counts, out=offs[1:])
    inner = layer_ends[(layer_ends > lo) & (layer_ends < hi)] - lo
    a = 0
    for stop in (*inner.tolist(), hi - lo):
        while a < stop:
            b = min(int(np.searchsorted(offs, offs[a] + WIDE_CHUNK)), stop)
            yield (np.arange(lo + a, lo + b), counts[a:b],
                   pidx[offs[a]:offs[b]], W[offs[a]:offs[b]])
            a = b


def solve_uniline(
    problem: ProblemInstance,
    r: int,
    ideal_budget: int = 120_000,
    transition_budget: int = 1_000_000,
    kernel=None,
) -> tuple[float, list[list[int]], list[float]]:
    """Optimal clustering of ``problem.spg`` on a 1 x ``r`` uni-directional line.

    Returns ``(energy, clusters, speeds)`` with clusters in line order.
    Raises :class:`HeuristicFailure` (or its subclass
    :class:`BudgetExceeded`) when the ideal lattice or the transition count
    exceeds its budget, or when no feasible clustering exists.
    ``kernel`` picks the enumeration kernel (byte-identical results; see
    :mod:`repro.core.kernels`); ``None`` uses the ambient default.
    """

    def solve():
        dp = _UnilineDP(problem, r, ideal_budget, kernel=kernel)
        e, k_best = dp.solve(transition_budget)
        clusters, speeds = dp.reconstruct(k_best)
        return e, clusters, speeds

    key = ("dpa1d.solve", problem.period, problem.grid.model, r,
           ideal_budget, transition_budget, resolve_kernel(kernel).name)
    return shared_solve(problem.spg, key, solve)


@register("DPA1D")
def dpa1d_mapping(
    problem: ProblemInstance,
    rng=None,
    ideal_budget: int = 120_000,
    transition_budget: int = 1_000_000,
    kernel=None,
) -> Mapping:
    """Optimal 1D clustering mapped along the topology's line embedding.

    On the mesh this is the snake of Section 5.4 (and the DP is optimal
    for the uni-line platform); on other fabrics the clusters are laid
    along :meth:`Topology.line_order` and routed with
    :meth:`Topology.line_path`.  On heterogeneous platforms the DP runs
    on the base speed set and each cluster's speed is refitted to its
    actual core afterwards (failing if the core is too slow).
    """
    grid = problem.grid
    spg = problem.spg
    _, clusters, speeds = solve_uniline(
        problem, grid.n_cores, ideal_budget, transition_budget, kernel
    )
    order = grid.line_order()
    het = grid.heterogeneous
    alloc: dict[int, tuple[int, int]] = {}
    speed_map: dict[tuple[int, int], float] = {}
    position: dict[int, int] = {}
    for t, cluster in enumerate(clusters):
        core = order[t]
        if het:
            work = sum(spg.weights[i] for i in cluster)
            s = grid.core_model(core).best_feasible(work, problem.period)
            if s is None:
                raise HeuristicFailure(
                    f"DPA1D: cluster {t} misses the period on scaled "
                    f"core {core}"
                )
            speed_map[core] = s
        else:
            speed_map[core] = speeds[t]
        for stage in cluster:
            alloc[stage] = core
            position[stage] = t
    paths = {}
    for (i, j) in spg.edges:
        a, b = position[i], position[j]
        if a != b:
            paths[(i, j)] = grid.line_path(a, b)
    return Mapping(spg, grid, alloc, speed_map, paths)
