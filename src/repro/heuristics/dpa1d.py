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
from repro.core.kernels import resolve_kernel
from repro.core.mapping import Mapping
from repro.core.partition import IdealLattice
from repro.core.problem import ProblemInstance
from repro.heuristics.base import register, shared_solve
from repro.spg.decompose import ideal_count
from repro.util.bitset import bits_of, split_words

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
        # The lattice (ideal enumeration, suffix table) depends on the
        # SPG's stages, edges and weights only, so it is shared across the
        # several periods choose_period probes on the same graph, and
        # across the graphs that differ from it in their volumes alone.
        # The cut volumes come from this graph (see _edge_cuts).
        self.lat = IdealLattice.for_spg(
            self.spg, budget=ideal_budget, kernel=kernel
        )
        # B[row, k] = optimal energy of the ideal at ``row`` on exactly k
        # clusters (column 0 is only finite for the empty ideal); an
        # all-inf row is an unreachable ideal.  cuts[row] is the ideal's
        # cut volume, and rows_of maps a list of ideals to their rows.
        self.B: np.ndarray | None = None
        self.rows_of = self.cuts = None

    def _row(self, row: int) -> np.ndarray | None:
        """DP row ``row`` (None when its ideal is unreachable)."""
        values = self.B[row]
        return values if np.isfinite(values).any() else None

    def transition(
        self, prefix: int, prefix_row: int, work: float
    ) -> tuple[float, float] | None:
        """``(cost, speed)`` of a cluster of ``work`` appended after
        ``prefix`` (at DP row ``prefix_row``), or None when it misses
        the period or the link."""
        model = self.model
        s = model.best_feasible(work, self.T)
        if s is None:
            return None
        cost = model.comp_energy(work, s, self.T)
        if prefix:
            cb = self.cuts[prefix_row]
            if cb > self.cap_bytes:
                return None
            cost += model.comm_energy(cb)
        return cost, s

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
        forest over chunks of ideals and looks prefix rows up by exact
        key; both enumerate in bulk and never one ideal at a time.

        The source is asked for first: it checks the ideal budget and
        then the SP-tree transition bound before enumerating the ideals,
        so a lattice the bound proves over ``transition_budget`` fails
        with no enumeration at all.  A graph with no SP count, or over
        the ideal budget, goes through :meth:`IdealLattice.ideals` first
        (the search, or the ideal-budget failure), as before: an
        ideal-budget failure still comes from ``ideals()`` and a
        transition failure from the suffix source, so a trace of the
        lattice's methods tells the two apart.
        """
        lat = self.lat
        count = ideal_count(self.spg)
        if count is None or count > lat.budget:
            lat.ideals()  # may raise BudgetExceeded
        source = (
            self._table_source if self.spg.n <= 62 else self._wide_source
        )
        self.rows_of, cuts, batches = source(transition_budget)
        self.cuts = cuts
        r, model = self.r, self.model
        B = self.B = np.full((len(lat.ideals()), r + 1), INF)
        empty_row, full_row = self.rows_of([0, lat.full]).tolist()
        B[empty_row, 0] = 0.0
        speeds, power = np.array(model.speeds), np.array(model.dyn_power)
        leak = model.comp_leak * self.T
        lookup = model.speed_lookup(self.T)
        for rows, counts, prows, W in batches:
            # Dead-end pruning: an ideal whose cut exceeds the link
            # capacity can never be extended, so its row stays inf unless
            # it is the final state.  (Its enumeration still counted
            # towards the transition budget.)
            alive = (counts > 0) & (
                (cuts[rows] <= self.cap_bytes) | (rows == full_row)
            )
            if not alive.any():
                continue
            keep = np.repeat(alive, counts)
            prows, W = prows[keep], W[keep]
            k = lookup.indices(W)
            # One core's energy plus the dynamic cost of the prefix cut,
            # in the scalar order (comm energy is (8.0 * cut) * e_bit).
            costs = (leak + (W / speeds[k]) * power[k]) + (
                8.0 * cuts[prows] * model.e_bit
            )
            cand = B[prows, :r] + costs[:, None]
            seg = counts[alive]
            starts = np.zeros(len(seg), dtype=np.intp)
            np.cumsum(seg[:-1], out=starts[1:])
            B[rows[alive], 1:] = np.minimum.reduceat(cand, starts, axis=0)
        return self._finish(self._row(full_row))

    def _table_source(self, transition_budget: int):
        """``(rows_of, cuts, batches)`` for a word-sized graph (n <= 62):
        one batch per popcount layer, sliced from the flat suffix table.

        The lattice keeps one table at the loosest cap seen and serves
        tighter caps as filtered copies.  A run destined to blow its
        transition budget raises in :meth:`IdealLattice.suffix_table`
        without any DP work: before enumerating anything when the
        SP-tree bound proves it, otherwise as soon as the enumeration
        crosses the budget, or from a kept table's exact total.  Rows
        and prefix rows index :meth:`IdealLattice.sorted_values`, and so
        do the cuts.
        """
        lat = self.lat
        _M, W, counts, offsets, pidx, _total = lat.suffix_table(
            self.cap_work, transition_budget
        )
        vals = lat.sorted_values()
        _ideal_vals, epos = lat.ideal_positions()
        batches = (
            (epos[lo:hi], counts[lo:hi], pidx[offsets[lo]:offsets[hi]],
             W[offsets[lo]:offsets[hi]])
            for lo, hi in _layers(lat.ideals())
        )
        one = np.uint64(1)
        return (
            lambda masks: np.searchsorted(vals, np.array(masks, np.uint64)),
            _edge_cuts(
                self.spg, len(vals), lambda i: (vals >> np.uint64(i)) & one
            ),
            batches,
        )

    def _wide_source(self, transition_budget: int):
        """``(rows_of, cuts, batches)`` for a graph of any width: rows
        are DP indices (:meth:`IdealLattice.dp_rows`) and the batches are
        cut from :meth:`IdealLattice.suffix_stream`.

        A batch never spans two popcount layers, so every prefix row is
        final before it is read, and it ends at the first ideal that
        brings it to :data:`WIDE_CHUNK` transitions, so the DP's
        per-batch arrays stay small while the stream moves on.
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
        return (
            lambda masks: lat.dp_rows(split_words(masks, words.shape[0])),
            _edge_cuts(
                self.spg, words.shape[1],
                lambda i: (words[i >> 6] >> np.uint64(i & 63)) & np.uint64(1),
            ),
            batches,
        )

    def _finish(self, final: np.ndarray | None) -> tuple[float, int]:
        if final is None or not np.isfinite(final[1:]).any():
            raise HeuristicFailure("DPA1D: no feasible clustering")
        k_best = int(np.argmin(final[1:])) + 1
        return float(final[k_best]), k_best

    def reconstruct(self, k_best: int) -> tuple[list[list[int]], list[float]]:
        """Walk back through the DP by re-evaluating local transitions."""
        clusters_rev: list[list[int]] = []
        speeds_rev: list[float] = []
        ideal, k = self.lat.full, k_best
        row = int(self.rows_of([ideal])[0])
        while ideal:
            target = self._row(row)[k]
            found = False
            clusters = self.lat.suffix_clusters_weighted(ideal, self.cap_work)
            prefixes = [ideal & ~cluster for cluster, _work in clusters]
            prefix_rows = self.rows_of(prefixes).tolist()
            for (cluster, work), prefix, prefix_row in zip(
                clusters, prefixes, prefix_rows
            ):
                prev = self._row(prefix_row)
                if prev is None or not np.isfinite(prev[k - 1]):
                    continue
                step = self.transition(prefix, prefix_row, work)
                if step is None:
                    continue
                if prev[k - 1] + step[0] <= target * (1 + 1e-12) + 1e-30:
                    clusters_rev.append(bits_of(cluster))
                    speeds_rev.append(step[1])
                    ideal, k, row = prefix, k - 1, prefix_row
                    found = True
                    break
            if not found:  # pragma: no cover - numerical safety net
                raise HeuristicFailure("DPA1D: reconstruction failed")
        return clusters_rev[::-1], speeds_rev[::-1]


def _edge_cuts(spg, count: int, bit) -> np.ndarray:
    """Cut volumes of ``count`` ideals, ``bit(i)`` being the 0/1 array of
    stage ``i``'s membership: one masked add per edge in ``edge_list``
    order, so each cut sums exactly like
    :func:`repro.spg.analysis.cut_volume`."""
    cuts = np.zeros(count)
    for i, j, d in spg.edge_list:
        cuts[(bit(i) == 1) & (bit(j) == 0)] += d
    return cuts


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
