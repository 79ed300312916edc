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
exactly its reported behaviour on high-elevation workflows.  For linear
chains (and for any SPG when communications are free) DPA1D is optimal
among all mappings.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from repro.core.errors import BudgetExceeded, HeuristicFailure
from repro.core.mapping import Mapping
from repro.core.partition import IdealLattice
from repro.core.problem import ProblemInstance
from repro.heuristics.base import register
from repro.util.bitset import bits_of

__all__ = ["dpa1d_mapping", "solve_uniline"]

INF = float("inf")

#: Transitions a wide graph (n > 62) hands the DP per batch.
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
        # The lattice (ideal enumeration, cut volumes, suffix table) only
        # depends on the SPG, so it is shared across the several periods
        # choose_period probes on the same graph.
        self.lat = IdealLattice.for_spg(
            self.spg, budget=ideal_budget, kernel=kernel
        )
        # B[row_of(ideal), k] = optimal energy of ``ideal`` on exactly k
        # clusters (column 0 is only finite for the empty ideal); an
        # all-inf row is an unreachable ideal.  cuts[row_of(ideal)] is the
        # ideal's cut volume.
        self.B: np.ndarray | None = None
        self.row_of = self.cuts = None

    def _row(self, ideal: int) -> np.ndarray | None:
        """The DP row of ``ideal`` (None when unreachable)."""
        row = self.B[self.row_of(ideal)]
        return row if np.isfinite(row).any() else None

    def transition(
        self, prefix: int, work: float
    ) -> tuple[float, float] | None:
        """``(cost, speed)`` of a cluster of ``work`` appended after
        ``prefix``, or None when it misses the period or the link."""
        model = self.model
        s = model.best_feasible(work, self.T)
        if s is None:
            return None
        cost = model.comp_energy(work, s, self.T)
        if prefix:
            cb = self.cuts[self.row_of(prefix)]
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
        per-ideal suffix clusters for wider graphs.
        """
        lat = self.lat
        ideals = lat.ideals()  # may raise BudgetExceeded
        source = (
            self._table_source if lat.cut_table() is not None
            else self._wide_source
        )
        self.row_of, cuts, batches = source(ideals, transition_budget)
        self.cuts = cuts
        r, model = self.r, self.model
        B = self.B = np.full((len(ideals), r + 1), INF)
        B[self.row_of(0), 0] = 0.0
        full_row = self.row_of(lat.full)
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
        return self._finish(self._row(lat.full))

    def _table_source(self, ideals: list[int], transition_budget: int):
        """``(row_of, cuts, batches)`` for a word-sized graph (n <= 62):
        one batch per popcount layer, sliced from the flat suffix table.

        The lattice keeps one table at the loosest cap seen and serves
        tighter caps as filtered copies; a run destined to blow its
        transition budget raises in there without any DP work.  Rows
        and prefix rows index :meth:`IdealLattice.cut_table`.
        """
        lat = self.lat
        vals, cuts = lat.cut_table()
        _M, W, counts, offsets, pidx, _total = lat.suffix_table(
            self.cap_work, transition_budget
        )
        _ideal_vals, epos = lat.ideal_positions()
        batches = (
            (epos[lo:hi], counts[lo:hi], pidx[offsets[lo]:offsets[hi]],
             W[offsets[lo]:offsets[hi]])
            for lo, hi in _layers(ideals)
        )
        return (lambda ideal: int(np.searchsorted(vals, ideal))), cuts, batches

    def _wide_source(self, ideals: list[int], transition_budget: int):
        """``(row_of, cuts, batches)`` for a graph of any width, read ideal
        by ideal (see :meth:`_wide_batches`); rows are DP indices."""
        index = {ideal: k for k, ideal in enumerate(ideals)}
        batches = self._wide_batches(ideals, index, transition_budget)
        return index.__getitem__, self.lat.ideal_cuts(), batches

    def _wide_batches(
        self, ideals: list[int], index: dict[int, int], transition_budget: int
    ):
        """Batches of about :data:`WIDE_CHUNK` transitions read ideal by
        ideal through :meth:`IdealLattice.suffix_clusters_weighted`.

        A batch never spans two layers, so every prefix row is final
        before it is read, and no whole-lattice table is materialised.
        The transition budget is counted per ideal in DP order.
        """
        lat = self.lat
        cap = self.cap_work
        transitions = 0
        for lo, hi in _layers(ideals):
            if lo == 0:
                continue
            rows: list[int] = []
            counts: list[int] = []
            prows: list[int] = []
            works: list[float] = []
            for k in range(lo, hi):
                ideal = ideals[k]
                clusters = lat.suffix_clusters_weighted(ideal, cap)
                transitions += len(clusters)
                if transitions > transition_budget:
                    raise BudgetExceeded(
                        f"DPA1D exceeded {transition_budget} DP transitions"
                    )
                rows.append(k)
                counts.append(len(clusters))
                prows += [index[ideal ^ mask] for mask, _w in clusters]
                works += [w for _mask, w in clusters]
                if len(prows) >= WIDE_CHUNK or k == hi - 1:
                    yield (
                        np.array(rows, dtype=np.intp),
                        np.array(counts, dtype=np.intp),
                        np.array(prows, dtype=np.intp),
                        np.array(works),
                    )
                    rows, counts, prows, works = [], [], [], []

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
        while ideal:
            target = self._row(ideal)[k]
            found = False
            for cluster, work in self.lat.suffix_clusters_weighted(
                ideal, self.cap_work
            ):
                prefix = ideal & ~cluster
                prev = self._row(prefix)
                if prev is None or not np.isfinite(prev[k - 1]):
                    continue
                step = self.transition(prefix, work)
                if step is None:
                    continue
                if prev[k - 1] + step[0] <= target * (1 + 1e-12) + 1e-30:
                    clusters_rev.append(bits_of(cluster))
                    speeds_rev.append(step[1])
                    ideal, k = prefix, k - 1
                    found = True
                    break
            if not found:  # pragma: no cover - numerical safety net
                raise HeuristicFailure("DPA1D: reconstruction failed")
        return clusters_rev[::-1], speeds_rev[::-1]


def _layers(ideals: list[int]):
    """``(lo, hi)`` bounds of the popcount classes of ``ideals``, which
    :meth:`IdealLattice.ideals` returns sorted by popcount."""
    lo = 0
    for _count, layer in groupby(ideals, int.bit_count):
        hi = lo + sum(1 for _ in layer)
        yield lo, hi
        lo = hi


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
    dp = _UnilineDP(problem, r, ideal_budget, kernel=kernel)
    e, k_best = dp.solve(transition_budget)
    clusters, speeds = dp.reconstruct(k_best)
    return e, clusters, speeds


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
