"""DPA1D (Sections 4.1 and 5.4): optimal 1D dynamic program on the snake.

The grid is configured as a uni-directional uni-line CMP with ``r = p*q``
cores by embedding the line into the grid as a snake.  Theorem 1's DP then
computes the *optimal* energy for this restricted platform:

``E(G, k) = min over admissible G' of  E(G', k-1) (+) Ecal(G \\ G')``

where admissible subgraphs are the order ideals of the SPG, ``Ecal`` maps a
cluster to one core at the slowest feasible speed, the prefix cut must fit
the link bandwidth, and ``(+)`` charges ``E_bit`` for every byte crossing
the link (each physical snake link carries the cut of the prefix before it,
so an edge spanning several positions pays once per hop, consistently with
Section 3.5).

The number of ideals is bounded by ``n^ymax``; like the paper we let the
heuristic *fail* when the state space explodes (budget caps), which is
exactly its reported behaviour on high-elevation workflows.  For linear
chains (and for any SPG when communications are free) DPA1D is optimal
among all mappings.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import BudgetExceeded, HeuristicFailure
from repro.core.mapping import Mapping
from repro.core.partition import IdealLattice
from repro.core.problem import ProblemInstance
from repro.heuristics.base import register
from repro.util.bitset import bits_of

__all__ = ["dpa1d_mapping", "solve_uniline"]

INF = float("inf")


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
        self._ecal: dict[int, tuple[float, float] | None] = {}
        # best[ideal][k] = optimal energy of ideal on exactly k+... index k
        # covers 0..r clusters (index 0 only finite for the empty ideal).
        # The scalar path stores rows in this dict; the vectorised path
        # (n <= 62) stores them as the matrix ``B`` indexed by the
        # value-sorted ideal array ``vals`` (all-inf row == not stored).
        self.best: dict[int, np.ndarray] = {}
        self.B: np.ndarray | None = None
        self.vals: np.ndarray | None = None

    def _row(self, ideal: int) -> np.ndarray | None:
        """The DP row of ``ideal`` (None when unreachable)."""
        if self.B is None:
            return self.best.get(ideal)
        pos = int(np.searchsorted(self.vals, ideal))
        row = self.B[pos]
        return row if np.isfinite(row).any() else None

    def cut(self, prefix: int) -> float:
        return self.lat.cut_volume(prefix)

    def ecal(self, cluster: int, work: float) -> tuple[float, float] | None:
        """(energy, speed) of one cluster on one core, or None if infeasible.

        ``work`` is the cluster's total weight, threaded through from the
        enumeration so it is never recomputed from the bitmask.
        """
        hit = self._ecal.get(cluster, 0)
        if hit != 0:
            return hit
        s = self.model.best_feasible(work, self.T)
        val = None if s is None else (self.model.comp_energy(work, s, self.T), s)
        self._ecal[cluster] = val
        return val

    def transition_cost(self, prefix: int, cluster: int, work: float) -> float:
        """Cost of appending ``cluster`` after ``prefix`` (inf if infeasible)."""
        ec = self.ecal(cluster, work)
        if ec is None:
            return INF
        cost = ec[0]
        if prefix:
            cb = self.cut(prefix)
            if cb > self.cap_bytes:
                return INF
            cost += self.model.comm_energy(cb)
        return cost

    def solve(self, transition_budget: int) -> tuple[float, int]:
        """Forward pass; returns (optimal energy, optimal cluster count).

        The transition loop is the hot path of the whole experiment
        harness.  For word-sized graphs (n <= 62) the DP runs layer by
        layer over popcount classes with every per-transition quantity —
        prefix lookup, cluster energy, boundary cost, ``k``-vector min —
        batched into numpy array operations; the element-wise operations
        reproduce the scalar arithmetic IEEE-exactly, so the results are
        bit-identical to the per-transition formulation (which remains as
        the fallback for larger graphs).
        """
        ideals = self.lat.ideals()  # may raise BudgetExceeded
        if self.lat.cut_table() is not None:
            return self._solve_vector(ideals, transition_budget)
        return self._solve_scalar(ideals, transition_budget)

    def _finish(self, final: np.ndarray | None) -> tuple[float, int]:
        if final is None or not np.isfinite(final[1:]).any():
            raise HeuristicFailure("DPA1D: no feasible clustering")
        k_best = int(np.argmin(final[1:])) + 1
        return float(final[k_best]), k_best

    def _solve_vector(
        self, ideals: list[int], transition_budget: int
    ) -> tuple[float, int]:
        r = self.r
        lat = self.lat
        model = self.model
        T = self.T
        cap_work = self.cap_work
        cap_bytes = self.cap_bytes
        full = lat.full
        vals, cuts = lat.cut_table()
        n_ideals = len(ideals)
        B = np.full((n_ideals, r + 1), INF)
        self.B, self.vals = B, vals
        B[int(np.searchsorted(vals, 0)), 0] = 0.0  # the empty ideal
        # Speed selection, vectorised: the scalar rule picks the first
        # feasible speed of strictly minimal energy-per-cycle, which is
        # exactly argmin over (epc if feasible else inf).
        speeds_arr = np.array(model.speeds)
        pw_arr = np.array(model.dyn_power)
        caps_arr = np.array([s * T * (1.0 + 1e-12) for s in model.speeds])
        epc_arr = np.array([pw / s for s, pw in zip(model.speeds, model.dyn_power)])
        leak = model.comp_leak * T
        e8 = 8.0  # comm energy is (8.0 * cut) * e_bit, kept in this order
        e_bit = model.e_bit

        # The flat transition table: every ideal's suffix clusters
        # concatenated in DP ideal order.  The lattice keeps one table at
        # the loosest cap seen and serves tighter caps as filtered
        # copies.  A run destined to blow its transition budget raises in
        # there without paying for any DP work; a surviving run slices
        # the flat buffer below with no per-ideal Python at all.
        M, W, counts, offsets, pidx, _total = lat.suffix_table(
            cap_work, transition_budget
        )
        if M.size == 0:
            return self._finish(self._row(full))
        ideal_vals, epos = lat.ideal_positions()
        # Per-transition costs, computed once for the whole lattice: the
        # cluster's one-core energy plus the dynamic cost of the prefix cut.
        feasible = W[:, None] <= caps_arr[None, :]
        epc = np.where(feasible, epc_arr[None, :], INF)
        k_sel = epc.argmin(axis=1)
        energy = leak + (W / speeds_arr[k_sel]) * pw_arr[k_sel]
        costs = energy + e8 * cuts[pidx] * e_bit
        # Dead-end pruning: an ideal whose cut exceeds the link capacity
        # can never be extended, so its row stays inf unless it is the
        # final state.  (Its enumeration still counted towards the budget
        # above, as in the unpruned DP.)
        alive = (counts > 0) & (
            (cuts[epos] <= cap_bytes) | (ideal_vals == np.uint64(full))
        )

        # Ideals are sorted by popcount: every prefix of a layer-c ideal
        # lies in a strictly earlier layer, so one batch per layer sees
        # finalised predecessor rows only.
        pos = 0
        while pos < n_ideals:
            c = ideals[pos].bit_count()
            end = pos
            while end < n_ideals and ideals[end].bit_count() == c:
                end += 1
            if c == 0:
                pos = end
                continue
            sel = alive[pos:end]
            if not sel.any():
                pos = end
                continue
            seg_counts = counts[pos:end][sel]
            keep = np.repeat(sel, counts[pos:end])
            t0, t1 = offsets[pos], offsets[end]
            pidx_l = pidx[t0:t1][keep]
            costs_l = costs[t0:t1][keep]
            cand = B[pidx_l, :r] + costs_l[:, None]
            starts = np.zeros(len(seg_counts), dtype=np.intp)
            np.cumsum(seg_counts[:-1], out=starts[1:])
            mins = np.minimum.reduceat(cand, starts, axis=0)
            B[epos[pos:end][sel], 1:] = mins
            pos = end
        final = self._row(full)
        return self._finish(final)

    def _solve_scalar(
        self, ideals: list[int], transition_budget: int
    ) -> tuple[float, int]:
        r = self.r
        lat = self.lat
        empty = np.full(r + 1, INF)
        empty[0] = 0.0
        self.best[0] = empty
        cap_work = self.cap_work
        cap_bytes = self.cap_bytes
        full = lat.full
        model = self.model
        T = self.T
        e_bit = model.e_bit
        best_get = self.best.get
        suffix_clusters = lat.suffix_clusters_weighted
        ecal = self.ecal
        lat.cut_volume(0)  # the empty prefix (cut 0)
        cut_volume = lat.cut_volume
        cut_get = lat._cut.get
        transitions = 0
        for ideal in ideals:
            if ideal == 0:
                continue
            clusters = suffix_clusters(ideal, cap_work)
            transitions += len(clusters)
            if transitions > transition_budget:
                raise BudgetExceeded(
                    f"DPA1D exceeded {transition_budget} DP transitions"
                )
            # Dead-end pruning, as in the vector path.
            cutv = cut_get(ideal)
            if cutv is None:
                cutv = cut_volume(ideal)
            if ideal != full and cutv > cap_bytes:
                continue
            prev_rows: list[np.ndarray] = []
            costs: list[float] = []
            for cluster, work in clusters:
                prefix = ideal ^ cluster  # cluster is an up-set of ideal
                prev = best_get(prefix)
                if prev is None:
                    continue
                # A stored prefix passed the dead-end check, so its cut fits
                # the link and the boundary cost is plain dynamic energy.
                ec = ecal(cluster, work)
                if ec is None:
                    continue
                prev_rows.append(prev)
                costs.append(ec[0] + 8.0 * cut_get(prefix) * e_bit)
            if not prev_rows:
                continue
            stacked = np.array(prev_rows)
            tail = (
                stacked[:, :-1] + np.asarray(costs)[:, None]
            ).min(axis=0)
            if not np.isfinite(tail).any():
                continue
            row = np.empty(r + 1)
            row[0] = INF
            row[1:] = tail
            self.best[ideal] = row
        return self._finish(self.best.get(full))

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
                cost = self.transition_cost(prefix, cluster, work)
                if cost == INF:
                    continue
                if prev[k - 1] + cost <= target * (1 + 1e-12) + 1e-30:
                    clusters_rev.append(bits_of(cluster))
                    speeds_rev.append(self.ecal(cluster, work)[1])
                    ideal, k = prefix, k - 1
                    found = True
                    break
            if not found:  # pragma: no cover - numerical safety net
                raise HeuristicFailure("DPA1D: reconstruction failed")
        return clusters_rev[::-1], speeds_rev[::-1]


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
