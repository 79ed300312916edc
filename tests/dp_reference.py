"""Reference copies of the DP heuristics as they were before the
layered DPA1D loop and the per-graph DPA2D blocks.

``ScalarUnilineDP`` is the per-ideal DPA1D dynamic program, with its
per-mask ``ecal`` cache and its dict of DP rows; it reads cut volumes
from :func:`repro.spg.analysis.cut_volume`, memoised per mask as the
lattice once did.  ``ReferenceDpa2dSolver``
is the DPA2D solver that built its blocks per solver and evaluated
clusters lazily.  The equivalence tests run both beside the library
solvers and require identical outputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.errors import BudgetExceeded, HeuristicFailure
from repro.core.partition import IdealLattice
from repro.core.problem import ProblemInstance
from repro.heuristics.dpa2d import ColumnPlan, Distribution
from repro.spg.analysis import ancestor_masks, cut_volume, descendant_masks
from repro.util.bitset import bits_of

INF = float("inf")

_MISS = object()


class ScalarUnilineDP:
    """The per-ideal DPA1D dynamic program and its reconstruction."""

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
        self._cut: dict[int, float] = {}
        # best[ideal][k] = optimal energy of ideal on exactly k clusters;
        # index 0 is only finite for the empty ideal.
        self.best: dict[int, np.ndarray] = {}

    def _row(self, ideal: int) -> np.ndarray | None:
        """The DP row of ``ideal`` (None when unreachable)."""
        return self.best.get(ideal)

    def cut(self, prefix: int) -> float:
        c = self._cut.get(prefix)
        if c is None:
            c = self._cut[prefix] = cut_volume(self.spg, prefix)
        return c

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

    def _finish(self, final: np.ndarray | None) -> tuple[float, int]:
        if final is None or not np.isfinite(final[1:]).any():
            raise HeuristicFailure("DPA1D: no feasible clustering")
        k_best = int(np.argmin(final[1:])) + 1
        return float(final[k_best]), k_best

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
        self.cut(0)  # the empty prefix (cut 0)
        cut_get = self._cut.get
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
            # Dead-end pruning: a prefix whose cut overflows the link
            # can never be extended.
            cutv = self.cut(ideal)
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


class _ColumnResult(NamedTuple):
    energy: float
    dout: Distribution
    plan: ColumnPlan


class _Block:
    """Static data of a level block ``m1 <= x <= m2`` (cached per block).

    Per-row aggregates (work prefix sums, stage-mask prefixes, reachability
    unions) make :meth:`cluster` O(rows) instead of O(stages): the stage
    set of a row range is a prefix-mask difference and its convexity check
    unions precomputed per-row ancestor/descendant masks.
    """

    def __init__(self, solver: "ReferenceDpa2dSolver", m1: int, m2: int) -> None:
        spg = solver.spg
        labels = spg.labels
        self.m1, self.m2 = m1, m2
        self.stages = [
            i for i in range(spg.n) if m1 <= labels[i][0] <= m2
        ]
        ys = [labels[i][1] for i in self.stages]
        self.ymax = max(ys) if ys else 0
        self.rows: dict[int, list[int]] = {}
        for i in self.stages:
            self.rows.setdefault(labels[i][1], []).append(i)
        # Internal edges spanning distinct rows (vertical traffic) and
        # edges leaving the block to later levels, from the solver's
        # precomputed flat edge array (one pass, no per-block stage set).
        v_edges = []
        out_edges = []
        for i, j, d, xi, yi, xj, yj in solver.edges_info:
            if m1 <= xi <= m2:
                if xj > m2:
                    out_edges.append((i, j, d))
                elif xj >= m1 and yi != yj:
                    v_edges.append((yi, yj, d))
        self.v_edges = v_edges
        self.out_edges = out_edges
        # Row prefix aggregates, index g = rows 1..g (0 empty).
        gmax = self.ymax
        desc, anc, weights = solver.desc, solver.anc, spg.weights
        pmask = [0] * (gmax + 1)
        pwork = [0.0] * (gmax + 1)
        row_desc = [0] * (gmax + 1)
        row_anc = [0] * (gmax + 1)
        for g in range(1, gmax + 1):
            row = self.rows.get(g, ())
            rm = rd = ra = 0
            rw = 0.0
            for i in row:
                rm |= 1 << i
                rw += weights[i]
                rd |= desc[i]
                ra |= anc[i]
            pmask[g] = pmask[g - 1] | rm
            pwork[g] = pwork[g - 1] + rw
            row_desc[g] = rd
            row_anc[g] = ra
        self._pmask = pmask
        self._pwork = pwork
        self._row_desc = row_desc
        self._row_anc = row_anc
        # cluster cache: (g1, g2] -> (energy, speed, work) or None
        self._cluster: dict[tuple[int, int], tuple[float, float] | None] = {}
        self._solver = solver

    def stages_of(self, g1: int, g2: int) -> list[int]:
        """Stages of rows ``g1 < y <= g2`` in row-major order (as the
        original mapping assembly produced them)."""
        return [
            i for y in range(g1 + 1, g2 + 1) for i in self.rows.get(y, [])
        ]

    def cluster(self, g1: int, g2: int) -> tuple[float, float] | None:
        """(energy, speed) of rows ``g1 < y <= g2`` on one core, or None.

        None signals infeasibility: the work misses the period at top speed
        or the cluster is not convex in the full SPG.  An empty row range is
        free (core stays off).
        """
        key = (g1, g2)
        if key in self._cluster:
            return self._cluster[key]
        mask = self._pmask[g2] & ~self._pmask[g1]
        solver = self._solver
        if not mask:
            val: tuple[float, float] | None = (0.0, 0.0)
        else:
            work = self._pwork[g2] - self._pwork[g1]
            s = solver.model.best_feasible(work, solver.T)
            if s is None:
                val = None
            else:
                below = above = 0
                row_desc, row_anc = self._row_desc, self._row_anc
                for g in range(g1 + 1, g2 + 1):
                    below |= row_desc[g]
                    above |= row_anc[g]
                if (below & above) & ~mask:
                    val = None  # an outside stage sits on an inside path
                else:
                    val = (solver.model.comp_energy(work, s, solver.T), s)
        self._cluster[key] = val
        return val


class ReferenceDpa2dSolver:
    """Solves the DPA2D placement on a virtual ``p x q`` grid."""

    def __init__(self, problem: ProblemInstance, p: int, q: int) -> None:
        self.spg = problem.spg
        self.model = problem.grid.model
        self.T = problem.period
        self.p, self.q = p, q
        self.cap_work = self.T * self.model.s_max
        self.cap_bytes = self.model.link_capacity(self.T)
        self.desc = descendant_masks(self.spg)
        self.anc = ancestor_masks(self.spg)
        self.xmax = self.spg.xmax
        self.ymax = self.spg.ymax
        # Flat edge array with both endpoint labels, hoisted out of the
        # per-block scans (same order as the edges dict).
        labels = self.spg.labels
        self.edges_info = tuple(
            (i, j, d, labels[i][0], labels[i][1], labels[j][0], labels[j][1])
            for i, j, d in self.spg.edge_list
        )
        # Level weights for feasibility pruning of outer transitions.
        self.level_work = [0.0] * (self.xmax + 1)
        for i in range(self.spg.n):
            self.level_work[self.spg.labels[i][0]] += self.spg.weights[i]
        self._blocks: dict[tuple[int, int], _Block] = {}
        # Inner-DP results are pure functions of (block, incoming
        # distribution); the outer DP re-probes the same block with the
        # same distribution from many predecessor states.
        self._columns: dict[tuple[int, int, Distribution], _ColumnResult | None] = {}

    # ------------------------------------------------------------------
    def block(self, m1: int, m2: int) -> _Block:
        key = (m1, m2)
        blk = self._blocks.get(key)
        if blk is None:
            blk = _Block(self, m1, m2)
            self._blocks[key] = blk
        return blk

    def h_cost(self, d: Distribution) -> float:
        """Cost of crossing one column boundary with distribution ``d``.

        Per-row traffic must fit the horizontal link bandwidth; the energy
        is one hop for every byte.
        """
        per_row: dict[int, float] = {}
        total = 0.0
        for row, _dest, b in d:
            per_row[row] = per_row.get(row, 0.0) + b
            total += b
        if any(v > self.cap_bytes for v in per_row.values()):
            return INF
        return self.model.comm_energy(total)

    # ------------------------------------------------------------------
    def column(self, m1: int, m2: int, din: Distribution) -> _ColumnResult | None:
        """Inner DP result for levels ``m1..m2`` and incoming ``din`` (memoised)."""
        key = (m1, m2, din)
        hit = self._columns.get(key, _MISS)
        if hit is _MISS:
            hit = self._columns[key] = self._column_impl(m1, m2, din)
        return hit

    def _column_impl(
        self, m1: int, m2: int, din: Distribution
    ) -> _ColumnResult | None:
        """Inner DP: map levels ``m1..m2`` onto the ``p`` cores of a column."""
        blk = self.block(m1, m2)
        if not blk.stages:
            return None
        spg, p = self.spg, self.p
        # Split the incoming distribution into deliveries (dest in block,
        # with its destination row) and pass-through entries.
        deliveries: list[tuple[int, int, float]] = []  # (entry_row, y_dest, b)
        passthrough: list[tuple[int, int, float]] = []
        for row, dest, b in din:
            x, y = spg.labels[dest]
            if m1 <= x <= m2:
                deliveries.append((row, y, b))
            else:
                passthrough.append((row, dest, b))

        gmax = blk.ymax

        def boundary_cost(w: int, gcut: int) -> float:
            """Vertical traffic crossing the link between cores w-1 and w.

            ``gcut`` is the label-row cut: rows <= gcut live on cores < w.
            Down-traffic and up-traffic are checked separately against the
            per-direction bandwidth.
            """
            down = up = 0.0
            for a, yd, b in deliveries:
                if a <= w - 1 and yd > gcut:
                    down += b
                elif a >= w and yd <= gcut:
                    up += b
            for ys, yd, dvol in blk.v_edges:
                if ys <= gcut < yd:
                    down += dvol
                elif yd <= gcut < ys:
                    up += dvol
            if down > self.cap_bytes or up > self.cap_bytes:
                return INF
            return self.model.comm_energy(down + up)

        bcost_cache: dict[tuple[int, int], float] = {}

        def bcost(w: int, gcut: int) -> float:
            key = (w, gcut)
            v = bcost_cache.get(key)
            if v is None:
                v = boundary_cost(w, gcut)
                bcost_cache[key] = v
            return v

        # E2[g][u]: rows 1..g on cores 0..u-1.  par[g][u] = previous g.
        E2 = [[INF] * (p + 1) for _ in range(gmax + 1)]
        par = [[-1] * (p + 1) for _ in range(gmax + 1)]
        E2[0][0] = 0.0
        for u in range(1, p + 1):
            for g in range(gmax + 1):
                best, arg = INF, -1
                for g2 in range(g + 1):
                    prev = E2[g2][u - 1]
                    if prev == INF:
                        continue
                    cl = blk.cluster(g2, g)
                    if cl is None:
                        continue
                    vcost = bcost(u - 1, g2) if u >= 2 else 0.0
                    if vcost == INF:
                        continue
                    tot = prev + cl[0] + vcost
                    if tot < best:
                        best, arg = tot, g2
                E2[g][u] = best
                par[g][u] = arg

        def tail_cost(u: int) -> float:
            """Vertical hops above the last used core (entry rows >= u)."""
            cost = 0.0
            for w in range(u, p):
                t = sum(b for a, _yd, b in deliveries if a >= w)
                if t > self.cap_bytes:
                    return INF
                cost += self.model.comm_energy(t)
            return cost

        best_u, best_e = -1, INF
        for u in range(1, p + 1):
            if E2[gmax][u] == INF:
                continue
            e = E2[gmax][u] + tail_cost(u)
            if e < best_e:
                best_u, best_e = u, e
        if best_u < 0:
            return None

        # Reconstruct the row cuts; core u covers rows (cuts[u], cuts[u+1]].
        cuts = [0] * (best_u + 1)
        g = gmax
        for u in range(best_u, 0, -1):
            cuts[u] = g
            g = par[g][u]
        assert g == 0
        cores: list[tuple[tuple[int, ...], float] | None] = [None] * p
        core_of_row: dict[int, int] = {}
        for u in range(best_u):
            lo = cuts[u] if u > 0 else 0
            hi = cuts[u + 1]
            stages = tuple(blk.stages_of(lo, hi))
            for y in range(lo + 1, hi + 1):
                core_of_row[y] = u
            if stages:
                cl = blk.cluster(lo, hi)
                assert cl is not None
                cores[u] = (stages, cl[1])

        # Outgoing distribution: pass-through plus the block's own exits.
        agg: dict[tuple[int, int], float] = {}
        for row, dest, b in passthrough:
            agg[(row, dest)] = agg.get((row, dest), 0.0) + b
        for i, j, d in blk.out_edges:
            row = core_of_row[spg.labels[i][1]]
            agg[(row, j)] = agg.get((row, j), 0.0) + d
        dout = tuple(
            (row, dest, b) for (row, dest), b in sorted(agg.items())
        )
        return _ColumnResult(best_e, dout, ColumnPlan(tuple(cores)))

    # ------------------------------------------------------------------
    def solve(self) -> tuple[float, list[ColumnPlan]]:
        """Outer DP over (level prefix, columns used)."""
        xmax, q = self.xmax, self.q
        prefix_work = [0.0] * (xmax + 1)
        for x in range(1, xmax + 1):
            prefix_work[x] = prefix_work[x - 1] + self.level_work[x]
        col_cap = self.p * self.cap_work

        # memo[(m, v)] = (energy, dout, (m', plan))
        memo: dict[tuple[int, int], tuple[float, Distribution, tuple]] = {}
        for v in range(1, q + 1):
            for m in range(v, xmax + 1):
                best: tuple[float, Distribution, tuple] | None = None
                lo = v - 1
                for m_prev in range(lo, m):
                    # Prune: the block's total work must fit the column.
                    if prefix_work[m] - prefix_work[m_prev] > col_cap:
                        continue
                    if v == 1:
                        if m_prev != 0:
                            continue
                        prev_e, din = 0.0, ()
                        h = 0.0
                    else:
                        prev = memo.get((m_prev, v - 1))
                        if prev is None:
                            continue
                        prev_e, din = prev[0], prev[1]
                        h = self.h_cost(din)
                        if h == INF:
                            continue
                    res = self.column(m_prev + 1, m, din)
                    if res is None:
                        continue
                    total = prev_e + h + res.energy
                    if best is None or total < best[0]:
                        best = (total, res.dout, (m_prev, res.plan))
                if best is not None:
                    memo[(m, v)] = best

        best_v, best_e = -1, INF
        for v in range(1, q + 1):
            entry = memo.get((xmax, v))
            if entry is not None and entry[0] < best_e:
                best_v, best_e = v, entry[0]
        if best_v < 0:
            raise HeuristicFailure("DPA2D: no feasible column decomposition")

        plans: list[ColumnPlan] = []
        m, v = xmax, best_v
        while v >= 1:
            _e, _d, (m_prev, plan) = memo[(m, v)]
            plans.append(plan)
            m, v = m_prev, v - 1
        plans.reverse()
        return best_e, plans


def reference_uniline(
    problem: ProblemInstance,
    r: int,
    ideal_budget: int = 120_000,
    transition_budget: int = 1_000_000,
) -> tuple[float, int, list[list[int]], list[float]]:
    """``(energy, k, clusters, speeds)`` of the scalar DPA1D DP."""
    dp = ScalarUnilineDP(problem, r, ideal_budget)
    ideals = dp.lat.ideals()
    e, k = dp._solve_scalar(ideals, transition_budget)
    clusters, speeds = dp.reconstruct(k)
    return e, k, clusters, speeds
