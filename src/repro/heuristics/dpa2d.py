"""DPA2D (Section 5.3): double nested dynamic program on the label grid.

The SPG is first laid on the ``xmax x ymax`` grid given by its labels.  An
*outer* DP cuts the levels (``x`` values) into consecutive groups mapped to
columns of the CMP; an *inner* DP cuts each group's rows (``y`` values) into
consecutive ranges mapped to the cores of one column.

Communications follow XY routing: an edge leaving stage ``i`` exits its
column horizontally on ``i``'s physical row, passes through intermediate
columns on that same row, and moves vertically only inside the destination
column.  The outer DP threads a *distribution* ``D`` of outgoing
communications — triples ``(row, destination stage, bytes)`` — across column
boundaries; per the paper, only the best ``D`` per outer state is kept,
which is what makes DPA2D a heuristic.

Per-cluster DAG-partition convexity is enforced inside the inner DP
(``Ecal = +inf`` for non-convex clusters, as in the paper); the assembled
mapping is re-validated at the end and the heuristic fails on the rare
quotient cycle the local checks cannot see.

The solver reads only the graph, the period, the base power model and
the virtual ``p x q`` grid, so DPA2D and DPA2D1D solve through
:func:`solve_dpa2d`, memoised on the graph under ``(period, model, p,
q)``: the fabrics of a sweep share one solve per shape (ring's DPA2D is
DPA2D1D's ``(1, pq)``) and only place the plans on their own cores.

What reads no edge volume lives in the graph's shape cache
(:meth:`~repro.spg.graph.SPG.shape_cached`): the levels, the level
blocks, and per period the blocks' row-range cluster costs (``p > 1``)
and the one-core cost of every level range (``p == 1``, an ``(xmax,
xmax + 1)`` array; see :meth:`_Dpa2dSolver.line_costs`).  Copies that
differ only in their volumes, such as a StreamIt workflow's CCR
variants, build each once.  The outer DP prices a candidate column by
its energy alone, one array of candidates per round, and assembles the
outgoing distribution and plan only for the states it reads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.errors import HeuristicFailure, MappingError
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.heuristics.base import register, shared_solve
from repro.obs.session import inc
from repro.spg.analysis import ancestor_masks, descendant_masks

__all__ = ["dpa2d_mapping", "dpa2d1d_mapping", "solve_dpa2d"]

INF = float("inf")

_MISS = object()  # column-memo sentinel (None is a valid cached result)

#: A distribution of outgoing communications: ((row, dest_stage, bytes), ...)
Distribution = tuple[tuple[int, int, float], ...]


class ColumnPlan(NamedTuple):
    """One column's assignment: ``cores[u] = (stages tuple, speed)`` or None."""

    cores: tuple  # length p; entries: (tuple[int, ...], float) | None


class _Block:
    """Volume-free data of a level block ``m1 <= x <= m2``.

    Kept in the SPG's shape cache (see :meth:`_Dpa2dSolver.block`), so
    both solvers, every period probe and every copy of the graph that
    differs only in its volumes (a StreamIt workflow's CCR variants)
    share one instance.  It is built from per-level stage and edge lists
    kept in stage-index and ``edge_list`` order, so row work sums
    accumulate in the same float order as a scan of the whole graph.
    Edges are held by their ``edge_list`` position, and each solve reads
    its own graph's volumes there.  Per-row aggregates
    (work prefix sums, stage masks, reachability unions) let the solver
    cost a row range in O(rows).
    """

    def __init__(self, spg, m1: int, m2: int) -> None:
        level_stages, level_edges = _levels(spg)[:2]
        labels, weights = spg.labels, spg.weights
        stages: list[int] = []
        edges: list[tuple] = []
        for x in range(m1, min(m2, spg.xmax) + 1):
            stages += level_stages[x]
            edges += level_edges[x]
        stages.sort()
        edges.sort()  # edge_list order
        self.stages = stages
        self.rows: dict[int, list[int]] = {}
        for i in stages:
            self.rows.setdefault(labels[i][1], []).append(i)
        self.ymax = gmax = max(self.rows, default=0)
        # Internal edges spanning distinct rows (vertical traffic), as
        # (y_i, y_j, position), and edges leaving the block to later
        # levels, as (i, j, position).  Every edge increases x, so none
        # leaving a level of the block ends before it.
        self.v_pos: list[tuple[int, int, int]] = []
        self.out_pos: list[tuple[int, int, int]] = []
        for pos, i, j, yi, xj, yj in edges:
            if xj > m2:
                self.out_pos.append((i, j, pos))
            elif yi != yj:
                self.v_pos.append((yi, yj, pos))
        # Row aggregates, index g = row g (0 empty); pwork[g] sums rows
        # 1..g, and row_work_max is the heaviest row as the prefix
        # difference row ranges use.
        row_mask = [0] * (gmax + 1)
        pwork = [0.0] * (gmax + 1)
        row_work_max = 0.0
        for g in range(1, gmax + 1):
            rm = 0
            rw = 0.0
            for i in self.rows.get(g, ()):
                rm |= 1 << i
                rw += weights[i]
            row_mask[g] = rm
            pwork[g] = pwork[g - 1] + rw
            row_work_max = max(row_work_max, pwork[g] - pwork[g - 1])
        self.row_mask, self.pwork = row_mask, pwork
        self.row_work_max = row_work_max
        self._reach: tuple[list[int], list[int]] | None = None

    def row_reach(self, spg) -> tuple[list[int], list[int]]:
        """``(row_desc, row_anc)``: per row ``g``, the union of its stages'
        descendant and ancestor masks.  Built on the first call, which
        only a solve with ``p > 1`` makes: a whole block of levels needs
        no convexity test (see :meth:`_Dpa2dSolver.line_costs`)."""
        if self._reach is None:
            desc, anc = descendant_masks(spg), ancestor_masks(spg)
            row_desc = [0] * (self.ymax + 1)
            row_anc = [0] * (self.ymax + 1)
            for g, row in self.rows.items():
                for i in row:
                    row_desc[g] |= desc[i]
                    row_anc[g] |= anc[i]
            self._reach = row_desc, row_anc
        return self._reach

    def stages_of(self, g1: int, g2: int) -> list[int]:
        """Stages of rows ``g1 < y <= g2`` in row-major order (as the
        original mapping assembly produced them)."""
        return [
            i for y in range(g1 + 1, g2 + 1) for i in self.rows.get(y, [])
        ]


def _levels(spg) -> tuple:
    """Per level ``x`` of ``spg``: its stages in index order, the edges
    leaving it as ``(edge_list position, i, j, y_i, x_j, y_j)``, its work
    as ``(total, ((row, work), ...))`` with rows ascending, and
    ``prefix_work[x]``, the work of levels ``1..x``.  All sums run in
    stage-index order.  Nothing here reads a volume, so the levels live
    in the shape cache; volume-only copies keep ``edge_list`` order."""

    def build():
        labels, weights = spg.labels, spg.weights
        stages: list[list[int]] = [[] for _ in range(spg.xmax + 1)]
        edges: list[list[tuple]] = [[] for _ in range(spg.xmax + 1)]
        for i, (x, _y) in enumerate(labels):
            stages[x].append(i)
        for pos, (i, j, _d) in enumerate(spg.edge_list):
            (xi, yi), (xj, yj) = labels[i], labels[j]
            edges[xi].append((pos, i, j, yi, xj, yj))
        works: list[tuple] = [(0.0, ())]
        prefix_work = [0.0] * (spg.xmax + 1)
        for x in range(1, spg.xmax + 1):
            total = 0.0
            rows: dict[int, float] = {}
            for i in stages[x]:
                total += weights[i]
                y = labels[i][1]
                rows[y] = rows.get(y, 0.0) + weights[i]
            works.append((total, tuple(sorted(rows.items()))))
            prefix_work[x] = prefix_work[x - 1] + total
        return stages, edges, works, prefix_work

    return spg.shape_cached("dpa2d.levels", build)


_NO_DECOMPOSITION = "DPA2D: no feasible column decomposition"

#: Relative slack of the column condition of ``_Dpa2dSolver.reach_bound``.
REACH_SLACK = 1e-9


def _columns_left(reach: list[int]) -> list[int | None]:
    """``left[m]``: the fewest columns covering levels ``m + 1..len(reach)``,
    each a range ``m_prev + 1..m'`` with ``m' <= reach[m_prev]``, or None
    when some start on the way cannot extend.  Jumping to the furthest
    reach is optimal because every sub-range of an admitted range is
    admitted too, so one backward pass over the jumps finds them all."""
    xmax = len(reach)
    left: list[int | None] = [None] * xmax + [0]
    for m in range(xmax - 1, -1, -1):
        r = reach[m]
        if r != m and left[r] is not None:
            left[m] = left[r] + 1
    return left


class _Dpa2dSolver:
    """Solves the DPA2D placement on a virtual ``p x q`` grid."""

    def __init__(self, problem: ProblemInstance, p: int, q: int) -> None:
        self.spg = problem.spg
        self.model = problem.grid.model
        self.T = problem.period
        self.p, self.q = p, q
        self.cap_work = self.T * self.model.s_max
        self.cap_bytes = self.model.link_capacity(self.T)
        self.speed = self.model.speed_lookup(self.T)
        self.xmax = self.spg.xmax
        # Per-period memos: cluster costs per block (see clusters()),
        # which read no volume, so every volume-only copy of the graph
        # shares them at a period; inner-DP results, pure functions of
        # (block, incoming distribution) that the outer DP re-probes from
        # many states; and the assembled columns of the states it keeps.
        self._clusters: dict[tuple[int, int], object] = (
            self.spg.shape_cached(("dpa2d.clusters", self.T, self.model),
                                  dict)
        )
        self._columns: dict[tuple[int, int, Distribution], tuple | None] = {}
        self._assembled: dict[tuple[int, int, Distribution], tuple] = {}
        #: The last solve's reach bound (see reach_bound()) and the
        #: fewest columns it allows after each level (see solve()).
        self.reach: list[int] | None = None
        self.left: list[int | None] | None = None

    # ------------------------------------------------------------------
    def block(self, m1: int, m2: int) -> _Block:
        spg = self.spg
        return spg.shape_cached(("dpa2d.block", m1, m2),
                                lambda: _Block(spg, m1, m2))

    def clusters(self, m1: int, m2: int):
        """One-core costs of block ``m1..m2``'s row ranges at this period
        (a solve with ``p > 1``), or None when the block holds no stage.

        None when one row misses the period on its own (every range
        holding it is at least as heavy), else ``tab`` with
        ``tab[g1][g2 - g1]`` the ``(energy, speed)`` of rows ``g1 < y <=
        g2`` on one core: None when not convex in the full SPG, ``(0.0,
        0.0)`` when empty (core off).  ``tab[g1]`` ends before the first
        ``g2`` that misses the period, as work only grows with ``g2``.
        """
        key = (m1, m2)
        tab = self._clusters.get(key, _MISS)
        if tab is not _MISS:
            return tab
        blk = self.block(m1, m2)
        model, index = self.model, self.speed.index
        leak = model.comp_leak * self.T
        pwork, gmax = blk.pwork, blk.ymax
        if not blk.stages or index(blk.row_work_max) < 0:
            tab = None
        else:
            row_desc, row_anc = blk.row_reach(self.spg)
            tab = []
            for g1 in range(gmax + 1):
                entries: list[tuple[float, float] | None] = [(0.0, 0.0)]
                mask = below = above = 0
                for g2 in range(g1 + 1, gmax + 1):
                    mask |= blk.row_mask[g2]
                    below |= row_desc[g2]
                    above |= row_anc[g2]
                    if not mask:
                        entries.append((0.0, 0.0))
                        continue
                    work = pwork[g2] - pwork[g1]
                    k = index(work)
                    if k < 0:
                        break
                    if (below & above) & ~mask:
                        entries.append(None)  # an outside stage on a path
                    else:
                        s = model.speeds[k]
                        entries.append(
                            (leak + (work / s) * model.dyn_power[k], s)
                        )
                tab.append(entries)
        self._clusters[key] = tab
        return tab

    def line_costs(self) -> np.ndarray:
        """``cost[m_prev, m]``: the energy of levels ``m_prev + 1..m`` on
        one core at this period (a solve with ``p == 1``), ``inf`` when
        they hold no stage, miss the period, or outweigh the outer DP's
        total-work break (``prefix_work[m] - prefix_work[m_prev] >
        T * s_max``).  Entries with ``m <= m_prev`` are never read.

        With one core per column only the whole block can form a column,
        and a block of whole levels is always convex: every edge
        increases ``x``, so a path between two of its stages stays inside
        its levels.  Its work is the fold :class:`_Block` makes, rows
        ascending and each row's stages in index order, reproduced for
        every range at once: each row's stages add their weight, in
        index order, to the ranges that hold them, and the rows' sums
        add up in ascending order.  A range that misses a stage adds
        nothing there, and adding 0.0 is exact, so every entry carries
        the block's own float, whatever the labelling.  The array is
        kept in the shape cache per (period, model): a StreamIt
        workflow's CCR variants probe the same periods.
        """
        spg, model, T = self.spg, self.model, self.T

        def build() -> np.ndarray:
            xmax, labels, weights = self.xmax, spg.labels, spg.weights
            rows: dict[int, list[int]] = {}
            for i, (_x, y) in enumerate(labels):
                rows.setdefault(y, []).append(i)
            work = np.zeros((xmax, xmax + 1))
            acc = np.empty_like(work)
            for y in sorted(rows):
                acc.fill(0.0)
                for i in rows[y]:
                    x = labels[i][0]
                    acc[:x, x:] += weights[i]
                work += acc
            levels = _levels(spg)
            prefix = np.array(levels[3])
            held = np.cumsum([bool(stages) for stages in levels[0]])
            k = self.speed.indices(work)
            cost = model.comp_leak * T + (
                work / np.array(model.speeds)[k]
            ) * np.array(model.dyn_power)[k]
            cost[(k < 0)
                 | (prefix[None, :] - prefix[:xmax, None] > self.cap_work)
                 | (held[None, :] == held[:xmax, None])] = INF
            return cost

        return spg.shape_cached(("dpa2d.line", T, model), build)

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
    def column(self, m1: int, m2: int, din: Distribution):
        """The best column for levels ``m1..m2`` and incoming ``din``:
        ``(energy, spans)`` with ``spans[u] = (lo, hi, speed)`` for core
        ``u`` holding rows ``lo < y <= hi``, or None if infeasible.  The
        inner DP, memoised on ``(m1, m2, din)``; a solve with ``p == 1``
        reads :meth:`line_costs` instead.
        """
        key = (m1, m2, din)
        hit = self._columns.get(key, _MISS)
        if hit is _MISS:
            tab = self.clusters(m1, m2)
            hit = self._columns[key] = (
                None if tab is None else self._inner_dp(m1, m2, tab, din)
            )
        return hit

    def _inner_dp(self, m1: int, m2: int, tab: list, din: Distribution):
        """Inner DP: cut block ``m1..m2``'s rows into ranges on
        consecutive cores of a column, from its cluster table ``tab``;
        the result of :meth:`column`."""
        labels = self.spg.labels
        # The incoming entries delivered inside the block, as
        # (entry_row, y_dest, bytes); the others pass through.
        deliveries: list[tuple[int, int, float]] = []
        for row, dest, b in din:
            x, y = labels[dest]
            if m1 <= x <= m2:
                deliveries.append((row, y, b))
        blk, el = self.block(m1, m2), self.spg.edge_list
        p, gmax = self.p, blk.ymax
        v_edges = [(yi, yj, el[pos][2]) for yi, yj, pos in blk.v_pos]
        cap_bytes, comm_energy = self.cap_bytes, self.model.comm_energy

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
            for ys, yd, dvol in v_edges:
                if ys <= gcut < yd:
                    down += dvol
                elif yd <= gcut < ys:
                    up += dvol
            if down > cap_bytes or up > cap_bytes:
                return INF
            return comm_energy(down + up)

        # E[u][g]: rows 1..g on cores 0..u-1; par[u][g]: the previous g.
        # Each live state relaxes every range it extends by; ascending g2
        # with strict < keeps the first minimal g2 for each g.
        E = [[INF] * (gmax + 1) for _ in range(p + 1)]
        par = [[-1] * (gmax + 1) for _ in range(p + 1)]
        E[0][0] = 0.0
        for u in range(1, p + 1):
            cur, cur_par = E[u], par[u]
            for g2, prev in enumerate(E[u - 1]):
                if prev == INF:
                    continue
                vcost = boundary_cost(u - 1, g2) if u >= 2 else 0.0
                if vcost == INF:
                    continue
                for g, cl in enumerate(tab[g2], g2):
                    if cl is not None:
                        tot = prev + cl[0] + vcost
                        if tot < cur[g]:
                            cur[g], cur_par[g] = tot, g2

        # Vertical hops above the last used core u: the link into core w
        # (w >= u) carries the deliveries entering at rows >= w.  Each
        # link is priced once (INF past the bandwidth), and a tail adds
        # its links upward from u, in the order a per-u sum would.
        ends = [u for u in range(1, p + 1) if E[u][gmax] != INF]
        if not ends:
            return None
        hops = []
        for w in range(ends[0], p):
            t = sum(b for a, _yd, b in deliveries if a >= w)
            hops.append(INF if t > cap_bytes else comm_energy(t))
        best_u, best_e = -1, INF
        for u in ends:
            tail = 0.0
            for hop in hops[u - ends[0]:]:
                tail += hop
            e = E[u][gmax] + tail
            if e < best_e:
                best_u, best_e = u, e
        if best_u < 0:
            return None

        # Reconstruct the row cuts; core u covers rows (cuts[u], cuts[u+1]].
        cuts = [0] * (best_u + 1)
        g = gmax
        for u in range(best_u, 0, -1):
            cuts[u] = g
            g = par[u][g]
        assert g == 0
        spans = []
        for u in range(best_u):
            lo, hi = cuts[u], cuts[u + 1]
            cl = tab[lo][hi - lo]
            assert cl is not None
            spans.append((lo, hi, cl[1]))
        return best_e, spans

    def assemble(self, m1: int, m2: int,
                 din: Distribution) -> tuple[Distribution, ColumnPlan]:
        """The outgoing distribution and plan of the feasible column
        ``column(m1, m2, din)``, memoised on ``(m1, m2, din)``.

        The outer DP asks only for the states it reads: as a predecessor,
        or when it reconstructs the plans.  The outgoing distribution is
        the pass-through entries of ``din`` plus the block's own exits,
        each on the core row of its source.
        """
        key = (m1, m2, din)
        hit = self._assembled.get(key)
        if hit is not None:
            return hit
        labels, el, p = self.spg.labels, self.spg.edge_list, self.p
        blk = self.block(m1, m2)
        if p == 1:
            # The whole block on one core, at the speed of its work.
            k = self.speed.index(blk.pwork[blk.ymax])
            spans = ((0, blk.ymax, self.model.speeds[k]),)
        else:
            spans = self.column(m1, m2, din)[1]
        cores: list[tuple[tuple[int, ...], float] | None] = [None] * p
        core_of_row: dict[int, int] = {}
        for u, (lo, hi, speed) in enumerate(spans):
            stages = tuple(blk.stages_of(lo, hi))
            for y in range(lo + 1, hi + 1):
                core_of_row[y] = u
            if stages:
                cores[u] = (stages, speed)
        agg: dict[tuple[int, int], float] = {}
        for row, dest, b in din:
            if not m1 <= labels[dest][0] <= m2:
                agg[(row, dest)] = agg.get((row, dest), 0.0) + b
        for i, j, pos in blk.out_pos:
            row = core_of_row[labels[i][1]]
            agg[(row, j)] = agg.get((row, j), 0.0) + el[pos][2]
        dout = tuple(
            (row, dest, b) for (row, dest), b in sorted(agg.items())
        )
        hit = self._assembled[key] = (dout, ColumnPlan(tuple(cores)))
        return hit

    # ------------------------------------------------------------------
    def reach_bound(self) -> list[int]:
        """``reach[m_prev]``: the last level ``m`` such that levels
        ``m_prev + 1..m`` pass a necessary column condition.

        The condition: the levels' total work is at most ``p * T *
        s_max``, and every label row's work at most ``T * s_max`` (implied
        by the total when ``p == 1``), both with a relative slack of
        ``REACH_SLACK``.  Every sub-range of a range that passes it passes
        too, and so does every column the exact tests accept: its rows
        split into at most ``p`` ranges (the whole block when ``p == 1``),
        each of work at most ``T * s_max * (1 + 1e-12)``, so no row and no
        block can be heavier.  The exact tests and this one add the same
        non-negative weights in other orders (the inner DP as differences
        of row prefix sums, which its own tests keep below ``p * T *
        s_max``), which moves a sum by a relative ``p * n * eps`` of the
        capacity at most, far inside the slack, so rounding can never make
        this bound tighter than the exact tests.
        """
        xmax, works = self.xmax, _levels(self.spg)[2]
        row_cap = self.cap_work * (1.0 + REACH_SLACK)
        col_cap = self.p * row_cap
        reach = []
        for m_prev in range(xmax):
            total, rows = 0.0, {}
            m = m_prev
            while m < xmax:
                level_total, level_rows = works[m + 1]
                total += level_total
                heavy = total > col_cap
                for y, w in level_rows:
                    rows[y] = r = rows.get(y, 0.0) + w
                    heavy = heavy or r > row_cap
                if heavy:
                    break
                m += 1
            reach.append(m)
        return reach

    def solve(self) -> tuple[float, list[ColumnPlan]]:
        """Outer DP over (level prefix, columns used), on the states that
        can still finish.

        Each predecessor state ``(m_prev, v - 1)`` pays its boundary cost
        once, then extends to ``m = m_prev + 1, ..., reach[m_prev]``
        (:meth:`reach_bound`) until the block outgrows a column; each
        ``m`` keeps the first minimal candidate in ascending ``m_prev``.
        A column past the bound is one the exact tests reject, so the
        bound saves work without changing the result.

        ``left[m]`` (:func:`_columns_left`) is the fewest columns the bound
        allows for levels ``m + 1..xmax``, a lower bound on every
        decomposition's.  When ``left[0]`` exceeds ``q`` the DP could not
        finish, and the solve fails with the DP's own message without
        building a block.  Otherwise round ``v`` builds only the states
        ``(m, v)`` with ``left[m] <= q - v``, the ones that can still
        finish in the columns left.  ``reach`` is nondecreasing, so
        ``left`` is nonincreasing (None as infinity) and those ``m`` are
        a suffix: each predecessor starts at the later of ``m_prev + 1``
        and the suffix's first level, and skips its boundary cost when
        nothing is left to extend to.  The total-work break is monotone
        in ``m``, so starting later changes nothing before it.

        The outputs cannot change.  If ``m <= reach[m_prev]``, then
        ``left[m_prev] <= 1 + left[m]``, because the furthest jump from
        ``m_prev`` reaches ``m`` or beyond and the greedy jump is optimal.
        So every predecessor of a state that can finish can finish too:
        such a state gets the same candidates, in the same ascending
        ``m_prev`` order, as without the prune, and so the same float
        totals, the same first minimal parent, ``dout`` and plan.  Every
        final state ``(xmax, v)`` has ``left = 0``, so the energy, the
        plans and the failure message are all unchanged.

        A candidate is priced by its energy alone: one row of the round's
        ``(m_prev, m)`` array per predecessor, ``prev + h`` plus the
        column's energy, from :meth:`line_costs` when ``p == 1`` and
        from the inner DP (:meth:`column`) otherwise; ``inf`` where
        there is no candidate.  Each ``m`` then keeps the first minimum
        of its column of the array, in ascending ``m_prev``, as a strict
        ``<`` scan would.  Only a state that is read, as a predecessor or
        in the reconstruction, gets its column assembled
        (:meth:`assemble`), from its first minimal parent and that
        parent's ``dout``: the same distribution and plan as building
        every candidate's and keeping the best.
        """
        xmax, q, p = self.xmax, self.q, self.p
        prefix_work = _levels(self.spg)[3]
        col_cap = p * self.cap_work
        reach = self.reach = self.reach_bound()
        left = self.left = _columns_left(reach)
        if left[0] is None or left[0] > q:
            raise HeuristicFailure(_NO_DECOMPOSITION)
        line = self.line_costs() if p == 1 else None

        # energy[v, m]: the first minimal energy of levels 1..m on v
        # columns, inf for a state not built; parent[v, m]: its m_prev.
        # (0, 0) is the empty start.  built[(m, v)] = (dout, plan) of a
        # state that was read; the start's empty distribution crosses
        # for 0.0.
        energy = np.full((q + 1, xmax + 1), INF)
        energy[0, 0] = 0.0
        parent = np.zeros((q + 1, xmax + 1), np.intp)
        built: dict[tuple[int, int], tuple] = {(0, 0): ((), None)}

        def assembled(m: int, v: int) -> tuple:
            hit = built.get((m, v))
            if hit is None:
                m_prev = int(parent[v, m])
                din = assembled(m_prev, v - 1)[0]
                hit = built[(m, v)] = self.assemble(m_prev + 1, m, din)
            return hit

        columns = np.arange(xmax + 1)
        for v in range(1, q + 1):
            # The first level that can still finish in q - v columns.
            first = next(m for m, k in enumerate(left)
                         if k is not None and k <= q - v)
            cand = np.full((xmax, xmax + 1), INF)
            prev_energy = energy[v - 1].tolist()
            for m_prev in range(v - 1, xmax):
                prev_e = prev_energy[m_prev]
                if prev_e == INF:
                    continue
                stop = reach[m_prev] + 1
                start = max(m_prev + 1, first)
                if start >= stop:
                    continue
                din = assembled(m_prev, v - 1)[0]
                h = self.h_cost(din)
                if h == INF:
                    continue
                base = prev_e + h
                if line is not None:
                    cand[m_prev, start:stop] = base + line[m_prev, start:stop]
                    continue
                row = cand[m_prev]
                for m in range(start, stop):
                    # Prune: the block's total work must fit the column.
                    if prefix_work[m] - prefix_work[m_prev] > col_cap:
                        break
                    res = self.column(m_prev + 1, m, din)
                    if res is not None:
                        row[m] = base + res[0]
            best = cand.argmin(axis=0)
            parent[v] = best
            energy[v] = cand[best, columns]
        inc("dpa2d.columns", len(self._columns))

        # The first minimal energy over the column counts, ascending.
        best_v = int(energy[1:, xmax].argmin()) + 1
        best_e = float(energy[best_v, xmax])
        if best_e == INF:
            raise HeuristicFailure(_NO_DECOMPOSITION)

        plans: list[ColumnPlan] = []
        m, v = xmax, best_v
        while v >= 1:
            plans.append(assembled(m, v)[1])
            m, v = int(parent[v, m]), v - 1
        plans.reverse()
        return best_e, plans


def _refit_speed(
    problem: ProblemInstance, core, stages, speed: float
) -> float:
    """The speed of ``stages`` on ``core``, refitted to the core's own
    (possibly scaled) model on heterogeneous platforms.

    The DP plans with the base model; a scaled core re-selects the
    energy-optimal feasible speed for the cluster's work and the refit
    fails (``HeuristicFailure``) when the core is too slow.
    """
    grid = problem.grid
    if not grid.heterogeneous:
        return speed
    work = sum(problem.spg.weights[i] for i in stages)
    s = grid.core_model(core).best_feasible(work, problem.period)
    if s is None:
        raise HeuristicFailure(
            f"cluster misses the period on scaled core {core}"
        )
    return s


def _plans_to_mapping(
    problem: ProblemInstance,
    plans: list[ColumnPlan],
    core_at,
) -> Mapping:
    """Materialise column plans into a Mapping; ``core_at(u, c)`` places cores."""
    alloc: dict[int, tuple[int, int]] = {}
    speeds: dict[tuple[int, int], float] = {}
    for c, plan in enumerate(plans):
        for u, entry in enumerate(plan.cores):
            if entry is None:
                continue
            stages, speed = entry
            core = core_at(u, c)
            speeds[core] = _refit_speed(problem, core, stages, speed)
            for i in stages:
                alloc[i] = core
    mapping = Mapping(problem.spg, problem.grid, alloc, speeds)
    try:
        mapping.check_structure()
    except MappingError as exc:
        raise HeuristicFailure(f"DPA2D produced an invalid mapping: {exc}")
    return mapping


@register("DPA2D")
def dpa2d_mapping(problem: ProblemInstance, rng=None) -> Mapping:
    """The 2D double-DP heuristic on the real grid (XY-routed)."""
    grid = problem.grid
    _e, plans = solve_dpa2d(problem, grid.p, grid.q)
    return _plans_to_mapping(problem, plans, lambda u, c: (u, c))


def solve_dpa2d(
    problem: ProblemInstance, p: int, q: int
) -> tuple[float, list[ColumnPlan]]:
    """DPA2D's solve on a virtual ``p x q`` grid, memoised on the graph."""
    key = ("dpa2d.solve", problem.period, problem.grid.model, p, q)
    return shared_solve(problem.spg, key,
                        lambda: _Dpa2dSolver(problem, p, q).solve())


@register("DPA2D1D")
def dpa2d1d_mapping(problem: ProblemInstance, rng=None) -> Mapping:
    """DPA2D on a virtual 1 x (p*q) line, mapped along the topology's
    line embedding (the snake of Section 5.4 on the mesh)."""
    grid = problem.grid
    _e, plans = solve_dpa2d(problem, 1, grid.n_cores)
    order = grid.line_order()

    # Column c of the virtual line is line position c; route along it.
    alloc: dict[int, tuple[int, int]] = {}
    speeds: dict[tuple[int, int], float] = {}
    position: dict[int, int] = {}
    for c, plan in enumerate(plans):
        entry = plan.cores[0]
        if entry is None:
            continue
        stages, speed = entry
        core = order[c]
        speeds[core] = _refit_speed(problem, core, stages, speed)
        for i in stages:
            alloc[i] = core
            position[i] = c
    if len(alloc) != problem.spg.n:
        raise HeuristicFailure("DPA2D1D: incomplete assignment")
    paths = {}
    for (i, j) in problem.spg.edges:
        a, b = position[i], position[j]
        if a != b:
            paths[(i, j)] = grid.line_path(a, b)
    mapping = Mapping(problem.spg, grid, alloc, speeds, paths)
    try:
        mapping.check_structure()
    except MappingError as exc:
        raise HeuristicFailure(f"DPA2D1D produced an invalid mapping: {exc}")
    return mapping
