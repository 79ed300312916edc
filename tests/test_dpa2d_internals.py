"""White-box tests for the DPA2D solver internals."""

import numpy as np
import pytest

from repro.core.errors import HeuristicFailure
from repro.core.problem import ProblemInstance
from repro.experiments import run_streamit_experiment
from repro.heuristics import dpa2d
from repro.heuristics.dpa2d import _Dpa2dSolver
from repro.platform.cmp import CMPGrid
from repro.platform.speeds import PowerModel, xscale_model
from repro.spg.analysis import ancestor_masks, descendant_masks
from repro.spg.build import chain, diamond, split_join
from repro.spg.random_gen import random_spg_with_elevation
from repro.spg.streamit import streamit_workflow


@pytest.fixture
def solver(grid_4x4):
    g = split_join([2, 2, 2], w_source=1e8, w_sink=1e8, w_branch=3e8,
                   comm=1e6)
    prob = ProblemInstance(g, grid_4x4, 0.8)
    return _Dpa2dSolver(prob, 4, 4), g


class TestBlocks:
    def test_block_stage_partition(self, solver):
        s, g = solver
        all_stages = []
        for x in range(1, g.xmax + 1):
            all_stages.extend(s.block(x, x).stages)
        assert sorted(all_stages) == list(range(g.n))

    def test_block_caching(self, solver):
        s, _g = solver
        assert s.block(1, 2) is s.block(1, 2)

    def test_block_rows(self, solver):
        s, g = solver
        blk = s.block(1, g.xmax)
        assert blk.ymax == g.ymax
        assert sorted(i for r in blk.rows.values() for i in r) == list(
            range(g.n)
        )

    def test_out_edges_leave_block(self, solver):
        s, g = solver
        blk = s.block(1, 2)
        assert blk.out_pos
        for (i, j, pos) in blk.out_pos:
            assert g.edge_list[pos][:2] == (i, j)
            assert g.labels[i][0] <= 2 < g.labels[j][0]

    def test_v_edges_are_cross_row(self, solver):
        s, g = solver
        blk = s.block(1, 3)
        assert blk.v_pos
        for (ys, yd, pos) in blk.v_pos:
            i, j, _d = g.edge_list[pos]
            assert (g.labels[i][1], g.labels[j][1]) == (ys, yd)
            assert ys != yd


class TestSharedBlocks:
    def test_every_whole_level_block_is_convex(self):
        """No stage outside levels m1..m2 sits on a path between two
        stages inside them, which DPA2D1D's columns rely on."""
        graphs = [streamit_workflow(i, seed=0) for i in range(1, 13)]
        graphs += [
            random_spg_with_elevation(n, e, np.random.default_rng(s))
            for n, e, s in [(30, 2, 0), (50, 8, 1), (70, 16, 2), (150, 24, 3)]
        ]
        for g in graphs:
            desc, anc = descendant_masks(g), ancestor_masks(g)
            levels = g.levels()
            for m1 in range(1, g.xmax + 1):
                mask = below = above = 0
                for m2 in range(m1, g.xmax + 1):
                    for i in levels[m2]:
                        mask |= 1 << i
                        below |= desc[i]
                        above |= anc[i]
                    assert not (below & above) & ~mask

    def test_des_variants_build_one_set_of_blocks(self, monkeypatch):
        """DPA2D and DPA2D1D over DES's four CCR variants (the Figure-8
        period search) build each block once, not once per variant.
        DPA2D1D prices its columns from the level-range costs and builds
        a block only for a column it assembles."""
        built = []
        block_cls = dpa2d._Block

        def spy(*args):
            built.append(args[1:])
            return block_cls(*args)

        monkeypatch.setattr(dpa2d, "_Block", spy)
        run_streamit_experiment(
            CMPGrid(4, 4), ccrs=(None, 10.0, 1.0, 0.1), workflows=(8,),
            solvers=("DPA2D", "DPA2D1D"), seed=2011, jobs=1,
        )
        assert len(built) == len(set(built)) == 240


def _cluster(solver, m1, m2, g1, g2):
    """``(energy, speed)`` of rows ``g1 < y <= g2`` of block ``m1..m2``
    from the solver's cluster table, or None when infeasible."""
    tab = solver.clusters(m1, m2)
    if tab is None or g2 - g1 >= len(tab[g1]):
        return None
    return tab[g1][g2 - g1]


class TestClusterCosts:
    def test_empty_cluster_free(self, solver):
        s, g = solver
        blk = s.block(2, 2)
        # Rows above the block's ymax are empty.
        e = _cluster(s, 2, 2, blk.ymax, blk.ymax)
        assert e == (0.0, 0.0)

    def test_overweight_cluster_infeasible(self, grid_4x4):
        g = split_join([1, 1], w_source=1e6, w_sink=1e6, w_branch=6e8,
                       comm=1e3)
        prob = ProblemInstance(g, grid_4x4, 0.7)
        s = _Dpa2dSolver(prob, 4, 4)
        # Both 6e8 branches share level 2: 1.2e9 cycles > 0.7 s at 1 GHz.
        assert _cluster(s, 2, 2, 0, 2) is None
        assert _cluster(s, 2, 2, 0, 1) is not None

    def test_nonconvex_cluster_infeasible(self, grid_4x4):
        # Fork at row 1 feeding a row-2 branch that rejoins row 1: taking
        # rows {1} of the whole x-range without row 2 is non-convex.
        g = diamond((1e8, 1e8, 1e8, 1e8), (1e3, 1e3, 1e3, 1e3))
        prob = ProblemInstance(g, grid_4x4, 1.0)
        s = _Dpa2dSolver(prob, 4, 4)
        # source+mid1+sink without mid2
        assert _cluster(s, 1, g.xmax, 0, 1) is None
        assert _cluster(s, 1, g.xmax, 0, 2) is not None

    def test_row_heavy_block_rejected_before_inner_dp(self, grid_4x4,
                                                      monkeypatch):
        # One row holds 3 x 4e8 cycles: no core meets T = 1 s on its own,
        # so no row range holding it fits and the block has no column.
        g = chain(4, [4e8] * 4, [1e3] * 3)
        s = _Dpa2dSolver(ProblemInstance(g, grid_4x4, 1.0), 4, 4)

        def no_inner_dp(*args):
            raise AssertionError("the inner DP ran on a rejected block")

        monkeypatch.setattr(s, "_inner_dp", no_inner_dp)
        assert s.block(1, 3).row_work_max == pytest.approx(1.2e9)
        assert s.clusters(1, 3) is None
        assert s.column(1, 3, ()) is None

    def test_one_block_per_graph(self, grid_4x4):
        """Both solvers and every period share one block object."""
        g = split_join([2, 2, 2], w_source=1e8, w_sink=1e8, w_branch=3e8,
                       comm=1e6)
        solvers = [
            _Dpa2dSolver(ProblemInstance(g, grid_4x4, period), p, q)
            for period in (0.8, 2.0) for p, q in ((4, 4), (1, 16))
        ]
        blocks = {id(s.block(1, 2)) for s in solvers}
        assert len(blocks) == 1
        # The period-dependent costs stay per solver.
        tight, loose = solvers[0], solvers[2]
        assert tight.clusters(1, 2) is not loose.clusters(1, 2)


class TestSpeedLookup:
    """The DPs' bulk speed rule equals PowerModel.best_feasible."""

    MODELS = {
        "xscale": xscale_model(),
        "two-speed": PowerModel((0.5e9, 1e9), (0.2, 1.6), 0.08, 0.0,
                                6e-12, 1.92e10),
        "scaled": xscale_model().scaled(0.7),
        # Equal energy per cycle everywhere: ties go to the first speed.
        "flat": PowerModel((1e9, 2e9, 3e9), (1.0, 2.0, 3.0), 0.0, 0.0,
                           6e-12, 1.92e10),
    }

    @staticmethod
    def _expected(model, works, period):
        out = []
        for w in works:
            s = model.best_feasible(float(w), period)
            out.append(-1 if s is None else model.speeds.index(s))
        return out

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("period", [0.05, 0.7, 1.0, 3.3])
    def test_random_works(self, name, period):
        model = self.MODELS[name]
        rng = np.random.default_rng(7)
        top = model.s_max * period
        works = np.concatenate([rng.uniform(0, 1.2 * top, 500), [0.0]])
        lookup = model.speed_lookup(period)
        want = self._expected(model, works, period)
        assert lookup.indices(works).tolist() == want
        assert [lookup.index(float(w)) for w in works] == want

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_exactly_at_each_threshold(self, name):
        model = self.MODELS[name]
        period = 0.7
        works = []
        for s in model.speeds:
            limit = s * period * (1.0 + 1e-12)
            works += [np.nextafter(limit, 0.0), limit,
                      np.nextafter(limit, np.inf)]
        lookup = model.speed_lookup(period)
        want = self._expected(model, works, period)
        assert lookup.indices(np.array(works)).tolist() == want
        assert [lookup.index(float(w)) for w in works] == want
        assert want[-1] == -1 and want[-2] == len(model.speeds) - 1

    def test_zero_work_and_non_positive_period(self):
        model = self.MODELS["xscale"]
        assert model.speed_lookup(1.0).index(0.0) == 0
        assert model.best_feasible(0.0, 1.0) == model.speeds[0]
        for period in (0.0, -1.0):
            lookup = model.speed_lookup(period)
            assert model.best_feasible(1e6, period) is None
            assert model.best_feasible(0.0, period) is None
            assert lookup.index(1e6) == -1 and lookup.index(0.0) == -1
            assert lookup.indices([0.0, 1e6]).tolist() == [-1, -1]


class TestHorizontalCost:
    def test_empty_distribution_free(self, solver):
        s, _g = solver
        assert s.h_cost(()) == 0.0

    def test_energy_per_byte(self, solver):
        s, _g = solver
        d = ((0, 5, 1000.0),)
        assert s.h_cost(d) == pytest.approx(
            s.model.comm_energy(1000.0)
        )

    def test_bandwidth_violation(self, solver):
        s, _g = solver
        too_much = s.cap_bytes * 1.01
        assert s.h_cost(((0, 5, too_much),)) == float("inf")

    def test_rows_checked_separately(self, solver):
        s, _g = solver
        half = s.cap_bytes * 0.6
        # Same row: 1.2x capacity -> infeasible.
        assert s.h_cost(((0, 5, half), (0, 6, half))) == float("inf")
        # Different rows: each fits.
        assert s.h_cost(((0, 5, half), (1, 6, half))) < float("inf")


class TestColumnResults:
    def test_splitjoin_cannot_share_one_column(self, solver):
        """Fork and join sit on row 1: a row-range cluster containing them
        must contain every branch row (convexity), and the whole graph
        exceeds one core's capacity -- so a single column is infeasible.
        This is the structural reason DPA2D spreads levels over columns."""
        s, g = solver
        assert s.column(1, g.xmax, ()) is None

    def test_full_graph_single_column_when_light(self, grid_4x4):
        from repro.core.problem import ProblemInstance as PI

        g = chain(4, [1e7] * 4, [1e3] * 3)
        s = _Dpa2dSolver(PI(g, grid_4x4, 1.0), 4, 4)
        assert s.column(1, g.xmax, ()) is not None
        dout, plan = s.assemble(1, g.xmax, ())
        placed = [
            i
            for entry in plan.cores
            if entry is not None
            for i in entry[0]
        ]
        assert sorted(placed) == list(range(g.n))
        assert dout == ()

    def test_dout_points_beyond_block(self, solver):
        s, g = solver
        assert s.column(1, 2, ()) is not None
        dout, _plan = s.assemble(1, 2, ())
        for (_row, dest, _b) in dout:
            assert g.labels[dest][0] > 2

    def test_empty_block_is_none(self, grid_4x4):
        g = chain(3, [1e8] * 3, [1e3] * 2)
        prob = ProblemInstance(g, grid_4x4, 1.0)
        s = _Dpa2dSolver(prob, 4, 4)
        # x range beyond the graph has no stages.
        assert s.column(4, 4, ()) is None

    def test_delivery_repositions_cluster_to_entry_row(self, grid_4x4):
        """An over-capacity delivery is fine if the inner DP can park the
        destination cluster *on* the entry row (empty cores below)."""
        g = split_join([1, 1], w_source=1e6, w_sink=1e6, w_branch=1e8,
                       comm=1e3)
        prob = ProblemInstance(g, grid_4x4, 0.5)
        s = _Dpa2dSolver(prob, 4, 4)
        big = s.cap_bytes * 1.5
        din = ((3, g.sink, big),)
        assert s.column(3, 3, din) is not None
        # The sink must have been pushed up to physical row 3.
        cores = s.assemble(3, 3, din)[1].cores
        assert cores[3] is not None
        assert cores[0] is None

    def test_conflicting_deliveries_infeasible(self, grid_4x4):
        """Two over-capacity deliveries entering at opposite rows cannot
        both reach the sink without one of them crossing a vertical link."""
        g = split_join([1, 1], w_source=1e6, w_sink=1e6, w_branch=1e8,
                       comm=1e3)
        prob = ProblemInstance(g, grid_4x4, 0.5)
        s = _Dpa2dSolver(prob, 4, 4)
        big = s.cap_bytes * 1.5
        din = ((0, g.sink, big), (3, g.sink, big))
        assert s.column(3, 3, din) is None

    def test_delivery_on_same_row_is_fine(self, grid_4x4):
        g = split_join([1, 1], w_source=1e6, w_sink=1e6, w_branch=1e8,
                       comm=1e3)
        prob = ProblemInstance(g, grid_4x4, 0.5)
        s = _Dpa2dSolver(prob, 4, 4)
        big = s.cap_bytes * 1.5
        # Entering at physical row 0 where the sink lives: no vertical hop,
        # the (over-)wide horizontal entry was charged at the boundary.
        din = ((0, g.sink, big),)
        assert s.column(3, 3, din) is not None


class TestSolvePruning:
    def test_chain_uses_expected_columns(self, grid_4x4):
        g = chain(8, [4e8] * 8, [1e3] * 7)
        prob = ProblemInstance(g, grid_4x4, 0.9)
        s = _Dpa2dSolver(prob, 4, 4)
        _e, plans = s.solve()
        assert 2 <= len(plans) <= 4

    def test_single_column_when_loose(self, grid_4x4):
        g = chain(4, [1e7] * 4, [1e3] * 3)
        prob = ProblemInstance(g, grid_4x4, 1.0)
        s = _Dpa2dSolver(prob, 4, 4)
        _e, plans = s.solve()
        assert len(plans) == 1


class TestReachBound:
    def test_too_many_columns_fails_before_any_block(self, grid_4x4,
                                                     monkeypatch):
        # Row 1 holds every stage, so each column takes one 4e8 stage at
        # T = 0.5 s: 8 columns are needed and the grid has 4.
        g = chain(8, [4e8] * 8, [1e3] * 7)
        s = _Dpa2dSolver(ProblemInstance(g, grid_4x4, 0.5), 4, 4)
        built = []
        block_cls = dpa2d._Block

        def spy(*args):
            built.append(args[1:])
            return block_cls(*args)

        monkeypatch.setattr(dpa2d, "_Block", spy)
        with pytest.raises(HeuristicFailure) as exc:
            s.solve()
        assert str(exc.value) == "DPA2D: no feasible column decomposition"
        assert built == []
        assert s.reach == list(range(1, 9))
        assert s.left[0] == 8

    @pytest.mark.parametrize("period", [0.1, 0.25, 0.5, 0.8, 2.0, 10.0])
    @pytest.mark.parametrize("p,q", [(4, 4), (2, 8), (1, 16)])
    def test_reach_is_the_brute_force_maximum(self, solver, period, p, q):
        _s, g = solver
        prob = ProblemInstance(g, CMPGrid(4, 4), period)
        s = _Dpa2dSolver(prob, p, q)
        cap = period * s.model.s_max * (1 + dpa2d.REACH_SLACK)

        def passes(m1, m2):
            stages = [i for i in range(g.n) if m1 <= g.labels[i][0] <= m2]
            rows: dict[int, float] = {}
            for i in stages:
                y = g.labels[i][1]
                rows[y] = rows.get(y, 0.0) + g.weights[i]
            total = sum(g.weights[i] for i in stages)
            return total <= p * cap and max(rows.values()) <= cap

        want = []
        for m_prev in range(g.xmax):
            m = m_prev
            while m < g.xmax and all(
                passes(m_prev + 1, m2) for m2 in range(m_prev + 1, m + 2)
            ):
                m += 1
            want.append(m)
        assert s.reach_bound() == want
