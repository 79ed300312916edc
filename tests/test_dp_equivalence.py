"""The layered DPA1D loop and the per-graph DPA2D blocks against the
reference copies of the DP heuristics in ``tests/dp_reference.py``.

DPA1D runs one DP loop fed by two transition sources: slices of the
lattice's flat suffix table (n <= 62) and, for wider graphs, batches cut
from the lattice's suffix stream, which runs the multi-word suffix
forest over chunks of ideals.  Both must reproduce the per-ideal scalar
DP, which reads every ideal's clusters from the reference DFS, exactly:
energy, cluster count, clusters, speeds, and a budget failure with the
same message.  A wide solve must never call the reference DFS, and a
budget failure must stop the forest before it has enumerated every
ideal.  DPA2D must return the same plans and the same energy bits as
the solver that built its blocks per solver and costed clusters lazily,
and its reach bound, column-count certificate and prune to states that
can still finish must keep it so, on drawn graphs, at the edges of the
bound's slack and at column budgets around the fewest the bound allows.
Copies of a graph that differ only in their volumes share its level
blocks, and must solve as if they had built their own.
"""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import kernels, partition
from repro.core.errors import BudgetExceeded, HeuristicFailure
from repro.core.partition import IdealLattice
from repro.core.problem import ProblemInstance
from repro.heuristics import dpa1d, dpa2d
from repro.heuristics.dpa1d import _UnilineDP, solve_uniline
from repro.obs.session import observability
from repro.platform.cmp import CMPGrid
from repro.platform.speeds import PowerModel
from repro.platform.topology import get_topology
from repro.spg.build import chain, split_join
from repro.spg.decompose import transition_lower_bound
from repro.spg.graph import SPG
from repro.spg.random_gen import random_spg_with_elevation
from repro.spg.streamit import streamit_variants
from tests.dp_reference import INF, ReferenceDpa2dSolver, reference_uniline


def _outcome(fn):
    try:
        return fn()
    except HeuristicFailure as exc:
        return (type(exc).__name__, str(exc))


def _no_reference_dfs(monkeypatch) -> None:
    """Make every library call of the reference DFS fail loudly (the
    reference DP holds its own binding, so it keeps working)."""
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the reference DFS ran in a wide solve")

    monkeypatch.setattr(kernels, "reference_dfs", forbidden)
    monkeypatch.setattr(partition, "reference_dfs", forbidden,
                        raising=False)


# ----------------------------------------------------------------------
# DPA1D
# ----------------------------------------------------------------------
class TestWideDpa1d:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n=st.integers(63, 90),
        elevation=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        parallelism=st.sampled_from([1.5, 4.0, 12.0]),
        r=st.sampled_from([3, 16]),
        budget=st.sampled_from([2_000, 1_000_000]),
    )
    def test_matches_scalar_reference(self, monkeypatch, n, elevation, seed,
                                      parallelism, r, budget):
        g = random_spg_with_elevation(
            n, elevation, np.random.default_rng(seed), ccr=10.0
        )
        assert g.n > 62
        prob = ProblemInstance(
            g, CMPGrid(4, 4), g.total_work / 1e9 / parallelism
        )
        want = _outcome(lambda: reference_uniline(
            prob, r, transition_budget=budget))
        with monkeypatch.context() as m:
            _no_reference_dfs(m)
            got = _outcome(lambda: solve_uniline(
                prob, r, transition_budget=budget))
        if isinstance(got, tuple) and len(got) == 3:
            e, clusters, speeds = got
            got = (e, len(clusters), clusters, speeds)
        assert got == want

    @staticmethod
    def _bound_and_exact():
        """A wide graph, its problem, and the SP-tree transition bound
        and exact transition count at the solve's cap."""
        g = random_spg_with_elevation(
            70, 2, np.random.default_rng(3), ccr=10.0
        )
        prob = ProblemInstance(g, CMPGrid(4, 4), g.total_work / 1e9 / 4)
        cap = _UnilineDP(prob, 16, 120_000).cap_work
        bound = transition_lower_bound(g, cap, 1 << 20)
        exact = sum(
            int(counts.sum()) for _lo, _hi, counts, _p, _w
            in IdealLattice(g, 120_000).suffix_stream(cap, 1 << 20)
        )
        return g, prob, bound, exact

    def test_budget_failure_stops_the_forest_early(self, monkeypatch):
        # A budget in [bound, exact): the bound cannot reject it, so the
        # forest must, part way through the lattice.
        g, prob, budget, exact = self._bound_and_exact()
        assert budget < exact
        msg = f"DPA1D exceeded {budget} DP transitions"
        with pytest.raises(HeuristicFailure, match=msg):
            reference_uniline(prob, 16, transition_budget=budget)
        calls: list = []
        forest = partition.suffix_forest

        def spy(lat, roots, *args, **kwargs):
            try:
                out = forest(lat, roots, *args, **kwargs)
            except BudgetExceeded:
                calls.append((roots.shape[1], None))
                raise
            calls.append((roots.shape[1], out[1].size))
            return out

        _no_reference_dfs(monkeypatch)
        monkeypatch.setattr(partition, "suffix_forest", spy)
        with pytest.raises(BudgetExceeded) as exc:
            solve_uniline(prob, 16, transition_budget=budget)
        assert str(exc.value) == msg
        # The forest itself raised, so no call enumerated every ideal it
        # was handed, and the completed calls stayed inside the budget.
        assert calls and calls[-1][1] is None
        assert sum(t for _k, t in calls[:-1]) <= budget
        covered = sum(k for k, t in calls if t is not None)
        assert covered < len(IdealLattice.for_spg(g, 120_000).ideals()) - 1

    def test_budget_under_the_bound_enumerates_nothing(self, monkeypatch):
        # A budget under the bound: the same failure as the reference,
        # decided before any ideal or cluster is enumerated.
        g, prob, bound, _exact = self._bound_and_exact()
        budget = bound - 1
        msg = f"DPA1D exceeded {budget} DP transitions"
        with pytest.raises(HeuristicFailure, match=msg):
            reference_uniline(prob, 16, transition_budget=budget)
        calls: list = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        _no_reference_dfs(monkeypatch)
        monkeypatch.setattr(partition, "suffix_forest",
                            spy("forest", partition.suffix_forest))
        for name in kernels.kernel_names():
            kernel = kernels.get_kernel(name)
            monkeypatch.setattr(kernel, "enumerate_bulk",
                                spy(name, kernel.enumerate_bulk))
        lat = IdealLattice(g, 120_000)
        monkeypatch.setattr(IdealLattice, "for_spg",
                            staticmethod(lambda *_a, **_k: lat))
        with observability() as session:
            with pytest.raises(BudgetExceeded) as exc:
                solve_uniline(prob, 16, transition_budget=budget)
        assert str(exc.value) == msg
        assert calls == []
        assert lat._ideals is None
        assert session.metrics.counters[
            "partition.transition_bound_rejects"] == 1


class TestWideSourceOnWordSizedGraphs:
    """The wide transition source fills the same DP matrix as the table."""

    @pytest.mark.parametrize("seed,elevation,parallelism", [
        (0, 2, 3.0), (1, 4, 8.0), (2, 3, 1.5), (5, 6, 16.0),
    ])
    def test_same_B_bit_for_bit(self, monkeypatch, seed, elevation,
                                parallelism):
        g = random_spg_with_elevation(
            40, elevation, np.random.default_rng(seed), ccr=10.0
        )
        prob = ProblemInstance(
            g, CMPGrid(4, 4), g.total_work / 1e9 / parallelism
        )
        table = _UnilineDP(prob, 16, 120_000)
        wide = _UnilineDP(prob, 16, 120_000)
        monkeypatch.setattr(wide, "_table_source", wide._wide_source)
        got = [_outcome(lambda: dp.solve(1_000_000)) for dp in (table, wide)]
        assert got[0] == got[1]
        _vals, epos = table.lat.ideal_positions()
        assert table.B[epos].tobytes() == wide.B.tobytes()
        if not isinstance(got[0][0], str):
            assert table.reconstruct(got[0][1]) == wide.reconstruct(got[1][1])


    def test_small_batches_and_ranges_same_B(self, monkeypatch):
        # Stream ranges of a few ideals cross popcount layers; the DP
        # batches cut from them must not, and must stop at WIDE_CHUNK.
        g = random_spg_with_elevation(
            40, 4, np.random.default_rng(1), ccr=10.0
        )
        prob = ProblemInstance(g, CMPGrid(4, 4), g.total_work / 1e9 / 8.0)
        table = _UnilineDP(prob, 16, 120_000)
        wide = _UnilineDP(prob, 16, 120_000)
        monkeypatch.setattr(dpa1d, "WIDE_CHUNK", 5)
        monkeypatch.setattr(partition, "STREAM_TRANSITIONS", 40)
        monkeypatch.setattr(wide, "_table_source", wide._wide_source)
        batches: list = []
        inner = dpa1d._dp_batches

        def spy(*args):
            for batch in inner(*args):
                batches.append(batch)
                yield batch

        monkeypatch.setattr(dpa1d, "_dp_batches", spy)
        assert table.solve(1_000_000) == wide.solve(1_000_000)
        _vals, epos = table.lat.ideal_positions()
        assert table.B[epos].tobytes() == wide.B.tobytes()
        ideals = wide.lat.ideals()
        rows = np.concatenate([b[0] for b in batches])
        assert rows.tolist() == list(range(1, len(ideals)))
        for rows, counts, prows, W in batches:
            assert len({ideals[k].bit_count() for k in rows}) == 1
            assert counts[:-1].sum() < 5 and prows.size == W.size
        assert len(batches) > len({i.bit_count() for i in ideals})


class TestDpa1dNarrowBand:
    """At ``T = W / 1e9 / (r - slack)`` every ideal's band of cluster
    counts is at most ``ceil(slack)`` wide: the banded DP must still
    match the scalar reference, and fill the same ``B`` from either
    source and any batch size."""

    GRAPHS = [(40, 1, 0), (40, 2, 1), (40, 3, 2), (30, 2, 5), (70, 1, 3),
              (70, 2, 4)]

    def test_sources_and_batches_agree(self, monkeypatch):
        solved = 0
        for n, elevation, seed in self.GRAPHS:
            g = random_spg_with_elevation(
                n, elevation, np.random.default_rng(seed), ccr=10.0
            )
            for r in (3, 16):
                for slack in (0.5, 1.5):
                    prob = ProblemInstance(
                        g, CMPGrid(4, 4), g.total_work / 1e9 / (r - slack)
                    )
                    solved += self._check(monkeypatch, prob, r, slack)
        assert solved > 0

    @staticmethod
    def _check(monkeypatch, prob, r, slack) -> bool:
        want = _outcome(lambda: reference_uniline(prob, r))
        sources = ["wide", "small batches"]
        if prob.spg.n <= 62:
            sources.insert(0, "table")
        Bs = set()
        for source in sources:
            dp = _UnilineDP(prob, r, 120_000)
            with monkeypatch.context() as m:
                if source != "table":
                    m.setattr(dp, "_table_source", dp._wide_source)
                if source == "small batches":
                    m.setattr(dpa1d, "WIDE_CHUNK", 5)
                    m.setattr(partition, "STREAM_TRANSITIONS", 40)
                got = _outcome(lambda: dp.solve(1_000_000))
            if not isinstance(got[0], str):
                got = (*got, *dp.reconstruct(got[1]))
            assert got == want
            B = dp.B
            if source == "table":
                B = B[dp.lat.ideal_positions()[1]]
            assert np.isfinite(B).sum(axis=1).max() <= np.ceil(slack)
            Bs.add(B.tobytes())
        assert len(Bs) == 1
        return not isinstance(want[0], str)


class TestDpa1dWalkBack:
    """Where several clusters meet an entry, as on graphs of equal
    weights and volumes, the walk-back takes the first in DFS order,
    like the scalar reference."""

    @pytest.mark.parametrize("make", [
        lambda: chain(12, [1e8] * 12, [1e3] * 11),
        lambda: split_join([2, 2, 2], w_source=1e8, w_sink=1e8,
                           w_branch=1e8, comm=1e3),
    ])
    @pytest.mark.parametrize("parallelism", [2.0, 3.0, 5.5])
    def test_ties_take_the_first_cluster(self, make, parallelism):
        g = make()
        prob = ProblemInstance(g, CMPGrid(4, 4),
                               g.total_work / 1e9 / parallelism)
        e, clusters, speeds = solve_uniline(prob, 16)
        assert (e, len(clusters), clusters, speeds) == reference_uniline(
            prob, 16)


# ----------------------------------------------------------------------
# DPA2D
# ----------------------------------------------------------------------
_GRAPHS = [(30, 2, 0), (50, 4, 1), (50, 8, 2), (70, 3, 3), (40, 12, 4)]


def _problems(topology: str):
    for n, elevation, seed in _GRAPHS:
        g = random_spg_with_elevation(
            n, elevation, np.random.default_rng(seed), ccr=10.0
        )
        for parallelism in (1.5, 6.0, 16.0):  # loose .. tight
            yield ProblemInstance(
                g, get_topology(topology, 4, 4),
                g.total_work / 1e9 / parallelism,
            )


def _priced(solver) -> bool:
    """Whether the solve priced a column: a block's row-range costs
    (``p > 1``) or the level-range costs (``p == 1``)."""
    if solver.p > 1:
        return bool(solver._clusters)
    return ("dpa2d.line", solver.T, solver.model) in solver.spg._shape


def _solve(solver_cls, prob, p, q):
    try:
        e, plans = solver_cls(prob, p, q).solve()
    except HeuristicFailure as exc:
        return str(exc)
    return repr(e), plans


class TestDpa2dAgainstReference:
    @pytest.mark.parametrize("topology", ["mesh", "ring", "hetmesh"])
    def test_plans_and_energy_equal(self, topology):
        row_cut = certified = solved = 0
        for prob in _problems(topology):
            shapes = {(prob.grid.p, prob.grid.q), (1, prob.grid.n_cores),
                      (4, 4)}
            for p, q in sorted(shapes):
                want = _solve(ReferenceDpa2dSolver, prob, p, q)
                solver = dpa2d._Dpa2dSolver(prob, p, q)
                try:
                    e, plans = solver.solve()
                    got = (repr(e), plans)
                except HeuristicFailure as exc:
                    got = str(exc)
                    need = solver.left[0]
                    certified += (need is None or need > q) and \
                        not _priced(solver)
                assert got == want
                solved += not isinstance(got, str)
                # Starts whose reach a row alone cut short of where the
                # total-work break would have stopped.
                prefix = dpa2d._levels(prob.spg)[3]
                col_cap = p * solver.cap_work
                row_cut += sum(
                    r < solver.xmax and prefix[r + 1] - prefix[m] <= col_cap
                    for m, r in enumerate(solver.reach)
                )
        assert solved > 0
        assert row_cut > 0  # the reach bound cut some start short
        assert certified > 0  # some failures never reached the DP

    @pytest.mark.parametrize("heuristic", ["dpa2d_mapping", "dpa2d1d_mapping"])
    @pytest.mark.parametrize("topology", ["mesh", "hetmesh"])
    def test_mappings_equal(self, monkeypatch, heuristic, topology):
        fn = getattr(dpa2d, heuristic)
        for prob in _problems(topology):
            got = _outcome(lambda: fn(prob))
            # A fresh copy starts an empty solve memo, so the reference
            # really solves instead of replaying the production result.
            fresh = ProblemInstance(prob.spg.with_weights(), prob.grid,
                                    prob.period)
            with monkeypatch.context() as m:
                m.setattr(dpa2d, "_Dpa2dSolver", ReferenceDpa2dSolver)
                want = _outcome(lambda: fn(fresh))
            if isinstance(want, tuple):
                assert got == want
            else:
                assert (got.alloc, got.speeds) == (want.alloc, want.speeds)


@st.composite
def _dpa2d_problem(draw):
    """A random SPG (fig12's n=150 shape among them), a period from loose
    to infeasible, a fabric and a grid size."""
    if draw(st.booleans()):
        n, elevation = 150, draw(st.integers(2, 24))
    else:
        n = draw(st.integers(8, 160))
        elevation = draw(st.integers(1, max(1, min(24, n // 3))))
    g = random_spg_with_elevation(
        n, elevation, np.random.default_rng(draw(st.integers(0, 10_000))),
        ccr=10.0,
    )
    parallelism = draw(st.sampled_from([1.5, 4.0, 8.0, 16.0, 40.0]))
    topology = draw(st.sampled_from(["mesh", "ring", "hetmesh"]))
    p, q = draw(st.sampled_from([(4, 4), (2, 3), (3, 5)]))
    return ProblemInstance(
        g, get_topology(topology, p, q), g.total_work / 1e9 / parallelism
    )


def _shapes(prob):
    return sorted({(prob.grid.p, prob.grid.q), (1, prob.grid.n_cores),
                   (4, 4)})


class TestDpa2dReachBound:
    """The reach bound and the column-count certificate change no output:
    same plans and energy bits, or the same failure message."""

    @settings(max_examples=15, deadline=None)
    @given(prob=_dpa2d_problem())
    def test_matches_reference(self, prob):
        for p, q in _shapes(prob):
            got = _solve(dpa2d._Dpa2dSolver, prob, p, q)
            assert got == _solve(ReferenceDpa2dSolver, prob, p, q)

    @staticmethod
    def _graph(kind, work):
        """A level holding one stage of ``work`` per row: two branches on
        rows 1 and 2 (level 2), or the middle of a three-stage chain."""
        if kind == "branches":
            return split_join([1, 1], w_source=1e8, w_sink=1e8,
                              w_branch=work, comm=1e3)
        return chain(3, [1e8, work, 1e8], [1e3] * 2)

    CASES = [("branches", 4, 4), ("chain", 4, 4), ("chain", 1, 16)]

    @pytest.mark.parametrize("kind,p,q", CASES)
    def test_row_exactly_at_capacity(self, kind, p, q):
        g = self._graph(kind, 1e9)
        prob = ProblemInstance(g, CMPGrid(4, 4), 1.0)  # T * s_max = 1e9
        got = _solve(dpa2d._Dpa2dSolver, prob, p, q)
        assert got == _solve(ReferenceDpa2dSolver, prob, p, q)
        assert not isinstance(got, str)

    @pytest.mark.parametrize("kind,p,q", CASES)
    def test_row_inside_the_slack(self, kind, p, q):
        # 1e-10 over T * s_max: past the exact tests' 1e-12 tolerance but
        # inside the bound's 1e-9 slack, so the exact tests must decide.
        g = self._graph(kind, 1e9 * (1 + 1e-10))
        prob = ProblemInstance(g, CMPGrid(4, 4), 1.0)
        solver = dpa2d._Dpa2dSolver(prob, p, q)
        got = _solve(lambda *_a: solver, prob, p, q)
        assert got == _solve(ReferenceDpa2dSolver, prob, p, q)
        assert got == "DPA2D: no feasible column decomposition"
        assert solver.reach[1] >= 2  # the bound admitted level 2
        assert _priced(solver)  # ... and the DP priced a column

    @pytest.mark.parametrize("period", [0.0, -1.0])
    @pytest.mark.parametrize("p,q", [(4, 4), (1, 16)])
    def test_non_positive_period(self, period, p, q):
        # ProblemInstance rejects such a period; the solvers read only
        # these three attributes.
        g = self._graph("branches", 1e8)
        prob = SimpleNamespace(spg=g, grid=CMPGrid(4, 4), period=period)
        solver = dpa2d._Dpa2dSolver(prob, p, q)
        got = _solve(lambda *_a: solver, prob, p, q)
        assert got == _solve(ReferenceDpa2dSolver, prob, p, q)
        assert got == "DPA2D: no feasible column decomposition"
        assert not _priced(solver)  # the certificate failed it


@st.composite
def _tight_problem(draw):
    """A random SPG and period on a fabric, for solves whose column
    budget ``q`` sits at the fewest columns the reach bound allows."""
    n = draw(st.integers(8, 80))
    elevation = draw(st.integers(1, max(1, min(16, n // 3))))
    g = random_spg_with_elevation(
        n, elevation, np.random.default_rng(draw(st.integers(0, 10_000))),
        ccr=10.0,
    )
    parallelism = draw(st.sampled_from([1.5, 3.0, 6.0, 10.0]))
    topology = draw(st.sampled_from(["mesh", "ring", "hetmesh"]))
    return ProblemInstance(
        g, get_topology(topology, 4, 4), g.total_work / 1e9 / parallelism
    )


class TestDpa2dCompletableStates:
    """The outer DP builds only states that can finish in the columns
    left, and that changes no output."""

    @settings(max_examples=25, deadline=None)
    @given(prob=_tight_problem())
    def test_tight_budget_matches_reference(self, prob):
        for p in (1, 2, 4):
            need = dpa2d._columns_left(dpa2d._Dpa2dSolver(prob, p, 1)
                                       .reach_bound())[0]
            if need is None:
                need = prob.spg.xmax + 1  # no budget can finish
            for q in (need - 1, need, need + 1):
                if q < 1:
                    continue
                got = _solve(dpa2d._Dpa2dSolver, prob, p, q)
                assert got == _solve(ReferenceDpa2dSolver, prob, p, q)

    def test_builds_only_completable_columns(self):
        # A fig10-shaped instance (n=50, CCR 10) at 4x4 that needs all
        # four columns, so the budget is tight from the first round.
        g = random_spg_with_elevation(
            50, 2, np.random.default_rng(1), ccr=10.0
        )
        prob = ProblemInstance(g, CMPGrid(4, 4), g.total_work / 1e9 / 3.0)
        solver = dpa2d._Dpa2dSolver(prob, 4, 4)
        with observability() as session:
            e, plans = solver.solve()
        reference = ReferenceDpa2dSolver(prob, 4, 4)
        assert (repr(e), plans) == _solve(lambda *_a: reference, prob, 4, 4)
        left = solver.left
        assert left[0] == 4
        assert all(left[m2] is not None and left[m2] <= 4 - 1
                   for _m1, m2, _din in solver._columns)
        assert len(solver._columns) < len(reference._columns)
        assert session.metrics.counters["dpa2d.columns"] == len(
            solver._columns)

    @pytest.mark.parametrize("p", [1, 4])
    def test_columns_left_is_the_fewest_and_nonincreasing(self, p):
        g = random_spg_with_elevation(
            50, 8, np.random.default_rng(0), ccr=10.0
        )
        prob = ProblemInstance(g, CMPGrid(4, 4), g.total_work / 1e9 / 6.0)
        reach = dpa2d._Dpa2dSolver(prob, p, 4).reach_bound()
        left = dpa2d._columns_left(reach)
        inf = len(reach) + 1
        # Brute force: fewest admitted ranges from each level to the end.
        want = [0] * (len(reach) + 1)
        for m in range(len(reach) - 1, -1, -1):
            want[m] = min((want[r] + 1 for r in range(m + 1, reach[m] + 1)),
                          default=inf)
        want = [None if k >= inf else k for k in want]
        assert left == want
        ranks = [inf if k is None else k for k in left]
        assert ranks == sorted(ranks, reverse=True)


class TestDpa2dSharedBlocks:
    """The CCR variants of a StreamIt workflow share one set of level
    blocks (the shape cache), and solving through them changes no
    output."""

    CCRS = (None, 10.0, 1.0, 0.1)

    @pytest.mark.parametrize("index", range(1, 13))
    def test_variants_match_unshared_copies(self, index, monkeypatch):
        variants = streamit_variants(index, self.CCRS, seed=2011)
        built = []
        block_cls = dpa2d._Block

        def spy(*args):
            built.append(args[1:])
            return block_cls(*args)

        grid = CMPGrid(4, 4)
        for g in variants:
            # Unpickling starts empty caches, so the copy builds its own
            # blocks (outside the spy).
            fresh = pickle.loads(pickle.dumps(g))
            for parallelism in (2.0, 6.0):
                T = g.total_work / 1e9 / parallelism
                for p, q in ((4, 4), (1, 16)):
                    with monkeypatch.context() as m:
                        m.setattr(dpa2d, "_Block", spy)
                        got = _solve(dpa2d._Dpa2dSolver,
                                     ProblemInstance(g, grid, T), p, q)
                    want = _solve(dpa2d._Dpa2dSolver,
                                  ProblemInstance(fresh, grid, T), p, q)
                    assert got == want
        assert built and len(built) == len(set(built))

    @settings(max_examples=10, deadline=None)
    @given(prob=_tight_problem(),
           factors=st.lists(st.sampled_from([1e-3, 0.5, 4.0, 1e3]),
                            min_size=1, max_size=3))
    def test_comm_scaled_copies_match_reference(self, prob, factors):
        """Each copy solves on the blocks the earlier ones built."""
        for factor in (1.0, *factors):
            scaled = ProblemInstance(prob.spg.with_comm_scaled(factor),
                                     prob.grid, prob.period)
            for p, q in _shapes(scaled):
                got = _solve(dpa2d._Dpa2dSolver, scaled, p, q)
                assert got == _solve(ReferenceDpa2dSolver, scaled, p, q)


class TestDpa2d1dLevelRanges:
    """With one core per column the outer DP prices every candidate from
    the level-range costs (:meth:`_Dpa2dSolver.line_costs`), which must
    be the reference blocks' own floats, whatever the labelling."""

    @settings(max_examples=15, deadline=None)
    @given(prob=_dpa2d_problem())
    def test_line_solves_match_reference(self, prob):
        for q in sorted({1, 2, prob.grid.q, prob.grid.n_cores}):
            got = _solve(dpa2d._Dpa2dSolver, prob, 1, q)
            assert got == _solve(ReferenceDpa2dSolver, prob, 1, q)

    @settings(max_examples=10, deadline=None)
    @given(prob=_dpa2d_problem())
    def test_dpa2d1d_and_ring_dpa2d_mappings(self, prob):
        ring = ProblemInstance(prob.spg, get_topology("ring", 4, 4),
                               prob.period)
        for fn, inst in ((dpa2d.dpa2d1d_mapping, prob),
                         (dpa2d.dpa2d_mapping, ring)):
            got = _outcome(lambda: fn(inst))
            fresh = ProblemInstance(inst.spg.with_weights(), inst.grid,
                                    inst.period)
            real = dpa2d._Dpa2dSolver
            dpa2d._Dpa2dSolver = ReferenceDpa2dSolver
            try:
                want = _outcome(lambda: fn(fresh))
            finally:
                dpa2d._Dpa2dSolver = real
            if isinstance(want, tuple):
                assert got == want
            else:
                assert (got.alloc, got.speeds) == (want.alloc, want.speeds)

    @staticmethod
    def _fallback_dag(seed):
        """A hand-built DAG with fallback labels whose rows hold stages
        against ``x`` order: row 1 is 0, 5, 2, 6, 1, 3, 8 by ``x`` (the
        chain 0 -> 5 -> 2 -> 7 -> 1 -> 3 -> 8 with a branch 5 -> 4 -> 6
        -> 3 on levels 3 and 4)."""
        rng = np.random.default_rng(seed)
        edges = {(0, 5): 1e3, (5, 2): 1e3, (2, 7): 1e3, (7, 1): 1e3,
                 (1, 3): 1e3, (3, 8): 1e3, (5, 4): 1e3, (4, 6): 1e3,
                 (6, 3): 1e3}
        return SPG((rng.uniform(0.1, 1.0, 9) * 1e8).tolist(), None, edges)

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_fallback_labels_against_x(self, seed):
        g = self._fallback_dag(seed)
        assert [i for i in range(g.n) if g.labels[i][1] == 1] != sorted(
            (i for i in range(g.n) if g.labels[i][1] == 1),
            key=lambda i: g.labels[i][0])
        order_matters = 0
        for parallelism in (1.2, 2.0, 3.5, 6.0):
            prob = ProblemInstance(g, CMPGrid(4, 4),
                                   g.total_work / 1e9 / parallelism)
            solver = dpa2d._Dpa2dSolver(prob, 1, 16)
            ref = ReferenceDpa2dSolver(prob, 1, 16)
            line = solver.line_costs()
            prefix = dpa2d._levels(g)[3]
            for m_prev in range(g.xmax):
                for m in range(m_prev + 1, g.xmax + 1):
                    blk = ref.block(m_prev + 1, m)
                    cl = blk.cluster(0, blk.ymax)
                    over = prefix[m] - prefix[m_prev] > solver.cap_work
                    want = INF if cl is None or over else cl[0]
                    assert line[m_prev, m] == want
                    # The fold by x order, as a check that this graph
                    # tells the orders apart.
                    by_x = 0.0
                    for y in sorted(blk.rows):
                        rw = 0.0
                        for i in sorted(blk.rows[y],
                                        key=lambda i: g.labels[i][0]):
                            rw += g.weights[i]
                        by_x += rw
                    order_matters += by_x != blk._pwork[blk.ymax]
            for q in (2, 4, 16):
                got = _solve(dpa2d._Dpa2dSolver, prob, 1, q)
                assert got == _solve(ReferenceDpa2dSolver, prob, 1, q)
        assert order_matters > 0

    def test_levels_without_stages(self):
        """Explicit labels may skip a level: a range of empty levels is
        no column, as in the reference, here with a model where an idle
        core would cost nothing."""
        g = SPG([3e8, 2e8, 4e8, 1e8], [(1, 1), (3, 1), (4, 1), (6, 1)],
                {(0, 1): 1e3, (1, 2): 1e3, (2, 3): 1e3})
        model = PowerModel((1e9, 2e9), (1.0, 2.0), 0.0, 0.0, 6e-12,
                           1.92e10)
        for parallelism in (1.0, 2.0, 3.0):
            prob = ProblemInstance(g, CMPGrid(4, 4, model=model),
                                   g.total_work / 2e9 / parallelism)
            for q in (2, 3, 4, 6, 16):
                got = _solve(dpa2d._Dpa2dSolver, prob, 1, q)
                assert got == _solve(ReferenceDpa2dSolver, prob, 1, q)

    @pytest.mark.parametrize("period", [3 / 16, 5 / 16, 7 / 16])
    def test_ties_keep_the_first_parent(self, period):
        """Dyadic weights, speeds and powers make equal decompositions
        tie exactly; each state keeps its first minimal predecessor, in
        ascending ``m_prev``, as the reference's strict scan does."""
        model = PowerModel((2.0**28, 2.0**30), (0.25, 1.0), 0.5, 0.0,
                           2.0**-40, 2.0**40)
        w = 2.0**26
        for g in (chain(8, [w] * 8, [1024.0] * 7),
                  split_join([2, 2], w_source=w, w_sink=w, w_branch=w,
                             comm=1024.0)):
            prob = ProblemInstance(g, CMPGrid(4, 4, model=model), period)
            for p, q in ((1, 16), (1, 4), (2, 8), (4, 4)):
                got = _solve(dpa2d._Dpa2dSolver, prob, p, q)
                assert got == _solve(ReferenceDpa2dSolver, prob, p, q)

    @pytest.mark.parametrize("index", [1, 8, 12])
    def test_ccr_variants_share_one_line_matrix(self, index):
        variants = streamit_variants(index, (None, 10.0, 1.0, 0.1),
                                     seed=2011)
        grid = CMPGrid(4, 4)
        T = variants[0].total_work / 1e9 / 4.0
        solvers = [dpa2d._Dpa2dSolver(ProblemInstance(g, grid, T), 1, 16)
                   for g in variants]
        shared = solvers[0].line_costs()
        assert all(s.line_costs() is shared for s in solvers)
        fresh = pickle.loads(pickle.dumps(variants[-1]))
        own = dpa2d._Dpa2dSolver(ProblemInstance(fresh, grid, T), 1,
                                 16).line_costs()
        assert own is not shared and own.tobytes() == shared.tobytes()
        for g in variants:
            prob = ProblemInstance(g, grid, T)
            got = _solve(dpa2d._Dpa2dSolver, prob, 1, 16)
            assert got == _solve(ReferenceDpa2dSolver, prob, 1, 16)
