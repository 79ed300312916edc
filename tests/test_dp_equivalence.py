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
and its reach bound and column-count certificate must keep it so, on
drawn graphs and at the edges of the bound's slack.
"""

from __future__ import annotations

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
from repro.platform.topology import get_topology
from repro.spg.build import chain, split_join
from repro.spg.decompose import transition_lower_bound
from repro.spg.random_gen import random_spg_with_elevation
from tests.dp_reference import ReferenceDpa2dSolver, reference_uniline


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

        def spy(lat, roots, *args):
            try:
                out = forest(lat, roots, *args)
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
                    need = dpa2d._fewest_columns(solver.reach)
                    certified += (need is None or need > q) and \
                        not solver._columns
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
            with monkeypatch.context() as m:
                m.setattr(dpa2d, "_Dpa2dSolver", ReferenceDpa2dSolver)
                want = _outcome(lambda: fn(prob))
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
        assert solver._columns  # ... and the DP ran

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
        assert not solver._columns  # the certificate failed it
