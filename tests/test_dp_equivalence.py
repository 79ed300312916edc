"""The layered DPA1D loop and the per-graph DPA2D blocks against the
reference copies of the DP heuristics in ``tests/dp_reference.py``.

DPA1D runs one DP loop fed by two transition sources: slices of the
lattice's flat suffix table (n <= 62) and per-ideal suffix clusters for
wider graphs.  Both must reproduce the per-ideal scalar DP exactly:
energy, cluster count, clusters, speeds, and a budget failure raised
after the same suffix enumerations.  DPA2D must return the same plans
and the same energy bits as the solver that built its blocks per
solver and costed clusters lazily.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.errors import HeuristicFailure
from repro.core.partition import IdealLattice
from repro.core.problem import ProblemInstance
from repro.heuristics import dpa2d
from repro.heuristics.dpa1d import _UnilineDP, solve_uniline
from repro.platform.cmp import CMPGrid
from repro.platform.topology import get_topology
from repro.spg.random_gen import random_spg_with_elevation
from tests.dp_reference import ReferenceDpa2dSolver, reference_uniline


def _outcome(fn):
    try:
        return fn()
    except HeuristicFailure as exc:
        return (type(exc).__name__, str(exc))


def _suffix_reads(lat, monkeypatch) -> list[int]:
    """Record every ideal whose suffix clusters are read from ``lat``."""
    reads: list[int] = []
    inner = lat.suffix_clusters_weighted

    def spy(ideal, max_weight):
        reads.append(ideal)
        return inner(ideal, max_weight)

    monkeypatch.setattr(lat, "suffix_clusters_weighted", spy)
    return reads


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
        with monkeypatch.context() as m:
            reads = _suffix_reads(IdealLattice.for_spg(g, 120_000), m)
            want = _outcome(lambda: reference_uniline(
                prob, r, transition_budget=budget))
            want_reads = list(reads)
            reads.clear()
            got = _outcome(lambda: solve_uniline(
                prob, r, transition_budget=budget))
        if isinstance(got, tuple) and len(got) == 3:
            e, clusters, speeds = got
            got = (e, len(clusters), clusters, speeds)
        assert got == want
        assert reads == want_reads

    def test_budget_failure_at_the_same_ideal(self, monkeypatch):
        g = random_spg_with_elevation(
            70, 2, np.random.default_rng(3), ccr=10.0
        )
        prob = ProblemInstance(g, CMPGrid(4, 4), g.total_work / 1e9 / 4)
        reads = _suffix_reads(IdealLattice.for_spg(g, 120_000), monkeypatch)
        for run in (reference_uniline, solve_uniline):
            reads.clear()
            with pytest.raises(HeuristicFailure,
                               match="DPA1D exceeded 500 DP transitions"):
                run(prob, 16, transition_budget=500)
            if run is reference_uniline:
                want = list(reads)
        assert reads == want
        assert 0 < len(want) < len(IdealLattice.for_spg(g, 120_000).ideals())


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
        rejected = solved = 0
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
                assert got == want
                solved += not isinstance(got, str)
                if p > 1:
                    rejected += sum(
                        tab is None and solver.block(*key).stages != []
                        for key, tab in solver._clusters.items()
                    )
        assert solved > 0
        assert rejected > 0  # some blocks were row-rejected

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
