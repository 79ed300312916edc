"""Tests for the exact solvers: brute force and the Section-4.4 ILP."""

import os

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from scipy.optimize import milp

from repro.core.errors import HeuristicFailure
from repro.core.evaluate import energy, validate
from repro.core.problem import ProblemInstance
from repro.exact import ilp_model
from repro.exact.brute_force import brute_force_optimal, enumerate_dag_partitions
from repro.exact.ilp_model import build_ilp, ilp_optimal
from repro.experiments import run_all
from repro.platform.cmp import CMPGrid
from repro.platform.speeds import GHZ
from repro.platform.topology import get_topology, topology_names
from repro.solvers import run
from repro.spg.build import chain, diamond
from repro.spg.graph import SPG
from repro.spg.random_gen import random_spg
from tests.test_properties import spgs


class TestEnumerateDagPartitions:
    def test_chain_partitions_are_intervals(self, grid_2x2):
        g = chain(4, [1e8] * 4, [1e3] * 3)
        prob = ProblemInstance(g, grid_2x2, 1.0)
        parts = enumerate_dag_partitions(prob)
        # Interval partitions of 4 elements into <= 4 blocks: 2^3 = 8.
        assert len(parts) == 8

    def test_cluster_count_capped(self, grid_2x2):
        g = chain(4, [1e8] * 4, [1e3] * 3)
        prob = ProblemInstance(g, grid_2x2, 1.0)
        parts = enumerate_dag_partitions(prob, max_clusters=2)
        assert all(len(p) <= 2 for p in parts)
        assert len(parts) == 4  # 3 cuts choose 1 + the single block

    def test_partitions_cover_all_stages(self, small_diamond, grid_2x2):
        prob = ProblemInstance(small_diamond, grid_2x2, 1.0)
        for part in enumerate_dag_partitions(prob):
            stages = sorted(i for cl in part for i in cl)
            assert stages == list(range(small_diamond.n))

    def test_weight_cap_respected(self, grid_2x2):
        g = chain(3, [6e8, 6e8, 6e8], [1e3] * 2)
        prob = ProblemInstance(g, grid_2x2, 1.0)  # cap 1e9: max 1 stage + eps
        for part in enumerate_dag_partitions(prob):
            for cl in part:
                assert sum(g.weights[i] for i in cl) <= 1e9


class TestBruteForce:
    def test_optimal_beats_every_heuristic(self, small_diamond, grid_2x2):
        prob = ProblemInstance(small_diamond, grid_2x2, 0.6)
        _m, best = brute_force_optimal(prob)
        for name, res in run_all(prob, rng=0).items():
            if res.ok:
                assert res.total_energy >= best * (1 - 1e-9), name

    def test_mapping_is_valid(self, small_diamond, grid_2x2):
        prob = ProblemInstance(small_diamond, grid_2x2, 0.6)
        m, e = brute_force_optimal(prob)
        assert energy(m, 0.6).total == pytest.approx(e)
        validate(m, 0.6)

    def test_infeasible_raises(self, grid_2x2):
        g = chain(2, [5e9, 5e9], [1.0])
        with pytest.raises(HeuristicFailure):
            brute_force_optimal(ProblemInstance(g, grid_2x2, 1.0))

    def test_loose_period_single_core(self, grid_2x2):
        g = chain(3, [1e7] * 3, [1e2] * 2)
        m, _e = brute_force_optimal(ProblemInstance(g, grid_2x2, 1.0))
        assert len(m.active_cores()) == 1


@pytest.fixture
def tiny_problem(two_speed_model):
    g = diamond((4e8, 2e8, 3e8, 1e8), (1e7, 2e7, 3e7, 4e7))
    grid = CMPGrid(2, 2, two_speed_model)
    return ProblemInstance(g, grid, 0.6)


class TestIlp:
    def test_matches_brute_force(self, tiny_problem):
        _bm, bf = brute_force_optimal(tiny_problem)
        m, obj = ilp_optimal(tiny_problem)
        assert obj == pytest.approx(bf, rel=1e-6)

    def test_optimum_where_raw_period_rows_misled_highs(self, two_speed_model):
        # With period rows in raw cycles, HiGHS proved 2.74792 optimal here.
        g = SPG(
            [365473685.68001944, 396669097.6721858, 331401036.68897563,
             5912074.327176785, 10749226.049412336, 500000000.0],
            None,
            {(0, 1): 1900000.0, (1, 2): 22142937.789250143,
             (2, 4): 21993032.92070506, (1, 3): 43623570.39622916,
             (3, 4): 4925985.849440585, (4, 5): 48805238.07367493},
        )
        prob = ProblemInstance(g, CMPGrid(2, 2, two_speed_model), 0.525)
        _bm, bf = brute_force_optimal(prob)
        _m, obj = ilp_optimal(prob)
        assert obj == pytest.approx(bf, rel=1e-9)

    def test_decoded_mapping_matches_objective(self, tiny_problem):
        m, obj = ilp_optimal(tiny_problem)
        b = validate(m, tiny_problem.period)
        assert b.total == pytest.approx(obj, rel=1e-9)

    def test_chain_on_line(self, two_speed_model):
        g = chain(3, [4e8, 5e8, 3e8], [1e6, 1e6])
        grid = CMPGrid.uni_line(2, two_speed_model)
        prob = ProblemInstance(g, grid, 0.8)
        _bm, bf = brute_force_optimal(prob)
        _m, obj = ilp_optimal(prob)
        assert obj == pytest.approx(bf, rel=1e-6)

    def test_infeasible(self, two_speed_model):
        g = chain(2, [5e9, 5e9], [1.0])
        prob = ProblemInstance(g, CMPGrid(2, 2, two_speed_model), 1.0)
        with pytest.raises(HeuristicFailure):
            ilp_optimal(prob)

    def test_node_limit_with_incumbent_raises(self, tiny_problem):
        # One node leaves HiGHS holding an unproven incumbent (1.02928
        # against the optimum 1.02784): no "optimum" may come back.
        with pytest.raises(HeuristicFailure, match="ILP: milp status 4"):
            ilp_optimal(tiny_problem, max_nodes=1)

    def test_highs_output_stays_off_stdout(
        self, two_speed_model, capfd, monkeypatch
    ):
        # HiGHS printed a line from C code on this instance while the
        # period rows were in raw cycles; the wrapper writes one always,
        # the way HiGHS does, past Python's sys.stdout.
        def noisy_milp(*args, **kwargs):
            os.write(1, b"HighsMipSolverData: written to descriptor 1\n")
            return milp(*args, **kwargs)

        monkeypatch.setattr(ilp_model, "milp", noisy_milp)
        g = random_spg(6, rng=1, ccr=1.0)
        T = max(1.3 * max(g.weights) / GHZ, g.total_work / GHZ / 3)
        ilp_optimal(ProblemInstance(g, CMPGrid(2, 2, two_speed_model), T))
        assert capfd.readouterr().out == ""

    def test_model_dimensions(self, tiny_problem):
        ilp = build_ilp(tiny_problem)
        n, nk, cores = 4, 2, 4
        n_x = n * nk * cores
        n_m = nk * cores
        assert len(ilp.x_idx) == n_x
        assert len(ilp.m_idx) == n_m
        # Interior 2x2 grid: each core has exactly 2 in-bounds directions.
        assert len(ilp.c_idx) == len(tiny_problem.spg.edges) * 2 * cores
        assert ilp.n_vars == n_x + n_m + len(ilp.c_idx)

    def test_dag_partition_enforced(self, two_speed_model):
        """Forcing fork+join together must force the branches in too."""
        # Weights such that {fork, join} on one core and branches elsewhere
        # would be cheapest if the DAG-partition constraint were missing.
        g = diamond((1e8, 4e8, 4e8, 1e8), (1e7, 1e7, 1e7, 1e7))
        prob = ProblemInstance(g, CMPGrid(2, 2, two_speed_model), 0.45)
        m, _obj = ilp_optimal(prob)
        cl = {i: m.alloc[i] for i in range(4)}
        if cl[0] == cl[3]:
            assert cl[1] == cl[0] and cl[2] == cl[0]


class TestTopologyThreading:
    """PR-4 satellite: exact solvers are threaded through the topology
    abstraction like the heuristics — brute force follows any fabric's
    own routing and per-core models, the ILP fails loudly where its
    mesh formulation does not apply."""

    def test_bruteforce_on_torus_beats_heuristics(self, xscale):
        g = diamond((4e8, 2e8, 3e8, 1e8), (1e7, 2e7, 3e7, 4e7))
        prob = ProblemInstance(g, get_topology("torus", 3, 3, xscale), 0.6)
        m, best = brute_force_optimal(prob)
        validate(m, 0.6)
        for path in m.paths.values():
            prob.grid.validate_path(path)
        for name, res in run_all(prob, rng=0).items():
            if res.ok:
                assert res.total_energy >= best * (1 - 1e-9), name

    def test_bruteforce_heterogeneous_cap_uses_fastest_core(self, xscale):
        """A stage only the scaled-up core can execute must be found
        (the old ``grid.model.s_max`` cap silently pruned it)."""
        s_max = xscale.s_max
        grid = CMPGrid(1, 2, xscale, speed_scales=(((0, 0), 2.0),))
        g = chain(2, [1.5 * s_max, 0.1 * s_max], [1e3])
        m, _e = brute_force_optimal(ProblemInstance(g, grid, 1.0))
        assert m.alloc[0] == (0, 0)  # the big stage sits on the fast core
        validate(m, 1.0)

    def test_ilp_rejects_non_mesh_topologies(self, xscale):
        from repro.core.errors import UnsupportedPlatform

        g = diamond((4e8, 2e8, 3e8, 1e8), (1e7, 2e7, 3e7, 4e7))
        for topo in ("torus", "ring", "benes"):
            prob = ProblemInstance(g, get_topology(topo, 2, 2, xscale), 0.6)
            with pytest.raises(UnsupportedPlatform, match="mesh"):
                ilp_optimal(prob)

    def test_ilp_rejects_heterogeneous_and_unidirectional(self, xscale):
        from repro.core.errors import UnsupportedPlatform

        g = chain(2, [1e8, 1e8], [1e3])
        het = CMPGrid(2, 2, xscale, speed_scales=(((0, 0), 0.5),))
        with pytest.raises(UnsupportedPlatform, match="homogeneous"):
            ilp_optimal(ProblemInstance(g, het, 1.0))
        uni = CMPGrid.uni_line(2, xscale, uni_directional=True)
        with pytest.raises(UnsupportedPlatform, match="link structure"):
            build_ilp(ProblemInstance(g, uni, 1.0))


# ----------------------------------------------------------------------
# The ILP's own rows as a second validator
# ----------------------------------------------------------------------
#: One route hop (du, dv) -> the ILP's direction name, stated here rather
#: than taken from ``ilp_model`` so the encoding checks the convention.
HOP_DIRECTION = {(-1, 0): "N", (1, 0): "S", (0, -1): "W", (0, 1): "E"}


def encode_mapping(ilp, mapping) -> np.ndarray:
    """``mapping`` written in the ILP's binary variables.

    ``x[i,k,u,v]`` places stage ``i`` on core ``(u,v)`` at speed index
    ``k``, ``m[k,u,v]`` marks each active core's speed, and each hop of
    each route sets one ``c[i,j,d,u,v]``.
    """
    speeds = list(ilp.problem.grid.model.speeds)
    v = np.zeros(ilp.n_vars)
    for i, (u, w) in mapping.alloc.items():
        k = speeds.index(mapping.speeds[(u, w)])
        v[ilp.x_idx[(i, k, u, w)]] = 1.0
        v[ilp.m_idx[(k, u, w)]] = 1.0
    for (i, j), path in mapping.paths.items():
        for (u, w), (uu, ww) in zip(path, path[1:]):
            v[ilp.c_idx[(i, j, HOP_DIRECTION[(uu - u, ww - w)], u, w)]] = 1.0
    return v


def violated_rows(ilp, v: np.ndarray) -> list[int]:
    """Indices of the ``A_ub`` rows ``v`` breaks, up to rounding."""
    lhs = ilp.A_ub @ v
    scale = np.abs(ilp.A_ub) @ v + np.abs(ilp.b_ub)
    return list(np.flatnonzero(lhs > ilp.b_ub + 1e-9 * scale))


class TestIlpEncoding:
    """Each heuristic mapping, encoded into the ILP's variables, meets
    every row of the model and prices at its evaluated energy.  This
    validator shares no code with ``core.evaluate.validate``."""

    @pytest.mark.parametrize("p, q", [(2, 2), (2, 3), (3, 3)])
    def test_heuristic_mappings_satisfy_every_row(self, two_speed_model, p, q):
        grid = CMPGrid(p, q, two_speed_model)
        checked = 0
        for seed in range(20):
            g = random_spg(7, rng=seed, ccr=1.0)
            T = max(1.3 * max(g.weights) / GHZ, g.total_work / GHZ / 3)
            ilp = build_ilp(ProblemInstance(g, grid, T))
            for name, res in run_all(ilp.problem, rng=seed).items():
                if not res.ok:
                    continue
                v = encode_mapping(ilp, res.mapping)
                assert violated_rows(ilp, v) == [], (seed, name)
                np.testing.assert_array_equal(ilp.A_eq @ v, ilp.b_eq)
                # comm_leak is 0, so the objective is the whole energy.
                assert ilp.c @ v == pytest.approx(
                    energy(res.mapping, T).total, rel=1e-9
                ), (seed, name)
                checked += 1
        # 59, 79 and 83 of the 100 runs map at 2x2, 2x3 and 3x3.
        assert checked >= 50

    def test_dropped_route_breaks_a_row(self, tiny_problem):
        ilp = build_ilp(tiny_problem)
        mapping = run("Greedy", tiny_problem, rng=0).mapping
        v = encode_mapping(ilp, mapping)
        assert violated_rows(ilp, v) == []
        (i, j), _path = next(iter(mapping.paths.items()))
        for (ei, ej, _d, _u, _w), idx in ilp.c_idx.items():
            if (ei, ej) == (i, j):
                v[idx] = 0.0
        assert violated_rows(ilp, v)


# ----------------------------------------------------------------------
# Exact oracles over random SPGs
# ----------------------------------------------------------------------
small_spgs = spgs().filter(lambda g: 3 <= g.n <= 6)


def oracle_instance(g, grid) -> ProblemInstance:
    """``g`` scaled to cycles and bytes, at a period at which one core
    can carry a third of the work and no link is ever full."""
    scale = 5e8 / max(g.weights)
    g = g.with_weights(
        weights=[w * scale for w in g.weights],
        edges={e: d * 1e6 for e, d in g.edges.items()},
    )
    s_max = grid.model.s_max
    return ProblemInstance(
        g, grid, max(1.3 * max(g.weights) / s_max, g.total_work / s_max / 3)
    )


class TestExactOracles:
    @given(small_spgs, st.sampled_from(topology_names()), st.integers(0, 99))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_no_heuristic_beats_brute_force(self, g, topology, seed):
        prob = oracle_instance(g, get_topology(topology, 2, 2))
        try:
            _m, best = brute_force_optimal(prob)
        except HeuristicFailure:
            best = float("inf")
        for name, res in run_all(prob, rng=seed).items():
            if res.ok:
                assert res.total_energy >= best * (1 - 1e-9), name

    @given(g=small_spgs)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_ilp_equals_brute_force_on_mesh(self, g, two_speed_model):
        # No link binds at the oracle period, so brute force's fixed XY
        # routes cost the ILP's free routing nothing.
        prob = oracle_instance(g, CMPGrid(2, 2, two_speed_model))
        try:
            _bm, bf = brute_force_optimal(prob)
        except HeuristicFailure:
            with pytest.raises(HeuristicFailure):
                ilp_optimal(prob)
            return
        _im, obj = ilp_optimal(prob)
        assert obj == pytest.approx(bf, rel=1e-6)

    @given(g=small_spgs)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_ilp_optimum_is_a_dag_partition(self, g, two_speed_model):
        # The converse of TestIlpEncoding: the ILP's convexity rows admit
        # convex clusters with a cyclic quotient ({a1, b2} and {a2, b1}
        # over two parallel branches), so check every optimum against the
        # strict DAG-partition rule.
        prob = oracle_instance(g, CMPGrid(2, 2, two_speed_model))
        try:
            mapping, obj = ilp_optimal(prob)
        except HeuristicFailure:
            return
        breakdown = validate(mapping, prob.period, require_dag_partition=True)
        assert breakdown.total == pytest.approx(obj, rel=1e-9)

    @given(small_spgs)
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_dpa1d_equals_brute_force_on_uniline(self, g):
        prob = oracle_instance(g, get_topology("uniline", 2, 2))
        res = run("DPA1D", prob)
        try:
            _m, bf = brute_force_optimal(prob)
        except HeuristicFailure:
            assert not res.ok
            return
        assert res.ok and res.total_energy == pytest.approx(bf, rel=1e-9)
