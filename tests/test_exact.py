"""Tests for the exact solvers: brute force and the Section-4.4 ILP."""

import pytest

from repro.core.errors import HeuristicFailure
from repro.core.evaluate import energy, validate
from repro.core.problem import ProblemInstance
from repro.exact.bnb import solve_binary_program
from repro.exact.brute_force import brute_force_optimal, enumerate_dag_partitions
from repro.exact.ilp_model import build_ilp, ilp_optimal
from repro.platform.cmp import CMPGrid
from repro.spg.build import chain, diamond
from repro.spg.random_gen import random_spg

import numpy as np


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
        from repro.experiments import run_all

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


class TestBnB:
    def test_simple_knapsack(self):
        # max x0 + 2 x1 subject to x0 + x1 <= 1  ->  min -(x0 + 2 x1).
        res = solve_binary_program(
            np.array([-1.0, -2.0]),
            np.array([[1.0, 1.0]]),
            np.array([1.0]),
            None,
            None,
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-2.0)
        assert list(res.x) == [0.0, 1.0]

    def test_infeasible(self):
        # x0 >= 2 is impossible for a binary variable.
        res = solve_binary_program(
            np.array([1.0]),
            np.array([[-1.0]]),
            np.array([-2.0]),
            None,
            None,
        )
        assert res.status == "infeasible"
        assert res.x is None

    def test_equality_constraints(self):
        # x0 + x1 = 1, minimise x0 + 3 x1 -> x0 = 1.
        res = solve_binary_program(
            np.array([1.0, 3.0]),
            None,
            None,
            np.array([[1.0, 1.0]]),
            np.array([1.0]),
        )
        assert res.objective == pytest.approx(1.0)

    def test_forced_branching(self):
        # LP relaxation is fractional: x0 + x1 + x2 = 2 with pairwise
        # conflicts; only integral solutions picked by branching.
        c = np.array([1.0, 1.0, 1.0])
        A_ub = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        b_ub = np.array([1.0, 1.0, 1.0])
        res = solve_binary_program(-c, A_ub, b_ub, None, None)
        assert res.objective == pytest.approx(-1.0)

    def test_node_limit(self):
        rng = np.random.default_rng(0)
        n = 18
        c = -rng.random(n)
        A = rng.random((6, n))
        b = A.sum(axis=1) * 0.3
        res = solve_binary_program(c, A, b, None, None, max_nodes=2)
        assert res.status in ("node-limit", "optimal")


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
        # Nine nodes find an incumbent 24% above the optimum and stop
        # before proving anything: no "optimum" may come back.
        ilp = build_ilp(tiny_problem)
        res = solve_binary_program(
            ilp.c, ilp.A_ub, ilp.b_ub, ilp.A_eq, ilp.b_eq, max_nodes=9
        )
        assert res.status == "node-limit" and res.x is not None
        _bm, bf = brute_force_optimal(tiny_problem)
        assert res.objective > bf * 1.2
        with pytest.raises(HeuristicFailure, match="ILP: node-limit after"):
            ilp_optimal(tiny_problem, max_nodes=9)

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
        from repro.experiments import run_all
        from repro.platform.topology import get_topology

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
        from repro.platform.topology import get_topology

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
