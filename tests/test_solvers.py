"""Tests for the unified solver registry, spec parsing and composites.

The load-bearing assertions are the *golden-equivalence* ones: every
registry-routed solver must match the legacy direct call path it wraps
bit for bit (same allocation, same speeds, same repr-exact energy), and
portfolio winners must be identical for any ``jobs`` value.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.errors import HeuristicFailure, MappingError
from repro.core.evaluate import validate
from repro.core.problem import ProblemInstance
from repro.experiments import choose_period
from repro.experiments.parallel import pool_available
from repro.heuristics.base import PAPER_ORDER, REGISTRY
from repro.platform.cmp import CMPGrid
from repro.solvers import (
    SOLVERS,
    HeuristicSolver,
    PipelineSolver,
    PortfolioSolver,
    RefineStage,
    get_solver,
    lookup_solver,
    parse_solver_spec,
    run,
    solver_names,
)
from repro.spg.random_gen import random_spg
from repro.util.rng import as_rng


@pytest.fixture(scope="module")
def instance():
    """One fixed, feasible mesh instance shared by the module."""
    spg = random_spg(20, rng=3, ccr=10.0)
    grid = CMPGrid(3, 3)
    T = choose_period(spg, grid, rng=7).period
    return ProblemInstance(spg, grid, T)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_expected_solvers_registered(self):
        expected = {
            "random", "greedy", "dpa2d", "dpa1d", "dpa2d1d",
            "bruteforce", "ilp", "bnb",
            "refine", "refine-best", "refine-anneal",
            "portfolio",
        }
        assert expected <= set(solver_names())

    def test_kinds(self):
        assert SOLVERS["greedy"].kind == "producer"
        assert SOLVERS["refine"].kind == "transform"
        assert SOLVERS["portfolio"].kind == "composite"

    def test_every_paper_heuristic_is_wrapped(self):
        for name in PAPER_ORDER:
            solver = get_solver(name.lower())
            assert isinstance(solver, HeuristicSolver)
            assert solver.heuristic == name and solver.spec == name.lower()

    def test_unknown_name_raises_keyerror_with_names(self):
        with pytest.raises(KeyError, match="available"):
            get_solver("no-such-solver")

    def test_lookup_is_case_insensitive(self):
        assert get_solver("DPA2D1D").spec == "dpa2d1d"
        assert lookup_solver("Greedy") is SOLVERS["greedy"]
        assert lookup_solver("GREEDY") is SOLVERS["greedy"]
        assert lookup_solver("no-such-solver") is None


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_single_name(self):
        s = parse_solver_spec("greedy")
        assert s.kind == "producer" and s.spec == "greedy"

    def test_pipeline_spec(self):
        s = parse_solver_spec("dpa2d1d+refine")
        assert isinstance(s, PipelineSolver)
        assert [st.spec for st in s.stages] == ["dpa2d1d", "refine"]

    def test_portfolio_spec(self):
        s = parse_solver_spec("greedy|dpa2d1d+refine")
        assert isinstance(s, PortfolioSolver)
        assert s.members == ["greedy", "dpa2d1d+refine"]

    def test_unknown_member_raises(self):
        with pytest.raises(KeyError):
            parse_solver_spec("greedy|nope")

    def test_transform_cannot_start(self):
        with pytest.raises(ValueError, match="transform"):
            parse_solver_spec("refine")
        with pytest.raises(ValueError, match="transform"):
            parse_solver_spec("refine+greedy")

    def test_producer_cannot_follow(self):
        with pytest.raises(ValueError, match="pipeline"):
            parse_solver_spec("greedy+dpa1d")

    def test_empty_spec(self):
        with pytest.raises(ValueError):
            parse_solver_spec("   ")

    def test_portfolio_rejects_producer_options(self):
        with pytest.raises(ValueError, match="portfolio"):
            parse_solver_spec("greedy|dpa1d", options={"trials": 2})

    def test_solver_passthrough(self):
        s = get_solver("greedy")
        assert parse_solver_spec(s) is s


# ----------------------------------------------------------------------
# Golden equivalence against the legacy direct call paths
# ----------------------------------------------------------------------
def legacy_run(name, problem, rng=None, refine=False, sweeps=4,
               schedule="first", allow_general=False, **options):
    """The pre-registry ``heuristics.base.run`` body, verbatim."""
    fn = REGISTRY[name]
    try:
        mapping = fn(problem, rng=rng, **options)
    except HeuristicFailure as exc:
        return None, None, str(exc) or "failed"
    if refine:
        from repro.heuristics.refine import refine_mapping

        try:
            validate(mapping, problem.period)
        except MappingError as exc:
            return None, None, f"INVALID OUTPUT: {exc}"
        mapping = refine_mapping(
            problem, mapping, rng=rng, sweeps=sweeps,
            allow_general=allow_general, schedule=schedule,
        )
    try:
        breakdown = validate(
            mapping, problem.period,
            require_dag_partition=not (refine and allow_general),
        )
    except MappingError as exc:
        return None, None, f"INVALID OUTPUT: {exc}"
    return mapping, breakdown, None


def assert_same_outcome(res, mapping, breakdown, failure):
    assert res.ok == (mapping is not None)
    if mapping is None:
        assert res.failure == failure
        return
    assert res.mapping.alloc == mapping.alloc
    assert res.mapping.speeds == mapping.speeds
    assert res.mapping.paths == mapping.paths
    assert repr(res.total_energy) == repr(breakdown.total)


class TestLegacyEquivalence:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_registry_matches_direct_call(self, instance, name, seed):
        res = run(name.lower(), instance, rng=as_rng(seed))
        expected = legacy_run(name, instance, rng=as_rng(seed))
        assert_same_outcome(res, *expected)

    @pytest.mark.parametrize("name", ["Random", "Greedy", "DPA2D1D"])
    @pytest.mark.parametrize("schedule", ["first", "best"])
    def test_refine_pipeline_matches_refine_kwargs(
        self, instance, name, schedule
    ):
        stage = "refine" if schedule == "first" else f"refine-{schedule}"
        res = run(f"{name.lower()}+{stage}", instance, rng=as_rng(5))
        expected = legacy_run(
            name, instance, rng=as_rng(5), refine=True, schedule=schedule
        )
        assert_same_outcome(res, *expected)

    def test_run_results_carry_solver_stats(self, instance):
        """Portfolio metadata reaches the result ``run`` returns (so
        experiment records can say which member won)."""
        res = run("portfolio", instance, rng=as_rng(5))
        assert res.stats["winner"] is not None
        assert len(res.stats["members"]) == 5
        assert res.stats["seconds"] >= 0

    def test_run_wrapper_failure_contract_unchanged(self, instance):
        tight = instance.scaled(1e-9)
        res = run("Greedy", tight, rng=0)
        assert not res.ok and res.failure

    def test_run_rejects_unknown_spec(self, instance):
        with pytest.raises(KeyError):
            run("NoSuchSolver+refine", instance)


class TestRunEntryPoint:
    def test_result_carries_the_name_asked_for(self, instance):
        a = run("Greedy", instance, rng=as_rng(2))
        b = run("greedy", instance, rng=as_rng(2))
        assert (a.solver, b.solver) == ("Greedy", "greedy")
        assert run("GREEDY", instance, rng=0).solver == "GREEDY"
        assert get_solver("Greedy").solve(instance, rng=0).solver == "greedy"
        # Equality covers the name; nothing else differs.
        assert a != b
        assert (a.mapping, a.energy, a.failure) == (
            b.mapping, b.energy, b.failure
        )

    def test_built_solver_keeps_its_spec(self, instance):
        res = run(get_solver("dpa1d"), instance, rng=0)
        assert res.solver == "dpa1d"

    def test_equal_runs_compare_equal_despite_timings(self, instance):
        a = run("dpa2d1d+refine", instance, rng=as_rng(4))
        b = run("dpa2d1d+refine", instance, rng=as_rng(4))
        assert a.ok
        assert a == b
        # However the two wall-clocks fell, other timings compare equal.
        slower = {**b.stats, "seconds": b.stats["seconds"] + 1.0}
        assert a == replace(b, stats=slower)

    def test_run_records_span_and_metrics(self, instance):
        from repro.obs.session import observability

        with observability(trace=True) as obs:
            run("Greedy", instance, rng=0)
            run("Greedy", instance.scaled(1e-9), rng=0)
        spans = [s for s in obs.tracer.spans if s.kind == "solver.run"]
        assert [s.attrs["solver"] for s in spans] == ["Greedy", "Greedy"]
        counters = obs.metrics.counters
        assert counters["solver.runs"] == 2
        assert counters["solver.failures"] == 1
        assert obs.metrics.histograms["solver.duration_s"].count == 2


class TestExactAdapters:
    @pytest.fixture(scope="class")
    def tiny(self):
        spg = random_spg(6, rng=1, ccr=1.0)
        grid = CMPGrid(2, 2)
        T = choose_period(spg, grid, rng=1).period
        return ProblemInstance(spg, grid, T)

    def test_bruteforce_matches_direct_call(self, tiny):
        from repro.exact import brute_force_optimal

        mapping, obj = brute_force_optimal(tiny)
        res = run("bruteforce", tiny)
        assert res.ok
        assert res.mapping.alloc == mapping.alloc
        assert repr(res.total_energy) == repr(obj)
        assert res.stats["objective"] == obj

    def test_bruteforce_failure_is_recorded(self, tiny):
        res = run("bruteforce", tiny.scaled(1e-9))
        assert not res.ok and "brute force" in res.failure

    def test_ilp_unsupported_platform_is_a_recorded_failure(self, tiny):
        """Off the mesh the ilp adapter fails like any other solver —
        with the loud message intact — instead of aborting the whole
        run/sweep; the direct exact/ entry point still raises."""
        from repro.platform.topology import get_topology

        torus = ProblemInstance(
            tiny.spg, get_topology("torus", 2, 2), tiny.period
        )
        res = get_solver("ilp").solve(torus)
        assert not res.ok
        assert res.failure.startswith("UnsupportedPlatform")
        assert "mesh" in res.failure
        hres = run("ilp", torus)
        assert not hres.ok and "UnsupportedPlatform" in hres.failure

    def test_sweep_survives_unsupported_exact_column(self, tiny):
        from repro.experiments import run_scenario_sweep

        report = run_scenario_sweep(
            topologies=("mesh", "torus"), sizes=("2x2",), ccrs=(1.0,),
            apps=("random-6",), replicates=1, seed=0,
            solvers=("Greedy", "ilp"),
        )
        by_topo = {sc["topology"]: sc for sc in report["scenarios"]}
        assert by_topo["torus"]["failures"]["ilp"] == 1
        assert by_topo["torus"]["failures"]["Greedy"] == 0
        assert by_topo["mesh"]["failures"]["ilp"] == 0

    def test_ilp_and_bnb_match_direct_call(self, two_speed_model):
        from repro.exact import ilp_optimal
        from repro.spg.build import diamond

        g = diamond((4e8, 2e8, 3e8, 1e8), (1e7, 2e7, 3e7, 4e7))
        prob = ProblemInstance(g, CMPGrid(2, 2, two_speed_model), 0.6)
        mapping, obj = ilp_optimal(prob)
        for spec in ("ilp", "bnb"):
            res = run(spec, prob)
            assert res.ok and res.solver == spec
            assert res.mapping.alloc == mapping.alloc
            assert res.stats["objective"] == pytest.approx(obj)


# ----------------------------------------------------------------------
# Portfolio determinism
# ----------------------------------------------------------------------
class TestPortfolio:
    def test_winner_is_best_feasible_member(self, instance):
        res = run("portfolio", instance, rng=as_rng(5))
        assert res.ok
        members = res.stats["members"]
        best = min(
            (m["energy"] for m in members if m["ok"]), default=None
        )
        assert res.total_energy == best
        assert res.stats["winner"] is not None

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_jobs_invariance(self, instance, jobs):
        if jobs > 1 and not pool_available():  # pragma: no cover
            pytest.skip("process pools unavailable in this environment")
        baseline = get_solver("portfolio", jobs=1).solve(
            instance, rng=as_rng(5)
        )
        res = get_solver("portfolio", jobs=jobs).solve(
            instance, rng=as_rng(5)
        )
        assert repr(res.total_energy) == repr(baseline.total_energy)
        assert res.stats["winner"] == baseline.stats["winner"]
        assert res.mapping.alloc == baseline.mapping.alloc

    def test_tie_breaks_toward_earliest_member(self, instance):
        res = PortfolioSolver(["greedy", "greedy"]).solve(
            instance, rng=as_rng(5)
        )
        assert res.ok
        members = res.stats["members"]
        assert members[0]["energy"] == members[1]["energy"]
        assert res.stats["winner"] == "greedy"

    def test_all_members_failing(self, instance):
        res = run("portfolio", instance.scaled(1e-9), rng=as_rng(0))
        assert not res.ok
        assert "every member failed" in res.failure
        assert all(not m["ok"] for m in res.stats["members"])

    def test_member_seeds_are_independent_draws(self, instance):
        """Adding a member must not change earlier members' seeds."""
        a = PortfolioSolver(["random"]).solve(instance, rng=as_rng(3))
        b = PortfolioSolver(["random", "greedy"]).solve(
            instance, rng=as_rng(3)
        )
        assert (
            a.stats["members"][0]["energy"]
            == b.stats["members"][0]["energy"]
        )

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            PortfolioSolver([])

    def test_member_library_errors_become_member_failures(self, instance):
        """A member failing loudly (ILP off the mesh) must not abort the
        portfolio: the best-feasible-member contract wins."""
        from repro.platform.topology import get_topology

        torus = ProblemInstance(
            instance.spg, get_topology("torus", 3, 3), instance.period
        )
        res = PortfolioSolver(["greedy", "ilp"]).solve(torus, rng=as_rng(0))
        assert res.ok
        assert res.stats["winner"] == "greedy"
        ilp_member = res.stats["members"][1]
        assert not ilp_member["ok"]
        assert "UnsupportedPlatform" in ilp_member["failure"]

    def test_configured_member_options_survive_dispatch(self, instance):
        """Solver-object members keep their options; a worker must not
        re-parse them back to defaults."""
        pf = PortfolioSolver([get_solver("random", trials=1), "greedy"])
        assert pf._solvers[0].options == {"trials": 1}
        res = pf.solve(instance, rng=as_rng(3))
        seed0 = int(as_rng(3).integers(0, 2**63 - 1))
        direct = get_solver("random", trials=1).solve(
            instance, rng=as_rng(seed0)
        )
        assert (
            res.stats["members"][0]["energy"]
            == (direct.total_energy if direct.ok else None)
        )
        if pool_available():  # pragma: no branch
            pooled = PortfolioSolver(
                [get_solver("random", trials=1), "greedy"], jobs=2
            ).solve(instance, rng=as_rng(3))
            assert (
                pooled.stats["members"][0]["energy"]
                == res.stats["members"][0]["energy"]
            )

    def test_invalid_member_rejected_at_construction(self):
        with pytest.raises(KeyError):
            PortfolioSolver(["greedy", "nope"])

    def test_pipeline_over_portfolio(self, instance):
        res = run("portfolio+refine", instance, rng=as_rng(5))
        base = run("portfolio", instance, rng=as_rng(5))
        assert res.ok
        assert res.total_energy <= base.total_energy


# ----------------------------------------------------------------------
# Transform-stage contract and option plumbing
# ----------------------------------------------------------------------
class TestStageContract:
    def test_refine_stage_requires_upstream(self, instance):
        with pytest.raises(ValueError, match="upstream"):
            RefineStage().solve(instance, rng=0)

    def test_pipeline_short_circuits_on_failure(self, instance):
        res = run("greedy+refine", instance.scaled(1e-9), rng=as_rng(0))
        assert not res.ok
        assert [st["solver"] for st in res.stats["stages"]] == ["greedy"]

    def test_stats_carry_timings(self, instance):
        res = run("dpa2d1d+refine", instance, rng=as_rng(0))
        assert res.stats["seconds"] >= 0
        assert all(st["seconds"] >= 0 for st in res.stats["stages"])


class TestOptionPlumbing:
    def test_producer_options_forwarded_through_spec(self, instance):
        res = run("random", instance, rng=as_rng(1), trials=1)
        assert res.ok or res.failure


# ----------------------------------------------------------------------
# Experiment runners on the solver axis
# ----------------------------------------------------------------------
class TestSolverAxisExperiments:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_random_experiment_solvers_axis_matches_refine_kwargs(
        self, name
    ):
        """Each ``<H>+refine`` column equals the pre-registry
        heuristic-then-refine call on every instance of the panel."""
        from repro.experiments import run_random_experiment
        from repro.spg.random_gen import random_spg_with_elevation

        grid = CMPGrid(3, 3)
        column = f"{name}+refine"
        exp = run_random_experiment(
            16, grid, 1.0, elevations=(2, 4), replicates=2, seed=5,
            solvers=(column,),
        )
        # Replay the runner's shared stream: each instance draws its
        # SPG, then the seed run_all derives the column's stream from.
        rng = as_rng(5)
        improved = 0
        for elev in (2, 4):
            for rec in exp.records[elev]:
                spg = random_spg_with_elevation(16, elev, rng=rng, ccr=1.0)
                hseed = int(rng.integers(0, 2**63 - 1))
                child = int(as_rng(hseed).integers(0, 2**63 - 1))
                problem = ProblemInstance(spg, grid, rec.period)
                expected = legacy_run(
                    name, problem, rng=as_rng(child), refine=True
                )
                res = rec.results[column]
                assert_same_outcome(res, *expected)
                raw = run(name, problem, rng=as_rng(child))
                improved += res.total_energy < raw.total_energy
        # The panel must exercise refinement, not only the producer.
        assert improved > 0

    def test_scenario_sweep_solvers_axis(self):
        from repro.experiments import run_scenario_sweep, sweep_summary

        report = run_scenario_sweep(
            topologies=("mesh",), sizes=("2x2",), ccrs=(1.0,),
            apps=("random-12",), replicates=1, seed=0,
            solvers=("Greedy", "dpa2d1d+refine"),
        )
        assert report["meta"]["solvers"] == ["Greedy", "dpa2d1d+refine"]
        assert report["meta"]["solver_axis"] is True
        sc = report["scenarios"][0]
        assert set(sc["failures"]) == {"Greedy", "dpa2d1d+refine"}
        assert "dpa2d1d+refine" in sweep_summary(report)
