"""Cross-topology property battery for the refinement engine.

For every registered platform topology and a mix of random / StreamIt
SPGs, the refiner must preserve the contract that makes it safe to bolt
onto any experiment: never worse than its input, period-feasible,
structurally valid for the requested ``allow_general`` setting, and
deterministic per seed — for every acceptance schedule.
"""

from __future__ import annotations

import pytest

from tests.helpers import loose_period

from repro.core.evaluate import energy, is_period_feasible, validate
from repro.core.problem import ProblemInstance
from repro.heuristics.base import PAPER_ORDER
from repro.heuristics.refine import SCHEDULES, refine_mapping
from repro.platform.topology import get_topology, topology_names
from repro.solvers import run
from repro.spg.random_gen import random_spg
from repro.spg.streamit import streamit_workflow

#: (label, SPG factory) pairs: one random, one StreamIt-style workload.
APPS = (
    ("random16", lambda: random_spg(16, rng=5, ccr=5.0)),
    ("streamit-DCT", lambda: streamit_workflow("DCT", ccr=1.0, seed=0)),
)


def _base_mapping(problem, seed=0):
    """A valid starting mapping, or None if no heuristic succeeds."""
    for name in ("Greedy", "Random", "DPA2D"):
        res = run(name, problem, rng=seed)
        if res.ok:
            return res.mapping
    return None


def _problem(topo: str, factory):
    spg = factory()
    grid = get_topology(topo, 3, 3)
    return ProblemInstance(spg, grid, loose_period(spg, parallelism=4.0))


@pytest.mark.parametrize("topo", topology_names())
@pytest.mark.parametrize("label,factory", APPS, ids=[a[0] for a in APPS])
class TestRefineInvariantsAcrossTopologies:
    def test_energy_and_feasibility_and_structure(
        self, topo, label, factory
    ):
        problem = _problem(topo, factory)
        base = _base_mapping(problem)
        if base is None:
            pytest.skip(f"no heuristic succeeds on {topo}/{label}")
        base_e = energy(base, problem.period).total
        for allow_general in (False, True):
            out = refine_mapping(
                problem, base, rng=0, sweeps=2,
                allow_general=allow_general,
            )
            assert (
                energy(out, problem.period).total <= base_e * (1 + 1e-12)
            )
            assert is_period_feasible(out, problem.period)
            # Full structural validation: in-bounds allocation, per-core
            # (possibly heterogeneous) speed sets, topology-valid routes,
            # and the DAG-partition rule unless general mappings are on.
            validate(
                out, problem.period,
                require_dag_partition=not allow_general,
            )

    def test_deterministic_per_seed(self, topo, label, factory):
        problem = _problem(topo, factory)
        base = _base_mapping(problem)
        if base is None:
            pytest.skip(f"no heuristic succeeds on {topo}/{label}")
        a = refine_mapping(problem, base, rng=11, sweeps=2)
        b = refine_mapping(problem, base, rng=11, sweeps=2)
        assert a.alloc == b.alloc
        assert a.speeds == b.speeds
        assert a.paths == b.paths


@pytest.mark.parametrize("schedule", SCHEDULES)
class TestSchedules:
    @pytest.fixture
    def problem(self, grid_4x4):
        g = random_spg(18, rng=3, ccr=5.0)
        return ProblemInstance(g, grid_4x4, loose_period(g))

    def test_contract_holds_for_every_schedule(self, schedule, problem):
        base = run("Random", problem, rng=0).mapping
        base_e = energy(base, problem.period).total
        out = refine_mapping(
            problem, base, rng=0, sweeps=3, schedule=schedule
        )
        assert energy(out, problem.period).total <= base_e * (1 + 1e-12)
        validate(out, problem.period)

    def test_schedule_deterministic(self, schedule, problem):
        base = run("Random", problem, rng=1).mapping
        a = refine_mapping(problem, base, rng=9, sweeps=2, schedule=schedule)
        b = refine_mapping(problem, base, rng=9, sweeps=2, schedule=schedule)
        assert a.alloc == b.alloc and a.speeds == b.speeds


class TestRefineThreading:
    """Refinement threaded through run() and the experiment runners."""

    @pytest.fixture
    def problem(self, grid_2x2):
        g = random_spg(12, rng=6, ccr=5.0)
        return ProblemInstance(g, grid_2x2, loose_period(g, parallelism=3.0))

    def test_run_refine_never_worse_and_validated(self, problem):
        raw = run("Random", problem, rng=0)
        ref = run("Random+refine", problem, rng=0)
        assert raw.ok and ref.ok
        assert ref.total_energy <= raw.total_energy * (1 + 1e-12)
        validate(ref.mapping, problem.period)

    def test_run_refine_schedule_option(self, problem):
        ref = run("Random+refine-best", problem, rng=0)
        assert ref.ok
        assert [st["solver"] for st in ref.stats["stages"]] == [
            "random", "refine-best"
        ]
        validate(ref.mapping, problem.period)

    def test_random_experiment_refine_never_worse(self):
        from repro.experiments import run_random_experiment
        from repro.platform.cmp import CMPGrid

        kwargs = dict(n=12, grid=CMPGrid(2, 2), ccr=1.0,
                      elevations=(2,), replicates=2, seed=3)
        raw = run_random_experiment(**kwargs)
        ref = run_random_experiment(
            **kwargs, solvers=tuple(f"{h}+refine" for h in PAPER_ORDER)
        )
        for elev, recs in raw.records.items():
            for a, b in zip(recs, ref.records[elev]):
                assert a.period == b.period
                for h, ra in a.results.items():
                    rb = b.results[f"{h}+refine"]
                    if ra.ok and rb.ok:
                        assert (
                            rb.total_energy
                            <= ra.total_energy * (1 + 1e-12)
                        )


class TestTopologyAwareness:
    """Regression: the refiner honours routes and speeds of the platform
    it runs on (it used to hardwire XY-mesh assumptions)."""

    def test_torus_routes_respected(self):
        """Every path of a torus-refined mapping is a torus link chain —
        including wraparound hops a mesh would reject."""
        g = random_spg(16, rng=5, ccr=5.0)
        grid = get_topology("torus", 3, 3)
        problem = ProblemInstance(g, grid, loose_period(g, parallelism=4.0))
        base = _base_mapping(problem)
        assert base is not None
        out = refine_mapping(problem, base, rng=0, sweeps=2)
        for path in out.paths.values():
            grid.validate_path(path)

    def test_hetmesh_scaled_speed_sets_respected(self):
        """On a heterogeneous mesh the refined speeds must be members of
        each core's *scaled* DVFS set, and LITTLE-core assignments must
        use the scaled model's speeds (not the base model's)."""
        g = random_spg(16, rng=7, ccr=5.0)
        grid = get_topology("hetmesh", 3, 3)
        problem = ProblemInstance(g, grid, loose_period(g, parallelism=3.0))
        base = _base_mapping(problem)
        if base is None:
            pytest.skip("no heuristic succeeds on this hetmesh instance")
        out = refine_mapping(problem, base, rng=0, sweeps=2)
        validate(out, problem.period)
        assert grid.heterogeneous
        for core, speed in out.speeds.items():
            assert speed in grid.speed_set(core)
            assert speed in grid.core_model(core).speeds

    def test_uni_directional_routes_never_accepted(self):
        """On the uni-directional line, XY backward hops are invalid;
        the refiner must never accept a move that needs one."""
        g = random_spg(12, rng=4, ccr=5.0)
        grid = get_topology("uniline", 2, 2)  # 1x4 uni-directional
        problem = ProblemInstance(g, grid, loose_period(g, parallelism=3.0))
        base = _base_mapping(problem)
        if base is None:
            pytest.skip("no heuristic succeeds on this uniline instance")
        out = refine_mapping(problem, base, rng=0, sweeps=3)
        validate(out, problem.period)
        for path in out.paths.values():
            grid.validate_path(path)
