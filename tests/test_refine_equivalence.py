"""Bit-identity of the delta-evaluated refiner vs the rebuild reference.

The delta engine must reproduce the retained full-rebuild reference
implementation *exactly*: the same accepted-move sequence (kind, operand
and energy, compared via ``repr`` so doubles match byte for byte) and the
same final mapping.  Any divergence means the incremental bookkeeping
broke a canonical summation order somewhere.

Also unit-tests :class:`~repro.core.delta.DeltaState` directly:
apply/revert round-trips, score-vs-full-evaluation identity after move
chains, and rejection decisions matching the independent validators.
"""

from __future__ import annotations

import pytest

from tests.helpers import loose_period
from tests.refine_reference import acceptable, rebuild, refine_mapping_rebuild

from repro.core.delta import DeltaState, MoveStage, PowerOff, SwapClusters
from repro.core.errors import HeuristicFailure, MappingError
from repro.core.evaluate import energy, is_period_feasible, validate
from repro.core.problem import ProblemInstance
from repro.heuristics.base import REGISTRY
from repro.heuristics.refine import refine_mapping
from repro.platform.topology import get_topology, topology_names
from repro.spg.random_gen import random_spg


def _valid_base(problem, seed=0):
    for name in ("Random", "Greedy"):
        try:
            m = REGISTRY[name](problem, rng=seed)
            validate(m, problem.period)
            return m
        except (HeuristicFailure, MappingError):
            continue
    return None


def _instance(topo: str, seed: int, n: int = 14):
    spg = random_spg(n, rng=seed, ccr=5.0)
    grid = get_topology(topo, 3, 3)
    return ProblemInstance(spg, grid, loose_period(spg, parallelism=4.0))


@pytest.mark.parametrize("topo", topology_names())
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("allow_general", [False, True])
def test_engines_bit_identical(topo, seed, allow_general):
    problem = _instance(topo, seed)
    base = _valid_base(problem, seed)
    if base is None:
        pytest.skip(f"no valid base on {topo} seed {seed}")
    log_delta: list = []
    log_rebuild: list = []
    out_delta = refine_mapping(
        problem, base, rng=seed, sweeps=3, allow_general=allow_general,
        log=log_delta,
    )
    out_rebuild = refine_mapping_rebuild(
        problem, base, rng=seed, sweeps=3, allow_general=allow_general,
        log=log_rebuild,
    )
    # Same accepted moves, in the same order, at the same (byte-exact)
    # energies, and the same final mapping in every component.
    assert log_delta == log_rebuild
    assert out_delta.alloc == out_rebuild.alloc
    assert out_delta.speeds == out_rebuild.speeds
    assert out_delta.paths == out_rebuild.paths
    assert repr(energy(out_delta, problem.period).total) == repr(
        energy(out_rebuild, problem.period).total
    )


def test_engines_bit_identical_large_mesh():
    """The benchmark workload shape (bigger graph, 4x4 mesh), one seed."""
    spg = random_spg(40, rng=2011, ccr=10.0)
    grid = get_topology("mesh", 4, 4)
    problem = ProblemInstance(spg, grid, loose_period(spg, parallelism=8.0))
    base = _valid_base(problem, 0)
    assert base is not None
    log_delta: list = []
    log_rebuild: list = []
    out_delta = refine_mapping(problem, base, rng=0, sweeps=2, log=log_delta)
    out_rebuild = refine_mapping_rebuild(
        problem, base, rng=0, sweeps=2, log=log_rebuild
    )
    assert log_delta == log_rebuild and len(log_delta) > 0
    assert out_delta.alloc == out_rebuild.alloc
    assert out_delta.speeds == out_rebuild.speeds


def test_unknown_schedule_rejected():
    problem = _instance("mesh", 0)
    base = _valid_base(problem)
    with pytest.raises(ValueError):
        refine_mapping(problem, base, schedule="bogus")


# ----------------------------------------------------------------------
# DeltaState unit tests
# ----------------------------------------------------------------------
class TestDeltaState:
    @pytest.fixture
    def problem(self, grid_4x4):
        g = random_spg(15, rng=2, ccr=5.0)
        return ProblemInstance(g, grid_4x4, loose_period(g))

    @pytest.fixture
    def state(self, problem):
        base = _valid_base(problem)
        return DeltaState(problem, base)

    def _full_eval_identical(self, state, problem):
        """state.score() must equal a from-scratch evaluation of the
        materialised mapping, byte for byte."""
        mapping = state.to_mapping()
        got = state.score()
        want = energy(mapping, problem.period)
        assert repr(got.total) == repr(want.total)
        assert (got.comp_leak, got.comp_dyn, got.comm_leak, got.comm_dyn) \
            == (want.comp_leak, want.comp_dyn, want.comm_leak, want.comm_dyn)
        assert state.period_feasible() == is_period_feasible(
            mapping, problem.period
        )

    def test_initial_score_matches_full_eval(self, state, problem):
        self._full_eval_identical(state, problem)

    def test_apply_revert_roundtrip(self, state, problem):
        before = state.score()
        before_mapping = state.to_mapping()
        cores = problem.grid.cores()
        target = next(
            c for c in cores if c != state.core_of(0)
        )
        token = state.apply(MoveStage(0, target))
        assert state.core_of(0) == target
        state.revert(token)
        after = state.score()
        assert repr(before.total) == repr(after.total)
        assert state.to_mapping().alloc == before_mapping.alloc

    def test_move_chain_matches_fresh_state(self, state, problem):
        """After a chain of accepted moves, the incremental state must be
        indistinguishable from a DeltaState built from scratch."""
        cores = problem.grid.cores()
        applied = 0
        for stage in range(problem.spg.n):
            for c in cores:
                if c == state.core_of(stage):
                    continue
                token, breakdown = state.evaluate_move(MoveStage(stage, c))
                if breakdown is None:
                    state.revert(token)
                else:
                    applied += 1
                break
            if applied >= 4:
                break
        assert applied > 0
        fresh = DeltaState(problem, state.to_mapping())
        assert repr(state.score().total) == repr(fresh.score().total)
        assert state.active_cores() == fresh.active_cores()
        self._full_eval_identical(state, problem)

    def test_swap_and_poweroff_kinds(self, state, problem):
        active = sorted(state.active_cores())
        if len(active) < 2:
            pytest.skip("needs at least two active cores")
        a, b = active[0], active[1]
        token = state.apply(SwapClusters(a, b))
        if state.speeds_feasible():
            self._full_eval_identical(state, problem)
        state.revert(token)
        n_active = state.n_active_cores
        token = state.apply(PowerOff(a, b))
        assert state.n_active_cores == n_active - 1
        assert not state.cluster_of(a)
        # The merged cluster may be period-infeasible at top speed; the
        # state must report that instead of producing a score.
        if state.speeds_feasible():
            self._full_eval_identical(state, problem)
        else:
            assert state.score() is None
            assert not state.period_feasible()
        state.revert(token)
        assert state.n_active_cores == n_active
        self._full_eval_identical(state, problem)

    def test_rejections_match_validators(self, state, problem):
        """evaluate_move returns None exactly when the independent
        validators reject the rebuilt candidate."""
        cores = problem.grid.cores()
        checked = rejected = 0
        for stage in range(0, problem.spg.n, 3):
            for c in cores[:6]:
                if c == state.core_of(stage):
                    continue
                token, breakdown = state.evaluate_move(MoveStage(stage, c))
                alloc = {
                    i: state.core_of(i) for i in range(problem.spg.n)
                }
                state.revert(token)
                cand = rebuild(problem, alloc)
                reference_ok = cand is not None and acceptable(
                    problem, cand, allow_general=False
                )
                assert (breakdown is not None) == reference_ok
                if breakdown is not None:
                    assert repr(breakdown.total) == repr(
                        energy(cand, problem.period).total
                    )
                else:
                    rejected += 1
                checked += 1
        assert checked > 0

    def test_unknown_move_kind_raises(self, state):
        with pytest.raises(TypeError):
            state.apply("not-a-move")

    def test_general_mode_skips_dag_check(self, problem):
        base = _valid_base(problem)
        strict = DeltaState(problem, base, require_dag_partition=True)
        general = DeltaState(problem, base, require_dag_partition=False)
        rejected_strict = accepted_general = 0
        cores = problem.grid.cores()
        for stage in range(problem.spg.n):
            for c in cores:
                if c == strict.core_of(stage):
                    continue
                t1, b1 = strict.evaluate_move(MoveStage(stage, c))
                strict.revert(t1)
                t2, b2 = general.evaluate_move(MoveStage(stage, c))
                general.revert(t2)
                if b1 is None and b2 is not None:
                    rejected_strict += 1
                    accepted_general += 1
        # General mappings admit strictly more candidates on this
        # instance (there is at least one cyclic-quotient move).
        assert accepted_general > 0
