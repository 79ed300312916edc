"""Soundness of the refiner's energy screen.

The first- and best-improvement schedules skip a candidate move when
:meth:`~repro.core.delta.DeltaState.screen` says its total cannot pass
the acceptance test.  That is safe only if

* the screen rejects for speed exactly when :meth:`evaluate_move` does,
* its approximate total is within float error of the exact one
  (``1e-12`` relative here, the skip margin is ``1e-9``),
* the cached current total it starts from is the exact ``score``, and
* a candidate at (or within float error above) the threshold is never
  skipped.

The first three are checked on every candidate of every scan along real
refine runs: all registered topologies at 3x3 and 4x4, then random
graphs drawn by hypothesis.  The last is a white-box check of the cutoff,
and a hand-built case pins the canonical work sum behind the exact speed
choice.

Each neighbourhood is screened in one pass, and each of its changes must
equal the one-move :meth:`~repro.core.delta.DeltaState.screen` of the
same candidate, also when drawn after other candidates were applied and
reverted.  Recorded counter values pin which candidates the screen
skips, which the outputs alone do not show.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from tests.helpers import loose_period

from repro.core.delta import DeltaState, MoveStage, PowerOff, SwapClusters
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.solvers import run
from repro.heuristics.refine import (
    _EPS,
    SCREEN_MARGIN,
    _BestImprovement,
    _FirstImprovement,
    _run_schedule,
    refine_mapping,
)
from repro.obs.session import observability
from repro.platform.cmp import CMPGrid
from repro.platform.speeds import XSCALE
from repro.platform.topology import get_topology, topology_names
from repro.spg.graph import SPG
from repro.spg.random_gen import random_spg
from repro.util.rng import as_rng

#: Largest relative gap allowed between the screened and the exact total.
TOLERANCE = 1e-12


def _assert_same_screen(change, single, entry) -> None:
    """A neighbourhood's screened change equals the one-move screen's."""
    if change is None or single is None:
        assert change is None and single is None, entry
    else:
        assert abs(change - single) <= TOLERANCE * abs(single), entry


def _check_candidate(strategy, kind, a, b, prefix, change) -> None:
    """Grade ``kind(a, b)`` by the screen and by the exact path, and
    compare; ``change`` is its neighbourhood screen's value."""
    state = strategy.state
    move, entry = kind(a, b), (*prefix, b)
    before = state.score()
    _assert_same_screen(change, state.screen(move), entry)
    token, exact = state.evaluate_move(move)
    speeds_ok = state.speeds_feasible()
    state.revert(token)
    # The screen rejects for speed exactly when evaluate_move does.
    assert (change is None) == (not speeds_ok), entry
    token = state.apply(move)
    moved = state.score()
    state.revert(token)
    assert state.score() == before, "screen or revert changed the state"
    if change is None:
        assert exact is None
        return
    approx = strategy.total + change
    assert abs(approx - moved.total) <= TOLERANCE * moved.total, entry
    if exact is not None:
        assert exact.total == moved.total
        if exact.total < strategy.best_e * (1 - _EPS):
            # An acceptable candidate always reaches the exact path.
            assert list(strategy._unscreened(kind, a, [b], prefix)), entry


def _checked(schedule_cls):
    """``schedule_cls`` grading every candidate of every scan both ways.

    The neighbourhood's changes are drawn lazily between exact gradings,
    so each one after the first is screened on a state that has just
    been moved and reverted, as in a real scan.
    """

    class Checked(schedule_cls):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            self.kinds: set[str] = set()

        def scan(self, kind, a, targets, prefix) -> bool:
            changes = self.state.screen_neighbourhood(kind, a, targets)
            for b, change in zip(targets, changes):
                _check_candidate(self, kind, a, b, prefix, change)
                self.kinds.add(prefix[0])
            kept = super().scan(kind, a, targets, prefix)
            if kept:
                assert self.total == self.state.score().total
            return kept

    return Checked


def _checked_run(problem, base, schedule_cls, seed, sweeps=2):
    """Run one refine schedule with every candidate cross-checked."""
    state = DeltaState(problem, base)
    score = state.score()
    assert score is not None
    strategy = _checked(schedule_cls)(state, score.total, None)
    _run_schedule(problem, state, strategy, as_rng(seed), sweeps)
    return strategy


@pytest.mark.parametrize("size", [(3, 3), (4, 4)], ids=["3x3", "4x4"])
@pytest.mark.parametrize("topo", topology_names())
def test_screen_matches_exact_path_along_refine_runs(topo, size):
    spg = random_spg(24, rng=5, ccr=5.0)
    problem = ProblemInstance(
        spg, get_topology(topo, *size), loose_period(spg, parallelism=4.0)
    )
    kinds: set[str] = set()
    for start in ("Greedy", "DPA2D1D"):
        res = run(start, problem, rng=0)
        if not res.ok:
            continue
        strategy = _checked_run(problem, res.mapping, _FirstImprovement, 0)
        kinds |= strategy.kinds
    assert kinds == {"move", "swap", "off"}


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(2, 30),
    seed=st.integers(0, 2**16),
    topo=st.sampled_from(topology_names()),
    size=st.sampled_from([(3, 3), (4, 4)]),
    start=st.sampled_from(["Random", "Greedy", "DPA2D1D"]),
    schedule_cls=st.sampled_from([_FirstImprovement, _BestImprovement]),
    parallelism=st.sampled_from([2.0, 4.0, 8.0]),
)
def test_screen_sound_on_random_graphs(
    n, seed, topo, size, start, schedule_cls, parallelism
):
    spg = random_spg(n, rng=seed, ccr=5.0)
    problem = ProblemInstance(
        spg, get_topology(topo, *size),
        loose_period(spg, parallelism=parallelism),
    )
    res = run(start, problem, rng=seed)
    assume(res.ok)
    # ``validate`` allows 1e-9 of period slack, ``best_feasible`` 1e-12,
    # so a valid start can leave a core without a canonical speed; the
    # refiner then runs unscreened until its first accepted move.
    assume(DeltaState(problem, res.mapping).score() is not None)
    _checked_run(problem, res.mapping, schedule_cls, seed)


@pytest.mark.parametrize("topo", topology_names())
@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(2, 24),
    seed=st.integers(0, 2**16),
    size=st.sampled_from([(3, 3), (4, 4)]),
    start=st.sampled_from(["Random", "Greedy", "DPA2D1D"]),
)
def test_neighbourhood_screen_equals_one_move_screen(
    topo, n, seed, size, start
):
    """Every target of every neighbourhood, all cores included, screens
    as its one-move screen does and within float error of the moved
    state's exact total.  Each candidate is applied and reverted before
    the next change is drawn, so a value computed from a reference into
    the state (which ``revert`` replaces by a snapshot copy) shows."""
    spg = random_spg(n, rng=seed, ccr=5.0)
    problem = ProblemInstance(
        spg, get_topology(topo, *size), loose_period(spg, parallelism=4.0)
    )
    res = run(start, problem, rng=seed)
    assume(res.ok)
    state = DeltaState(problem, res.mapping)
    score = state.score()
    assume(score is not None)
    cores = problem.grid.cores()
    active = sorted(state.active_cores())
    for kind, anchors in (
        (MoveStage, range(n)), (SwapClusters, cores), (PowerOff, active)
    ):
        for a in anchors:
            changes = state.screen_neighbourhood(kind, a, cores)
            for b, change in zip(cores, changes):
                move = kind(a, b)
                _assert_same_screen(change, state.screen(move), move)
                token = state.apply(move)
                moved = state.score()
                state.revert(token)
                if change is not None:
                    approx = score.total + change
                    assert abs(approx - moved.total) <= (
                        TOLERANCE * moved.total
                    ), move


#: ``refine.candidates``, ``refine.screened`` and ``refine.moves_accepted``
#: of the runs in :func:`test_screen_decisions_match_recorded_counts`,
#: recorded before the screen was batched per neighbourhood.
RECORDED_COUNTS = {
    "hetmesh": (11515, 10887, 134),
    "torus": (10770, 10235, 132),
    "uniline": (7454, 6564, 75),
}


@pytest.mark.parametrize("topo", sorted(RECORDED_COUNTS))
def test_screen_decisions_match_recorded_counts(topo):
    """The screen skips exactly the candidates it skipped when recorded.

    Outputs alone would not show a weaker screen: it sends more
    candidates down the exact path and still accepts the same moves.
    ``hetmesh`` mixes core models, so it also covers swaps between
    cores of different models.
    """
    spg = random_spg(30, rng=11, ccr=5.0)
    problem = ProblemInstance(
        spg, get_topology(topo, 4, 4), loose_period(spg, parallelism=4.0)
    )
    with observability(metrics=True) as session:
        for start in ("Random", "Greedy", "DPA2D1D"):
            res = run(start, problem, rng=0)
            if not res.ok:
                continue
            for schedule in ("first", "best"):
                refine_mapping(problem, res.mapping, rng=0, schedule=schedule)
    counters = session.metrics.counters
    assert (
        counters["refine.candidates"],
        counters["refine.screened"],
        counters["refine.moves_accepted"],
    ) == RECORDED_COUNTS[topo]


# ----------------------------------------------------------------------
# White-box checks
# ----------------------------------------------------------------------
class _FixedScreen:
    """A state whose current total and screened change are preset."""

    def __init__(self, total: float) -> None:
        self.total = total
        self.change: float | None = 0.0

    def score(self):
        return SimpleNamespace(total=self.total)

    def screen_neighbourhood(self, kind, a, targets):
        return [self.change for _b in targets]


def test_cutoff_keeps_candidates_at_and_just_above_the_threshold():
    state = _FixedScreen(1.0)
    strategy = _FirstImprovement(state, 1.0, None)
    threshold = 1.0 * (1 - _EPS)

    def passes(total: float | None) -> bool:
        state.change = None if total is None else total - state.total
        candidates = strategy._unscreened(MoveStage, 0, [(0, 1)], ("move",))
        return bool(list(candidates))

    # threshold - 1.0 is exact (Sterbenz), so this total is the threshold.
    assert state.total + (threshold - state.total) == threshold
    assert passes(threshold)
    # Float error of the screen (far below the margin) must not skip.
    assert passes(threshold * (1 + 1e-12))
    assert passes(threshold * (1 + 0.5 * SCREEN_MARGIN))
    assert not passes(threshold * (1 + 2 * SCREEN_MARGIN))
    assert not passes(None)
    assert (strategy.candidates, strategy.screened) == (5, 2)


def test_screen_sums_work_in_canonical_stage_order():
    """A core's new work is summed in ascending stage order.

    Stage 0 weighs exactly the top speed's limit at this period, and
    stages 1 and 2 half an ulp of it each.  In stage order the halves
    round away and the merged core just meets the period at top speed;
    summed in any other order they add one ulp and no speed is feasible.
    """
    s_max = XSCALE.s_max
    period = 1.0
    while True:
        limit = s_max * period * (1.0 + 1e-12)
        if (limit / math.ulp(limit)) % 2 == 0:
            break
        period = math.nextafter(period, 2.0)
    half = math.ulp(limit) / 2
    assert (limit + half) + half == limit < (half + half) + limit

    spg = SPG([limit, half, half], None, {(0, 1): 1.0, (1, 2): 1.0})
    grid = CMPGrid(1, 2)
    problem = ProblemInstance(spg, grid, period)
    base = Mapping(
        spg, grid, {0: (0, 0), 1: (0, 1), 2: (0, 1)},
        {(0, 0): s_max, (0, 1): XSCALE.s_min},
    )
    state = DeltaState(problem, base)
    total = state.score().total
    move = MoveStage(0, (0, 1))
    change = state.screen(move)
    assert change is not None
    _token, exact = state.evaluate_move(move)
    assert exact is not None
    assert abs(total + change - exact.total) <= TOLERANCE * exact.total


def test_counters_report_the_screen_once_per_run():
    spg = random_spg(20, rng=3, ccr=5.0)
    problem = ProblemInstance(
        spg, get_topology("mesh", 3, 3), loose_period(spg, parallelism=4.0)
    )
    base = run("Greedy", problem, rng=0).mapping
    counts = {}
    for schedule in ("first", "anneal"):
        with observability(metrics=True) as session:
            refine_mapping(problem, base, rng=0, schedule=schedule)
        counts[schedule] = session.metrics.counters
    first = counts["first"]
    assert 0 < first["refine.screened"] < first["refine.candidates"]
    anneal = counts["anneal"]
    assert anneal["refine.candidates"] > 0
    assert anneal["refine.screened"] == 0


@pytest.mark.parametrize("weights,alloc", [
    # The whole load on the source core (0, 0).
    ([1 / 3] * 3, {0: (0, 0), 1: (0, 0), 2: (0, 0)}),
    # The whole load on the target core (0, 1).
    ([1e-3, 1 / 3, 1 / 3, 1 / 3],
     {0: (0, 0), 1: (0, 1), 2: (0, 1), 3: (0, 1)}),
])
def test_screen_without_a_canonical_speed_is_none(weights, alloc):
    """A touched core with no canonical speed gives the state no total,
    so every screen of a move touching it is ``None``, not an error."""
    work = XSCALE.s_max * (1.0 + 5e-10)  # period 1.0
    n = len(weights)
    spg = SPG([w * work for w in weights], None,
              {(i, i + 1): 1.0 for i in range(n - 1)})
    grid = CMPGrid(1, 2)
    speeds = {c: XSCALE.s_max for c in set(alloc.values())}
    state = DeltaState(ProblemInstance(spg, grid, 1.0),
                       Mapping(spg, grid, alloc, speeds))
    assert state.score() is None
    src, dst = (0, 0), (0, 1)
    other = {src: dst, dst: src}
    moves = [MoveStage(i, other[c]) for i, c in alloc.items()]
    moves += [SwapClusters(src, dst), SwapClusters(dst, src)]
    moves += [PowerOff(c, other[c]) for c in speeds]
    for move in moves:
        assert state.screen(move) is None, move
    assert list(state.screen_neighbourhood(MoveStage, 0, [src, dst])) == [
        0.0, None]


def test_start_without_a_canonical_speed_refines_unscreened():
    """``validate`` allows 1e-9 of period slack and ``best_feasible``
    1e-12, so a valid start can hold a core with no canonical speed.  The
    refiner must grade such a start exactly instead of screening it."""
    from repro.core.evaluate import energy, validate

    s_max = XSCALE.s_max
    period = 1.0
    work = s_max * period * (1.0 + 5e-10)
    spg = SPG([work / 3] * 3, None, {(0, 1): 1.0, (1, 2): 1.0})
    grid = CMPGrid(1, 2)
    problem = ProblemInstance(spg, grid, period)
    base = Mapping(spg, grid, {0: (0, 0), 1: (0, 0), 2: (0, 0)},
                   {(0, 0): s_max})
    validate(base, period)
    assert DeltaState(problem, base).score() is None
    with observability(metrics=True) as session:
        out = refine_mapping(problem, base, rng=0)
    validate(out, period)
    assert energy(out, period).total < energy(base, period).total
    assert session.metrics.counters["refine.candidates"] > 0
