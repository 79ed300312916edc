"""Local-search refinement of mappings (the paper's Section-7 future work).

The paper closes with two open directions: *general mappings* (dropping
the DAG-partition restriction) and an absolute quality measure for the
heuristics.  This module provides a local-search refiner that

* takes any valid mapping (typically a heuristic's output),
* repeatedly applies local moves — move one stage to another core, swap
  the contents of two cores, power a core off by merging its cluster
  into another active core — routing every remote edge through the
  platform topology's own ``route`` policy (XY on the mesh, shortest-way
  on tori/rings, bit-fixing on the Benes fabric) and re-optimising each
  affected core's speed under its own — possibly heterogeneous — DVFS
  model,
* accepts a move iff the mapping stays feasible for the period and the
  energy strictly decreases (default first-improvement hill climbing;
  best-improvement and simulated-annealing schedules sit behind the
  ``schedule`` flag), and
* optionally admits *general* (non-DAG-partition) clusterings, which lets
  experiments quantify exactly how much the DAG-partition rule costs.

Candidates are graded by the incremental
:class:`~repro.core.delta.DeltaState` layer instead of rebuilding the full
mapping, in three steps:

1. **Screen.**  Each neighbourhood (one stage to every other core, one
   core swapped with every other core, one core powered off into every
   other active core) is screened in one
   :meth:`~repro.core.delta.DeltaState.screen_neighbourhood` pass.  It
   reads the affected cores and edges only, without touching the state,
   and yields each candidate's approximate energy change (or ``None``
   when a touched core has no feasible speed); work shared by all
   destinations is done once, on copies, since step 3 swaps snapshot
   copies into the state between candidates.  The first- and
   best-improvement schedules skip a candidate whose approximate total
   cannot pass the acceptance test, and build a move object and its log
   entry only for the candidates that pass; most candidates stop here.
2. **Exact path.**  Every other candidate goes through
   :meth:`~repro.core.delta.DeltaState.evaluate_move`: speeds, quotient
   cycle, route validity, the period and the canonical ``score``.  Those
   last two walk every active core and link.
3. **Commit or revert.**  An accepted move stays applied; any other is
   undone with :meth:`~repro.core.delta.DeltaState.revert`.

Annealing skips the screen: it draws from its RNG on every valid
worsening candidate, so it must grade each one exactly.  The refiner that
rebuilt and re-validated a whole mapping per candidate lives on in
``tests/refine_reference.py``, and ``tests/test_refine_equivalence.py``
pins the two bit-identical (same accepted-move sequence, same final
mapping).

Deterministic given the RNG; every schedule runs a bounded sweep budget
and returns a mapping never worse than its input.
"""

from __future__ import annotations

import math
from itertools import repeat

from repro.core.delta import DeltaState, MoveStage, PowerOff, SwapClusters
from repro.core.evaluate import energy
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.obs.session import inc, trace_span
from repro.util.rng import as_rng

__all__ = ["refine_mapping", "SCHEDULES"]

#: Acceptance schedules supported by :func:`refine_mapping`.
SCHEDULES = ("first", "best", "anneal")

#: Relative improvement a move must achieve to be accepted.
_EPS = 1e-12

#: Relative margin by which a candidate's screened total must exceed the
#: acceptance threshold before the candidate is skipped.
#:
#: Both totals add up the same nonnegative quantities: core terms,
#: leakage, and edge volumes times hop counts.  The exact ``score`` sums
#: them resource by resource in canonical order; the screened total is
#: the current state's exact total plus the change of the touched
#: resources.  In real arithmetic the two are equal.  Each float addition
#: is off by at most 2**-53 of a partial sum, and no partial sum exceeds
#: ``max(current total, candidate total)``, so with ``m`` terms in all the
#: two totals differ by at most about ``2 * m * 2**-53`` of that larger
#: total.  ``m`` is a few hundred on a 6x6 grid, which bounds the gap by
#: about 1e-13.  The margin is 1e-9 of ``max(threshold, current total)``:
#: wider than the gap for any ``m`` below about four million.  A candidate
#: whose exact total passes the threshold therefore always reaches the
#: exact path, so accepted moves, logs and outputs are bit-identical to
#: grading every candidate exactly.
SCREEN_MARGIN = 1e-9

#: The annealing schedule's starting temperature, as a fraction of the
#: input mapping's energy, and its geometric cooling factor per sweep.
ANNEAL_T0 = 0.05
ANNEAL_DECAY = 0.5


# ----------------------------------------------------------------------
# Delta-evaluated engine: acceptance schedules
# ----------------------------------------------------------------------
class _FirstImprovement:
    """Accept the first strictly-improving valid move of each scan."""

    stop_when_stuck = True

    def __init__(self, state: DeltaState, initial_e: float, log) -> None:
        self.state = state
        self.best_e = initial_e
        self.log = log
        self.accepted = 0
        self.candidates = 0
        self.screened = 0
        # Exact canonical total of the current state; ``None`` (a core
        # of the input has no feasible speed) turns the screen off until
        # a move is accepted.
        score = state.score()
        self.total = None if score is None else score.total

    def begin_sweep(self, sweep: int) -> None:
        pass

    def _unscreened(self, kind, a, targets, prefix):
        """The ``(move, entry)`` candidates of one neighbourhood that the
        screen cannot rule out.

        The neighbourhood is the moves ``kind(a, b)`` for ``b`` in
        ``targets``, logged as ``(*prefix, b)``; a move and its entry are
        built only for the candidates that pass.  The acceptance
        threshold is fixed for the whole scan: a scan ends at its first
        acceptance, or applies its best move only after the last
        candidate.
        """
        total = self.total
        if total is None:
            changes = repeat(None)
        else:
            changes = self.state.screen_neighbourhood(kind, a, targets)
            threshold = self.best_e * (1 - _EPS)
            cutoff = threshold + SCREEN_MARGIN * max(threshold, total)
        for b, change in zip(targets, changes):
            self.candidates += 1
            if total is not None and (
                change is None or total + change > cutoff
            ):
                self.screened += 1
                continue
            yield kind(a, b), (*prefix, b)

    def _accept(self, total: float, entry) -> None:
        self.best_e = self.total = total
        self.accepted += 1
        if self.log is not None:
            self.log.append((*entry, repr(total)))

    def scan(self, kind, a, targets, prefix) -> bool:
        state = self.state
        for move, entry in self._unscreened(kind, a, targets, prefix):
            token, breakdown = state.evaluate_move(move)
            if (
                breakdown is not None
                and breakdown.total < self.best_e * (1 - _EPS)
            ):
                self._accept(breakdown.total, entry)
                return True
            state.revert(token)
        return False

    def result(self, problem, mapping) -> Mapping:
        return mapping if self.accepted == 0 else self.state.to_mapping()


class _BestImprovement(_FirstImprovement):
    """Scan each neighbourhood fully and apply its best improving move."""

    def scan(self, kind, a, targets, prefix) -> bool:
        state = self.state
        best_move = best_entry = best_val = None
        for move, entry in self._unscreened(kind, a, targets, prefix):
            token, breakdown = state.evaluate_move(move)
            if breakdown is not None:
                e = breakdown.total
                if e < self.best_e * (1 - _EPS) and (
                    best_val is None or e < best_val
                ):
                    best_move, best_entry, best_val = move, entry, e
            state.revert(token)
        if best_move is None:
            return False
        _token, breakdown = state.evaluate_move(best_move)
        self._accept(breakdown.total, best_entry)
        return True


class _Anneal(_FirstImprovement):
    """Metropolis acceptance with a geometric per-sweep cooling schedule.

    Improving valid moves are always taken; a worsening valid move is
    taken with probability ``exp(-delta / T)`` where ``delta`` is the
    energy increase relative to the starting energy and ``T`` starts at
    :data:`ANNEAL_T0` and cools by :data:`ANNEAL_DECAY` each sweep.  The
    best feasible mapping seen is returned, so annealing can escape
    local minima without ever returning a mapping worse than its input.
    """

    stop_when_stuck = True

    def __init__(self, state, initial_e, log, rng) -> None:
        super().__init__(state, initial_e, log)
        self.rng = rng
        self.cur_e = initial_e
        self.scale = max(abs(initial_e), 1e-300)
        self.temperature = ANNEAL_T0
        self.best_mapping: Mapping | None = None

    def begin_sweep(self, sweep: int) -> None:
        self.temperature = ANNEAL_T0 * (ANNEAL_DECAY ** sweep)

    def scan(self, kind, a, targets, prefix) -> bool:
        state = self.state
        for b in targets:
            self.candidates += 1
            token, breakdown = state.evaluate_move(kind(a, b))
            if breakdown is None:
                state.revert(token)
                continue
            e = breakdown.total
            if e < self.cur_e * (1 - _EPS):
                take = True
            elif self.temperature <= 0:
                take = False
            else:
                delta = (e - self.cur_e) / self.scale
                take = float(self.rng.random()) < math.exp(
                    -delta / self.temperature
                )
            if take:
                self.cur_e = e
                self.accepted += 1
                if self.log is not None:
                    self.log.append((*prefix, b, repr(e)))
                if e < self.best_e * (1 - _EPS):
                    self.best_e = e
                    self.best_mapping = state.to_mapping()
                return True
            state.revert(token)
        return False

    def result(self, problem, mapping) -> Mapping:
        return mapping if self.best_mapping is None else self.best_mapping


def _run_schedule(problem, state, strategy, rng, sweeps: int) -> None:
    """Drive the shared sweep structure over the three move kinds."""
    cores = problem.grid.cores()
    n = problem.spg.n
    for sweep in range(sweeps):
        strategy.begin_sweep(sweep)
        before = strategy.accepted
        for i in rng.permutation(n):
            i = int(i)
            current = state.core_of(i)
            strategy.scan(
                MoveStage, i, [b for b in cores if b != current],
                ("move", i, current),
            )
        for a in sorted(state.active_cores()):
            if not state.cluster_of(a):
                continue
            strategy.scan(
                SwapClusters, a, [b for b in cores if b != a], ("swap", a)
            )
        for a in sorted(state.active_cores()):
            active = state.active_cores()
            if a not in active:
                continue
            strategy.scan(
                PowerOff, a, [b for b in cores if b != a and b in active],
                ("off", a),
            )
        if strategy.accepted == before and strategy.stop_when_stuck:
            break


def refine_mapping(
    problem: ProblemInstance,
    mapping: Mapping,
    rng=None,
    sweeps: int = 4,
    allow_general: bool = False,
    schedule: str = "first",
    log: list | None = None,
) -> Mapping:
    """Refine ``mapping``; returns an equal-or-better valid mapping.

    Parameters
    ----------
    schedule:
        ``"first"`` (default) accepts the first improving move of each
        neighbourhood scan, ``"best"`` the best one, ``"anneal"`` runs
        Metropolis acceptance with geometric cooling (:data:`ANNEAL_T0`,
        :data:`ANNEAL_DECAY`) and returns the best feasible mapping seen.
    allow_general:
        Drop the DAG-partition requirement for the refined mapping (the
        input may be any valid mapping either way).
    log:
        Optional list collecting accepted moves as ``(kind, *args,
        repr(energy))`` tuples — the equivalence suite compares these
        with the full-rebuild reference refiner's.
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}; pick from {SCHEDULES}")
    inc("refine.runs")
    with trace_span("refine.run", schedule=schedule, sweeps=sweeps):
        rng = as_rng(rng)
        initial_e = energy(mapping, problem.period).total
        state = DeltaState(
            problem, mapping, require_dag_partition=not allow_general
        )
        if schedule == "first":
            strategy = _FirstImprovement(state, initial_e, log)
        elif schedule == "best":
            strategy = _BestImprovement(state, initial_e, log)
        else:
            strategy = _Anneal(state, initial_e, log, rng)
        _run_schedule(problem, state, strategy, rng, sweeps)
        inc("refine.moves_accepted", strategy.accepted)
        inc("refine.candidates", strategy.candidates)
        inc("refine.screened", strategy.screened)
        return strategy.result(problem, mapping)
