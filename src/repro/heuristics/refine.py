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
:class:`~repro.core.delta.DeltaState` layer, which scores each move in
O(affected cores/links) instead of rebuilding the full mapping; the
pre-delta full-rebuild implementation is retained as
:func:`refine_mapping_rebuild` and the two are pinned bit-identical
(same accepted-move sequence, same final mapping) by
``tests/test_refine_equivalence.py``.

Deterministic given the RNG; every schedule runs a bounded sweep budget
and returns a mapping never worse than its input.
"""

from __future__ import annotations

import math

from repro.core.delta import DeltaState, MoveStage, PowerOff, SwapClusters
from repro.core.evaluate import energy, is_period_feasible
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.obs.session import inc, trace_span
from repro.util.rng import as_rng

__all__ = ["refine_mapping", "refine_mapping_rebuild", "SCHEDULES"]

#: Acceptance schedules supported by :func:`refine_mapping`.
SCHEDULES = ("first", "best", "anneal")

#: Relative improvement a move must achieve to be accepted.
_EPS = 1e-12


# ----------------------------------------------------------------------
# Retained full-rebuild reference implementation
# ----------------------------------------------------------------------
def _rebuild(
    problem: ProblemInstance, alloc: dict[int, tuple[int, int]]
) -> Mapping | None:
    """Mapping from an allocation with energy-optimal per-core speeds.

    The allocation is canonicalised to stage order so that every float
    accumulation downstream (per-core work, energy sums) happens in the
    same deterministic order the delta layer reproduces.
    """
    grid = problem.grid
    alloc = {i: alloc[i] for i in range(problem.spg.n)}
    work: dict[tuple[int, int], float] = {}
    weights = problem.spg.weights
    for i, c in alloc.items():
        work[c] = work.get(c, 0.0) + weights[i]
    speeds: dict[tuple[int, int], float] = {}
    for c, w in work.items():
        s = grid.core_model(c).best_feasible(w, problem.period)
        if s is None:
            return None
        speeds[c] = s
    return Mapping(problem.spg, problem.grid, alloc, speeds)


def _acceptable(
    problem: ProblemInstance, mapping: Mapping, allow_general: bool
) -> bool:
    if not mapping.is_valid_structure(require_dag_partition=not allow_general):
        return False
    return is_period_feasible(mapping, problem.period)


def refine_mapping_rebuild(
    problem: ProblemInstance,
    mapping: Mapping,
    rng=None,
    sweeps: int = 4,
    allow_general: bool = False,
    log: list | None = None,
) -> Mapping:
    """First-improvement refinement, full-rebuild reference path.

    Every candidate rebuilds a complete :class:`Mapping` and re-runs the
    independent validators — O(n + E) per move.  Kept as the executable
    specification the delta engine is pinned against (and for
    benchmarking the speedup); use :func:`refine_mapping` for real work.

    ``log``, when given, collects the accepted moves as tuples
    ``(kind, *args, repr(energy))`` for the equivalence suite.
    """
    rng = as_rng(rng)
    best = mapping
    best_e = energy(best, problem.period).total
    cores = problem.grid.cores()
    n = problem.spg.n

    def try_updates(updates: dict[int, tuple[int, int]]):
        alloc = dict(best.alloc)
        alloc.update(updates)
        cand = _rebuild(problem, alloc)
        if cand is None or not _acceptable(problem, cand, allow_general):
            return None
        e = energy(cand, problem.period).total
        if e < best_e * (1 - _EPS):
            return cand, e
        return None

    for _sweep in range(sweeps):
        improved = False
        # Move one stage to each other core, first improvement wins.
        for i in rng.permutation(n):
            i = int(i)
            current = best.alloc[i]
            for b in cores:
                if b == current:
                    continue
                got = try_updates({i: b})
                if got is not None:
                    best, best_e = got
                    improved = True
                    if log is not None:
                        log.append(("move", i, current, b, repr(best_e)))
                    break
        # Swap whole clusters between core pairs (placement improvement).
        for a in sorted(best.clusters()):
            clusters = best.clusters()
            if a not in clusters:
                continue
            for b in cores:
                if b == a:
                    continue
                updates = {i: b for i in clusters.get(a, [])}
                updates.update({i: a for i in clusters.get(b, [])})
                got = try_updates(updates)
                if got is not None:
                    best, best_e = got
                    improved = True
                    if log is not None:
                        log.append(("swap", a, b, repr(best_e)))
                    break
        # Power a core off: merge its cluster into another active core.
        for a in sorted(best.clusters()):
            clusters = best.clusters()
            if a not in clusters:
                continue
            for b in cores:
                if b == a or b not in clusters:
                    continue
                got = try_updates({i: b for i in clusters[a]})
                if got is not None:
                    best, best_e = got
                    improved = True
                    if log is not None:
                        log.append(("off", a, b, repr(best_e)))
                    break
        if not improved:
            break
    return best


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

    def begin_sweep(self, sweep: int) -> None:
        pass

    def scan(self, moves) -> bool:
        state = self.state
        for move, entry in moves:
            token, breakdown = state.evaluate_move(move)
            if (
                breakdown is not None
                and breakdown.total < self.best_e * (1 - _EPS)
            ):
                self.best_e = breakdown.total
                self.accepted += 1
                if self.log is not None:
                    self.log.append((*entry, repr(self.best_e)))
                return True
            state.revert(token)
        return False

    def result(self, problem, mapping) -> Mapping:
        return mapping if self.accepted == 0 else self.state.to_mapping()


class _BestImprovement(_FirstImprovement):
    """Scan each neighbourhood fully and apply its best improving move."""

    def scan(self, moves) -> bool:
        state = self.state
        best_move = best_entry = best_val = None
        for move, entry in moves:
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
        self.best_e = breakdown.total
        self.accepted += 1
        if self.log is not None:
            self.log.append((*best_entry, repr(self.best_e)))
        return True


class _Anneal(_FirstImprovement):
    """Metropolis acceptance with a geometric per-sweep cooling schedule.

    Improving valid moves are always taken; a worsening valid move is
    taken with probability ``exp(-delta / T)`` where ``delta`` is the
    energy increase relative to the starting energy and ``T`` cools by
    ``decay`` each sweep.  The best feasible mapping seen is returned, so
    annealing can escape local minima without ever returning a mapping
    worse than its input.
    """

    stop_when_stuck = True

    def __init__(
        self, state, initial_e, log, rng, t0: float, decay: float
    ) -> None:
        super().__init__(state, initial_e, log)
        self.rng = rng
        self.t0 = t0
        self.decay = decay
        self.cur_e = initial_e
        self.scale = max(abs(initial_e), 1e-300)
        self.temperature = t0
        self.best_mapping: Mapping | None = None

    def begin_sweep(self, sweep: int) -> None:
        self.temperature = self.t0 * (self.decay ** sweep)

    def scan(self, moves) -> bool:
        state = self.state
        for move, entry in moves:
            token, breakdown = state.evaluate_move(move)
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
                    self.log.append((*entry, repr(e)))
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
                (MoveStage(i, b), ("move", i, current, b))
                for b in cores
                if b != current
            )
        for a in sorted(state.active_cores()):
            if not state.cluster_of(a):
                continue
            strategy.scan(
                (SwapClusters(a, b), ("swap", a, b))
                for b in cores
                if b != a
            )
        for a in sorted(state.active_cores()):
            if not state.cluster_of(a):
                continue
            strategy.scan(
                (PowerOff(a, b), ("off", a, b))
                for b in cores
                if b != a and state.cluster_of(b)
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
    anneal_t0: float = 0.05,
    anneal_decay: float = 0.5,
) -> Mapping:
    """Refine ``mapping``; returns an equal-or-better valid mapping.

    Parameters
    ----------
    schedule:
        ``"first"`` (default) accepts the first improving move of each
        neighbourhood scan, ``"best"`` the best one, ``"anneal"`` runs
        Metropolis acceptance with geometric cooling (``anneal_t0``,
        ``anneal_decay``) and returns the best feasible mapping seen.
    allow_general:
        Drop the DAG-partition requirement for the refined mapping (the
        input may be any valid mapping either way).
    log:
        Optional list collecting accepted moves as ``(kind, *args,
        repr(energy))`` tuples — the equivalence suite compares these
        with :func:`refine_mapping_rebuild`'s.
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
            strategy = _Anneal(
                state, initial_e, log, rng, anneal_t0, anneal_decay
            )
        _run_schedule(problem, state, strategy, rng, sweeps)
        inc("refine.moves_accepted", strategy.accepted)
        return strategy.result(problem, mapping)
