"""Reference copy of the refiner as it was before the delta engine.

``refine_mapping_rebuild`` grades every candidate move by rebuilding a
whole :class:`~repro.core.mapping.Mapping` (:func:`rebuild`) and
re-running the independent validators (:func:`acceptable`).
``tests/test_refine_equivalence.py`` requires the delta-evaluated
:func:`repro.heuristics.refine.refine_mapping` to accept the same moves
and return the same mapping.
"""

from __future__ import annotations

from repro.core.evaluate import energy, is_period_feasible
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.heuristics.refine import _EPS
from repro.util.rng import as_rng


def rebuild(
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


def acceptable(
    problem: ProblemInstance, mapping: Mapping, allow_general: bool
) -> bool:
    """True iff ``mapping`` passes the independent structure and period
    validators."""
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
    independent validators — O(n + E) per move.  It is the executable
    specification :func:`repro.heuristics.refine.refine_mapping` is
    pinned against, and the baseline of ``benchmarks/bench_refine.py``.

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
        cand = rebuild(problem, alloc)
        if cand is None or not acceptable(problem, cand, allow_general):
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
