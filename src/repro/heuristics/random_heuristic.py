"""The Random heuristic (Section 5.1).

The two-step procedure: (1) randomly grow a DAG-partition of the SPG,
cluster by cluster, choosing a random speed per cluster and adding random
eligible stages while the computation fits the period at that speed;
(2) place the clusters on random distinct cores and route communications
with XY routing.  If any link exceeds the bandwidth bound, the trial is
invalid.  The heuristic makes ten trials and keeps the valid mapping with
the lowest energy; it fails when no trial is valid.

Interpretation note: when a freshly started cluster's first stage does
not fit at the drawn random speed, the speed is redrawn among the speeds
that can accommodate that stage; if none exists the trial fails.  Without
this, tight periods would make almost every trial fail on its very first
stage, which does not match the failure rates of Table 3.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from repro.core.errors import HeuristicFailure
from repro.core.evaluate import energy, is_period_feasible
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.heuristics.base import register
from repro.util.rng import as_rng

__all__ = ["random_mapping"]


def _random_partition(
    problem: ProblemInstance, rng: np.random.Generator
) -> tuple[list[list[int]], list[float]] | None:
    """Grow a random DAG-partition; returns (clusters, speeds) or None.

    Clusters are grown over the "ready" frontier (stages whose predecessors
    are all taken, i.e. placed in earlier clusters or the current one),
    which guarantees an acyclic quotient.  The taken set only grows, so the
    frontier is maintained as stages are taken: ``missing[i]`` counts the
    predecessors of ``i`` not yet taken, and ``ready`` holds the untaken
    stages with none missing in increasing order, the order every random
    draw picks from.
    """
    spg = problem.spg
    model = problem.grid.model
    T = problem.period
    missing = [len(spg.preds(i)) for i in range(spg.n)]
    ready = [i for i in range(spg.n) if not missing[i]]
    clusters: list[list[int]] = []
    speeds: list[float] = []

    def take(i: int) -> None:
        del ready[bisect_left(ready, i)]
        for j in spg.succs(i):
            missing[j] -= 1
            if not missing[j]:
                insort(ready, j)

    def draw_speed(first_stage: int) -> float | None:
        fits = [
            s
            for s in model.speeds
            if spg.weights[first_stage] / s <= T
        ]
        if not fits:
            return None
        return float(fits[rng.integers(len(fits))])

    while ready:
        # "When moving to the next core, we choose the first stage in the
        # current list and iterate."
        first = ready[0]
        speed = draw_speed(first)
        if speed is None:
            return None
        current = [first]
        take(first)
        load = spg.weights[first]
        while True:
            frontier = [i for i in ready if load + spg.weights[i] <= T * speed]
            if not frontier:
                break
            # The draw ``rng.choice(frontier)`` makes, without converting
            # the list to an array.
            nxt = frontier[rng.integers(len(frontier))]
            current.append(nxt)
            take(nxt)
            load += spg.weights[nxt]
        clusters.append(current)
        speeds.append(speed)
    return clusters, speeds


def _random_placement(
    problem: ProblemInstance,
    clusters: list[list[int]],
    speeds: list[float],
    rng: np.random.Generator,
) -> Mapping | None:
    """Place clusters on random distinct cores; validate the period over
    the topology's routes (XY on the mesh).

    On heterogeneous platforms the drawn speed is rescaled to the chosen
    core's own DVFS set (same speed level); the subsequent period check
    rejects the trial when the scaled core is too slow.
    """
    grid = problem.grid
    if len(clusters) > grid.n_cores:
        return None
    cores = grid.cores()
    chosen = [cores[k] for k in rng.permutation(len(cores))[: len(clusters)]]
    alloc = {
        stage: chosen[t] for t, cl in enumerate(clusters) for stage in cl
    }
    speed_map = {}
    for t in range(len(clusters)):
        c = chosen[t]
        scale = grid.speed_scale(c)
        speed_map[c] = speeds[t] if scale == 1.0 else speeds[t] * scale
    mapping = Mapping(problem.spg, grid, alloc, speed_map)
    if not is_period_feasible(mapping, problem.period):
        return None
    return mapping


@register("Random")
def random_mapping(
    problem: ProblemInstance, rng=None, trials: int = 10
) -> Mapping:
    """Ten random trials, keep the valid mapping with minimum energy."""
    rng = as_rng(rng)
    best: Mapping | None = None
    best_e = float("inf")
    for _ in range(trials):
        part = _random_partition(problem, rng)
        if part is None:
            continue
        mapping = _random_placement(problem, *part, rng)
        if mapping is None:
            continue
        e = energy(mapping, problem.period).total
        if e < best_e:
            best, best_e = mapping, e
    if best is None:
        raise HeuristicFailure(f"Random: no valid trial out of {trials}")
    return best
