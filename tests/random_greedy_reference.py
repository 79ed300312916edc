"""Reference copies of the Random and Greedy heuristics as they were
before their frontiers were kept incrementally.

``reference_random_partition`` rescans every stage and its predecessors
for the ready frontier on each step.  ``reference_greedy_at_speed``
rebuilds the whole quotient and runs Kahn's algorithm on it for every
tentative absorption (``reference_quotient_ok``), and finds the current
core's stages by scanning every assignment.  The equivalence tests run
them beside the library versions and require identical outputs and an
identical RNG stream.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.errors import MappingError
from repro.core.evaluate import is_period_feasible
from repro.core.mapping import Mapping
from repro.core.partition import is_acyclic_quotient
from repro.core.problem import ProblemInstance
from repro.heuristics.greedy import _downgrade
from repro.platform.cmp import Core
from repro.spg.graph import SPG


def reference_random_partition(
    problem: ProblemInstance, rng: np.random.Generator
) -> tuple[list[list[int]], list[float]] | None:
    """Grow a random DAG-partition; returns (clusters, speeds) or None."""
    spg = problem.spg
    model = problem.grid.model
    T = problem.period
    placed: set[int] = set()
    in_current: set[int] = set()
    clusters: list[list[int]] = []
    speeds: list[float] = []

    def ready() -> list[int]:
        out = []
        for i in range(spg.n):
            if i in placed or i in in_current:
                continue
            if all(p in placed or p in in_current for p in spg.preds(i)):
                out.append(i)
        return out

    def draw_speed(first_stage: int) -> float | None:
        fits = [
            s
            for s in model.speeds
            if spg.weights[first_stage] / s <= T
        ]
        if not fits:
            return None
        return float(rng.choice(fits))

    current: list[int] = []
    frontier = ready()
    first = frontier[0] if frontier else None
    if first is None:
        return None
    speed = draw_speed(first)
    if speed is None:
        return None
    current = [first]
    in_current = {first}
    load = spg.weights[first]

    while True:
        frontier = [i for i in ready() if load + spg.weights[i] <= T * speed]
        if frontier:
            nxt = int(rng.choice(frontier))
            current.append(nxt)
            in_current.add(nxt)
            load += spg.weights[nxt]
            continue
        clusters.append(current)
        speeds.append(speed)
        placed |= in_current
        in_current = set()
        remaining = ready()
        if not remaining:
            break
        first = remaining[0]
        speed = draw_speed(first)
        if speed is None:
            return None
        current = [first]
        in_current = {first}
        load = spg.weights[first]
    if len(placed) != spg.n:
        return None
    return clusters, speeds


def reference_quotient_ok(spg: SPG, assigned: dict[int, Core]) -> bool:
    """True iff the partial clustering ``assigned`` has an acyclic quotient.

    Unassigned stages act as singleton clusters.
    """
    cluster_of = {i: assigned.get(i, ("stage", i)) for i in range(spg.n)}
    return is_acyclic_quotient(spg, cluster_of)


def reference_greedy_at_speed(
    problem: ProblemInstance, k: int
) -> Mapping | None:
    """One Greedy pass with every core clocked at its speed number ``k``."""
    spg, grid, T = problem.spg, problem.grid, problem.period

    def cap_work(core: Core) -> float:
        return T * grid.core_speed(core, k)

    cap_bytes = grid.model.link_capacity(T)

    start = grid.start_core()
    assigned: dict[int, Core] = {}
    offers: dict[Core, list[int]] = {start: [spg.source]}
    offered_at: dict[int, Core] = {spg.source: start}
    incoming_load: dict[Core, float] = {}
    processed: set[Core] = set()
    queue: deque[Core] = deque([start])

    def incoming_volume(j: int, core: Core) -> float:
        return sum(
            d
            for i, d in spg.in_edges(j)
            if assigned.get(i) == core
        )

    while queue:
        core = queue.popleft()
        if core in processed:
            continue
        processed.add(core)
        pool: list[int] = list(offers.pop(core, []))
        load = 0.0
        core_cap = cap_work(core)

        while True:
            candidates = [j for j in pool if j not in assigned]
            for i, c in list(assigned.items()):
                if c != core:
                    continue
                for j in spg.succs(i):
                    if j not in assigned and j not in candidates:
                        owner = offered_at.get(j)
                        if owner is None or owner == core:
                            candidates.append(j)
            candidates.sort(key=lambda j: (-incoming_volume(j, core), j))
            grew = False
            for j in candidates:
                if load + spg.weights[j] > core_cap:
                    continue
                assigned[j] = core
                if reference_quotient_ok(spg, assigned):
                    load += spg.weights[j]
                    if j in pool:
                        pool.remove(j)
                    offered_at.pop(j, None)
                    grew = True
                    break
                del assigned[j]
            if not grew:
                break

        outgoing: dict[int, float] = {}
        for j in pool:
            if j not in assigned:
                outgoing[j] = outgoing.get(j, 0.0) + incoming_volume(j, core)
        for i, c in assigned.items():
            if c != core:
                continue
            for j in spg.succs(i):
                if j not in assigned and offered_at.get(j) in (None, core):
                    outgoing.setdefault(j, incoming_volume(j, core))

        if outgoing:
            targets = [
                c
                for c in grid.forward_neighbors(core)
                if c not in processed
            ]
            if not targets:
                return None
            offer_work = {
                c: sum(spg.weights[i] for i in offers.get(c, []))
                for c in targets
            }
            for j in sorted(outgoing, key=lambda j: (-outgoing[j], j)):
                roomy = [
                    c
                    for c in targets
                    if offer_work[c] + spg.weights[j] <= cap_work(c)
                ]
                tgt = min(
                    roomy or targets,
                    key=lambda c: incoming_load.get(c, 0.0),
                )
                incoming_load[tgt] = incoming_load.get(tgt, 0.0) + outgoing[j]
                if incoming_load[tgt] > cap_bytes:
                    return None
                offer_work[tgt] += spg.weights[j]
                offers.setdefault(tgt, []).append(j)
                offered_at[j] = tgt
                if tgt not in queue:
                    queue.append(tgt)

    if len(assigned) != spg.n:
        return None
    speeds = {c: grid.core_speed(c, k) for c in set(assigned.values())}
    mapping = Mapping(spg, grid, assigned, speeds)
    try:
        mapping.check_structure()
    except MappingError:
        return None
    if not is_period_feasible(mapping, T):
        return None
    return _downgrade(problem, mapping)
