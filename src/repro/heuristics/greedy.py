"""The Greedy heuristic (Section 5.2).

For each speed ``s`` of the DVFS set, ``greedy(s)`` assigns the SPG over the
grid with all cores clocked at ``s``:

* a FIFO of *ready cores* starts with ``C(0,0)`` holding the source stage;
* each ready core carries a list of *offered* stages (successors forwarded
  to it); processing the core, it absorbs offered stages and successors of
  its own stages — in non-increasing order of incoming communication
  volume — while the computation fits ``T`` and the partial clustering
  stays a DAG-partition;
* whatever it does not absorb is forwarded onward to the right and down
  neighbours ("the stages that can either be assigned to this core, or
  forwarded to the neighbouring cores"), each communication going to the
  neighbour with the smaller incoming communication load, preferring a
  neighbour with computation room left;
* when every stage is assigned, communications are routed with XY routing
  and the full mapping is validated; each core is then *downgraded* to the
  cheapest feasible speed for its load, and unused cores are off.

The heuristic returns the lowest-energy mapping over all speeds and fails
when no speed yields a valid mapping.
"""

from __future__ import annotations

from collections import deque

from repro.core.errors import HeuristicFailure, MappingError
from repro.core.evaluate import energy, is_period_feasible
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.heuristics.base import register
from repro.platform.cmp import Core
from repro.spg.graph import SPG
from repro.util.bitset import iter_bits

__all__ = ["greedy_mapping"]


class _Cluster:
    """One core's stages, with bitmasks of its members, of their immediate
    successors and of their strict descendants, and the communication
    volume into outside stages (cached until a new member feeds them)."""

    __slots__ = ("stages", "members", "succs", "descs", "_inflow")

    def __init__(self) -> None:
        self.stages: list[int] = []
        self.members = self.succs = self.descs = 0
        self._inflow: dict[int, float] = {}

    def add(self, spg: SPG, j: int) -> None:
        self.stages.append(j)
        self.members |= 1 << j
        for s in spg.succs(j):
            self.succs |= 1 << s
            self._inflow.pop(s, None)
        self.descs |= spg.descendant_masks()[j]

    def inflow(self, spg: SPG, j: int) -> float:
        """Communication volume into stage ``j`` from the members."""
        v = self._inflow.get(j)
        if v is None:
            members = self.members
            v = self._inflow[j] = sum(
                d for i, d in spg.in_edges(j) if members >> i & 1
            )
        return v


def _closes_cycle(
    spg: SPG, clusters: dict[Core, _Cluster], core: Core, j: int
) -> bool:
    """True when absorbing unassigned ``j`` into ``core``'s cluster would
    make the quotient cyclic (unassigned stages being singleton clusters).

    The quotient is acyclic before the absorption, so a new cycle must pass
    through C' = the cluster plus ``j``.  The walk starts from the stages
    just outside C' that C' feeds, follows their descendants, and expands
    every cluster it reaches as a whole: a cycle may leave C' into one
    cluster and come back from another stage of it, which SPG reachability
    alone misses.  ``j`` closes a cycle iff the walk gets back into C'.
    """
    desc = spg.descendant_masks()
    own = clusters[core]
    inside = own.members | 1 << j
    out = own.succs
    for s in spg.succs(j):
        out |= 1 << s
    out &= ~inside
    reach = out
    for y in iter_bits(out):
        reach |= desc[y]
    pending = [c for key, c in clusters.items() if key != core]
    while not reach & inside:
        rest = []
        for c in pending:
            if c.members & reach:
                reach |= c.members | c.descs
            else:
                rest.append(c)
        if len(rest) == len(pending):
            return False
        pending = rest
    return True


def _greedy_at_speed(problem: ProblemInstance, k: int) -> Mapping | None:
    """One Greedy pass with every core clocked at its speed number ``k``.

    On homogeneous platforms every core's speed ``k`` is the same value
    and this reduces exactly to the paper's single-speed pass; on
    heterogeneous platforms each core's computation capacity uses its own
    (scaled) speed.
    """
    spg, grid, T = problem.spg, problem.grid, problem.period

    def cap_work(core: Core) -> float:
        return T * grid.core_speed(core, k)

    cap_bytes = grid.model.link_capacity(T)

    start = grid.start_core()
    assigned: dict[int, Core] = {}
    # offers[core]: stages forwarded toward that core (not yet assigned).
    offers: dict[Core, list[int]] = {start: [spg.source]}
    offered_at: dict[int, Core] = {spg.source: start}
    incoming_load: dict[Core, float] = {}
    clusters: dict[Core, _Cluster] = {}
    processed: set[Core] = set()
    queue: deque[Core] = deque([start])

    while queue:
        core = queue.popleft()
        if core in processed:
            continue
        processed.add(core)
        mine = clusters[core] = _Cluster()
        pool: list[int] = list(offers.pop(core, []))
        load = 0.0
        core_cap = cap_work(core)

        # Absorb as much as possible: offered stages plus successors of the
        # stages already absorbed here, largest incoming volume first.
        while True:
            candidates = [j for j in pool if j not in assigned]
            for i in mine.stages:
                for j in spg.succs(i):
                    if j not in assigned and j not in candidates:
                        owner = offered_at.get(j)
                        if owner is None or owner == core:
                            candidates.append(j)
            candidates.sort(key=lambda j: (-mine.inflow(spg, j), j))
            grew = False
            for j in candidates:
                if load + spg.weights[j] > core_cap:
                    continue
                if _closes_cycle(spg, clusters, core, j):
                    continue
                assigned[j] = core
                mine.add(spg, j)
                load += spg.weights[j]
                if j in pool:
                    pool.remove(j)
                offered_at.pop(j, None)
                grew = True
                break
            if not grew:
                break

        # Whatever remains — unabsorbed offers plus fresh successors — is
        # forwarded to the right / down neighbours.
        outgoing: dict[int, float] = {}
        for j in pool:
            if j not in assigned:
                outgoing[j] = outgoing.get(j, 0.0) + mine.inflow(spg, j)
        for i in mine.stages:
            for j in spg.succs(i):
                if j not in assigned and offered_at.get(j) in (None, core):
                    outgoing.setdefault(j, mine.inflow(spg, j))

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
                # Balance incoming communications (the paper's rule), but
                # prefer a neighbour that still has computation room.
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


def _downgrade(problem: ProblemInstance, mapping: Mapping) -> Mapping:
    """Give every core the cheapest feasible speed for its final load."""
    grid = problem.grid
    new_speeds = {}
    for core, work in mapping.core_work().items():
        s = grid.core_model(core).best_feasible(work, problem.period)
        assert s is not None  # the mapping was feasible at the trial speed
        new_speeds[core] = s
    return Mapping(
        mapping.spg, mapping.grid, dict(mapping.alloc), new_speeds,
        dict(mapping.paths),
    )


@register("Greedy")
def greedy_mapping(problem: ProblemInstance, rng=None) -> Mapping:
    """Try every DVFS speed level, return the lowest-energy valid mapping."""
    best: Mapping | None = None
    best_e = float("inf")
    for k in range(len(problem.grid.model.speeds)):
        mapping = _greedy_at_speed(problem, k)
        if mapping is None:
            continue
        e = energy(mapping, problem.period).total
        if e < best_e:
            best, best_e = mapping, e
    if best is None:
        raise HeuristicFailure("Greedy: no speed produced a valid mapping")
    return best
