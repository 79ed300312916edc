"""Incremental delta-evaluation of local-search moves on a mapping.

The Section-7 refiner explores thousands of candidate moves per sweep;
rebuilding a full :class:`~repro.core.mapping.Mapping` and re-running
:func:`~repro.core.evaluate.energy` for each one costs O(n + E) with
heavy constants.  :class:`DeltaState` keeps the evaluation state of the
*current* mapping factored per resource —

* per-core stage clusters, computation work, energy-optimal speed and
  dynamic-energy term (heterogeneous per-core models included),
* per-link traffic as a map of per-edge contributions, routed through the
  topology's own ``route`` policy (not hardwired XY),
* route-validity and DAG-partition bookkeeping,

so that a move touches only the affected cores, edges and links.  The
refiner grades the candidate moves of a neighbourhood in three steps:

1. :meth:`screen_neighbourhood` takes one neighbourhood — a stage moved
   to every core, a core swapped with every core, or a core powered off
   into every active core — and lazily yields each candidate's
   approximate energy change, or ``None`` when a touched core has no
   feasible speed.  It reads the affected cores and edges and changes
   nothing.  What does not depend on the destination (the source core's
   new term, the moved stages' edges and old hop counts) is computed
   once per neighbourhood, as copies: :meth:`revert` swaps snapshot
   copies into the state, so a reference held across candidates would
   go stale.  Each candidate then costs O(affected at the destination).
   :meth:`screen` is its one-destination call.
2. :meth:`evaluate_move` applies the move and runs the exact checks:
   speeds, quotient acyclicity (Kahn over the whole quotient), route
   validity, the period and :meth:`score`.  Applying is O(affected);
   :meth:`period_feasible` and :meth:`score` walk every active core
   and link.
3. The caller keeps the move or undoes it with :meth:`revert`, which
   is O(affected).

**Bit-identity.**  The refiner's full-rebuild reference path accepts a
move by comparing ``energy(rebuilt_mapping).total`` against a strict
threshold, so the delta layer cannot afford *any* float divergence.
Floating-point addition is not associative; therefore nothing here is
updated by ``+= delta`` arithmetic.  Instead, every affected quantity is
*recomputed in the canonical order* a fresh rebuild would use:

* per-core work sums stage weights in ascending stage order (the order a
  stage-keyed allocation scan produces),
* per-link traffic sums edge contributions in ``SPG.edge_list`` order,
* ``comp_dyn`` sums core terms in order of each cluster's minimum stage
  (the first-appearance order of a stage-order allocation scan),
* ``comm_dyn`` sums link terms in first-appearance order of the
  remote-edge scan (edge index, then hop position).

Unaffected resources keep their previously-canonical values, so every
:meth:`score` equals ``energy(Mapping(spg, grid, {i: alloc[i] for i in
range(n)}, best_feasible_speeds))`` bit for bit — the equivalence suite
in ``tests/test_refine_equivalence.py`` pins this across topologies.
:meth:`screen_neighbourhood` is the one place that sums a change.  Its
approximate value only decides which candidates skip the exact path; a
move is accepted on its exact :meth:`score` alone.

Supported moves: :class:`MoveStage` (one stage to another core),
:class:`SwapClusters` (exchange two cores' whole clusters) and
:class:`PowerOff` (empty a core into another active one, shedding its
leakage).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.evaluate import EnergyBreakdown
from repro.core.mapping import Mapping
from repro.core.problem import ProblemInstance
from repro.platform.topology import Topology

__all__ = ["MoveStage", "SwapClusters", "PowerOff", "DeltaState"]

Core = tuple[int, int]
Link = tuple[Core, Core]


# ----------------------------------------------------------------------
# Move kinds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MoveStage:
    """Reassign one stage to another core."""

    stage: int
    core: Core


@dataclass(frozen=True)
class SwapClusters:
    """Exchange the whole clusters of two cores (either may be empty)."""

    a: Core
    b: Core


@dataclass(frozen=True)
class PowerOff:
    """Empty ``core`` into ``target``, powering ``core`` off."""

    core: Core
    target: Core


class _Token:
    """Undo record of one :meth:`DeltaState.apply` (first-touch snapshots)."""

    __slots__ = ("alloc", "cores", "qcount", "epaths", "bad", "links")

    def __init__(self) -> None:
        self.alloc: dict[int, Core] = {}
        self.cores: dict[Core, tuple | None] = {}
        self.qcount: dict[tuple[int, int], int | None] = {}
        self.epaths: dict[int, list | None] = {}
        self.bad: dict[int, bool] = {}
        self.links: dict[Link, tuple | None] = {}


class DeltaState:
    """Mutable evaluation state of one allocation under local-search moves.

    The state models the *canonical rebuild* of an allocation: topology
    routes for every remote edge and energy-optimal per-core speeds (the
    input mapping's own custom paths and speeds are deliberately ignored,
    exactly as the full-rebuild refiner ignores them for candidates).

    Parameters
    ----------
    problem:
        The instance (SPG, topology, period).
    mapping:
        The starting mapping; only its allocation is read.
    require_dag_partition:
        When true (the default), :meth:`structure_valid` additionally
        checks quotient acyclicity; ``False`` admits *general mappings*.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        mapping: Mapping,
        require_dag_partition: bool = True,
    ) -> None:
        spg, grid = problem.spg, problem.grid
        self._spg = spg
        self._grid: Topology = grid
        self._period = problem.period
        self._period_bound = problem.period * (1.0 + 1e-9)
        self._model = grid.model
        self._require_dag = require_dag_partition
        self._weights = spg.weights
        n = self._n = spg.n

        cores = grid.cores()
        self._core_index = {c: k for k, c in enumerate(cores)}
        self._n_cores = len(cores)
        # Heterogeneous platforms resolve each core's scaled model; the
        # homogeneous fast path skips the lookup, as ``energy`` does.
        if grid.speed_scales:
            self._core_model = grid.core_model
        else:
            base_model = grid.model
            self._core_model = lambda _core: base_model

        edge_list = spg.edge_list
        self._esrc = [i for (i, _j, _d) in edge_list]
        self._edst = [j for (_i, j, _d) in edge_list]
        self._evol = [d for (_i, _j, d) in edge_list]
        stage_edges: list[list[int]] = [[] for _ in range(n)]
        for k, (i, j, _d) in enumerate(edge_list):
            stage_edges[i].append(k)
            stage_edges[j].append(k)
        self._stage_edges = stage_edges

        # -- allocation ------------------------------------------------
        alloc_in = mapping.alloc
        self._alloc: list[Core] = [alloc_in[i] for i in range(n)]
        self._cid: list[int] = [self._core_index[c] for c in self._alloc]
        # Quotient multigraph edge counts, maintained move by move so the
        # DAG-partition check never rescans the whole edge list.
        qcount: dict[tuple[int, int], int] = {}
        cid = self._cid
        for k in range(len(edge_list)):
            a, b = cid[self._esrc[k]], cid[self._edst[k]]
            if a != b:
                qcount[(a, b)] = qcount.get((a, b), 0) + 1
        self._qcount = qcount

        # -- per-core state --------------------------------------------
        self._cluster: dict[Core, set[int]] = {}
        for i, c in enumerate(self._alloc):
            self._cluster.setdefault(c, set()).add(i)
        self._work: dict[Core, float] = {}
        self._speed: dict[Core, float | None] = {}
        self._term: dict[Core, float | None] = {}
        self._min_stage: dict[Core, int] = {}
        self._broken: set[Core] = set()
        for c in list(self._cluster):
            self._refresh_core(c)

        # -- per-edge routes and per-link traffic ----------------------
        self._route_cache: dict[tuple[Core, Core], list[Core]] = {}
        self._route_ok: dict[tuple[Core, Core], bool] = {}
        self._epath: dict[int, list[Core]] = {}
        self._bad_edges: set[int] = set()
        self._linkc: dict[Link, dict[int, tuple[float, int]]] = {}
        self._ltraffic: dict[Link, float] = {}
        self._lfirst: dict[Link, tuple[int, int]] = {}
        alloc = self._alloc
        for k in range(len(edge_list)):
            u, v = self._esrc[k], self._edst[k]
            if alloc[u] != alloc[v]:
                self._set_edge_path(k)
        for link in list(self._linkc):
            self._refresh_link(link)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_active_cores(self) -> int:
        return len(self._cluster)

    def active_cores(self) -> set[Core]:
        return set(self._cluster)

    def core_of(self, stage: int) -> Core:
        return self._alloc[stage]

    def cluster_of(self, core: Core) -> frozenset[int]:
        return frozenset(self._cluster.get(core, ()))

    def speeds_feasible(self) -> bool:
        """True iff every active core has a period-feasible speed."""
        return not self._broken

    def routes_valid(self) -> bool:
        """True iff every remote edge's route is a valid link chain.

        Routing policies may emit paths a restricted fabric cannot carry
        (XY routes on a uni-directional grid); those candidates must be
        rejected exactly as the full validator rejects them.
        """
        return not self._bad_edges

    def max_cycle_time(self) -> float:
        """Max cycle-time over all resources, bit-equal to the full eval."""
        mx = 0.0
        speed = self._speed
        for c, w in self._work.items():
            t = w / speed[c]
            if t > mx:
                mx = t
        bw = self._model.bandwidth
        for traffic in self._ltraffic.values():
            t = traffic / bw
            if t > mx:
                mx = t
        return mx

    def period_feasible(self) -> bool:
        """True iff all speeds exist and no resource exceeds the period."""
        if self._broken:
            return False
        return self.max_cycle_time() <= self._period_bound

    def quotient_acyclic(self) -> bool:
        """Kahn's algorithm on the (incrementally maintained) quotient.

        Runs on the distinct quotient edges only — O(clusters + quotient
        edges), independent of the SPG's edge count.
        """
        qcount = self._qcount
        if not qcount:
            return True
        adj: dict[int, list[int]] = {}
        indeg: dict[int, int] = {}
        for (a, b) in qcount:
            lst = adj.get(a)
            if lst is None:
                lst = adj[a] = []
            lst.append(b)
            indeg[b] = indeg.get(b, 0) + 1
        n_nodes = len(adj.keys() | indeg.keys())
        stack = [a for a in adj if a not in indeg]
        seen = 0
        while stack:
            a = stack.pop()
            seen += 1
            for b in adj.get(a, ()):
                d = indeg[b] - 1
                if d:
                    indeg[b] = d
                else:
                    del indeg[b]
                    stack.append(b)
        return seen == n_nodes

    def structure_valid(self) -> bool:
        """Route validity plus (unless general) quotient acyclicity."""
        if self._bad_edges:
            return False
        return not self._require_dag or self.quotient_acyclic()

    def score(self) -> EnergyBreakdown | None:
        """Energy of the current state (``None`` when a speed is missing).

        Canonical summation order (see the module docstring) makes the
        result bit-identical to ``energy`` on the rebuilt mapping.
        """
        if self._broken:
            return None
        model = self._model
        period = self._period
        comp_leak = len(self._cluster) * model.comp_leak * period
        comp_dyn = 0.0
        term = self._term
        for c in sorted(self._cluster, key=self._min_stage.__getitem__):
            comp_dyn += term[c]
        comm_leak = model.comm_leak * period
        comm_dyn = 0.0
        traffic = self._ltraffic
        comm_energy = model.comm_energy
        for link in sorted(traffic, key=self._lfirst.__getitem__):
            comm_dyn += comm_energy(traffic[link])
        return EnergyBreakdown(comp_leak, comp_dyn, comm_leak, comm_dyn)

    def screen(self, move) -> float | None:
        """Approximate change of the total energy under ``move``.

        A one-destination call of :meth:`screen_neighbourhood`, so the
        single-move and neighbourhood screens cannot drift apart.
        """
        if isinstance(move, MoveStage):
            kind, a, b = MoveStage, move.stage, move.core
        elif isinstance(move, SwapClusters):
            kind, a, b = SwapClusters, move.a, move.b
        elif isinstance(move, PowerOff):
            kind, a, b = PowerOff, move.core, move.target
        else:
            raise TypeError(f"unknown move kind: {move!r}")
        return next(self.screen_neighbourhood(kind, a, (b,)))

    def screen_neighbourhood(
        self, kind, a, targets
    ) -> Iterator[float | None]:
        """Approximate energy change of ``kind(a, b)`` for each target ``b``.

        ``kind`` is :class:`MoveStage` (``a`` a stage), :class:`SwapClusters`
        or :class:`PowerOff` (``a`` a core).  Reads the state without
        changing it.  The change is summed over the affected resources
        only:

        * each touched core's new-minus-old dynamic term, its new work
          summed in canonical stage order by the same helper
          :meth:`evaluate_move` uses, so its speed choice is exact;
        * the leakage of each core that powers on or off;
        * ``comm_energy(sum(vol_k * dhops_k))`` over the edges incident to
          a moved stage.  ``comm_energy`` is linear in the volume, so
          this equals the change of the per-link ``comm_energy`` sum.

        Work that does not depend on the destination is done once per
        call, before the first change: the source core's new term, and
        the moved stages' edges with their old hop counts.  A same-model swap
        reads each core's new term from the other core's current one.
        The generator is lazy, so the caller may grade a candidate with
        :meth:`evaluate_move` and :meth:`revert` it before drawing the
        next change.  ``revert`` swaps snapshot copies into the state, so
        everything held across destinations is a copy, never a reference
        into the state.

        Yields ``None`` when a touched core has no feasible speed after
        the move, where :meth:`evaluate_move` rejects it as well, or
        before it, where the state has no total to change.  Otherwise the
        current total plus the change equals the moved state's
        :meth:`score` up to float rounding (the relative bound is argued
        in :mod:`repro.heuristics.refine`).  Quotient cycles, route
        validity and the period are left to :meth:`evaluate_move`.
        """
        if kind is MoveStage:
            return self._screen_shifts(self._alloc[a], [a], targets)
        if kind is PowerOff:
            moving = sorted(self._cluster.get(a, ()))
            return self._screen_shifts(a, moving, targets)
        if kind is SwapClusters:
            return self._screen_swaps(a, targets)
        raise TypeError(f"unknown move kind: {kind!r}")

    def evaluate_move(self, move) -> tuple[_Token, EnergyBreakdown | None]:
        """Apply ``move`` and grade the result in one call.

        Returns ``(token, breakdown)``; ``breakdown`` is ``None`` when the
        moved state is rejected (missing speed, invalid route, period
        violation, or — unless general mappings are allowed — a cyclic
        quotient), i.e. exactly when the full validator would reject the
        rebuilt candidate.  The caller decides to keep or :meth:`revert`.
        """
        token = _Token()
        moved = self._collect(move)
        edge_ids = self._apply_cores(token, moved)
        # Cheap rejections first: the per-core speed check and the
        # (alloc-only) quotient acyclicity gate run before any route or
        # link traffic is touched — most rejected candidates never pay
        # for rerouting.  The acceptance decision is order-independent.
        if self._broken:
            return token, None
        if self._require_dag and not self.quotient_acyclic():
            return token, None
        self._apply_links(token, edge_ids)
        if self._bad_edges:
            return token, None
        if not self.period_feasible():
            return token, None
        return token, self.score()

    def to_mapping(self) -> Mapping:
        """Materialise the state as a canonical stage-ordered Mapping."""
        alloc = {i: self._alloc[i] for i in range(self._n)}
        speeds = {c: self._speed[c] for c in self._cluster}
        return Mapping(self._spg, self._grid, alloc, speeds)

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    def apply(self, move) -> _Token:
        """Apply ``move`` and return the undo token for :meth:`revert`."""
        token = _Token()
        moved = self._collect(move)
        edge_ids = self._apply_cores(token, moved)
        self._apply_links(token, edge_ids)
        return token

    def _collect(self, move) -> list[tuple[int, Core]]:
        """Normalise a move into effective ``(stage, new_core)`` pairs."""
        if isinstance(move, MoveStage):
            pairs = [(move.stage, move.core)]
        elif isinstance(move, SwapClusters):
            a, b = move.a, move.b
            if a == b:
                return []
            pairs = [(i, b) for i in sorted(self._cluster.get(a, ()))]
            pairs += [(i, a) for i in sorted(self._cluster.get(b, ()))]
        elif isinstance(move, PowerOff):
            if move.core == move.target:
                return []
            pairs = [
                (i, move.target)
                for i in sorted(self._cluster.get(move.core, ()))
            ]
        else:
            raise TypeError(f"unknown move kind: {move!r}")
        alloc = self._alloc
        return [(i, dst) for i, dst in pairs if alloc[i] != dst]

    def revert(self, token: _Token) -> None:
        """Restore the state recorded by :meth:`apply`."""
        core_index = self._core_index
        for i, c in token.alloc.items():
            self._alloc[i] = c
            self._cid[i] = core_index[c]
        for pair, old in token.qcount.items():
            if old is None:
                self._qcount.pop(pair, None)
            else:
                self._qcount[pair] = old
        for c, snap in token.cores.items():
            if snap is None:
                self._cluster.pop(c, None)
                self._work.pop(c, None)
                self._speed.pop(c, None)
                self._term.pop(c, None)
                self._min_stage.pop(c, None)
                self._broken.discard(c)
            else:
                stages, work, speed, term, lowest = snap
                self._cluster[c] = stages
                self._work[c] = work
                self._speed[c] = speed
                self._term[c] = term
                self._min_stage[c] = lowest
                if speed is None:
                    self._broken.add(c)
                else:
                    self._broken.discard(c)
        for k, path in token.epaths.items():
            if path is None:
                self._epath.pop(k, None)
            else:
                self._epath[k] = path
        for k, was_bad in token.bad.items():
            if was_bad:
                self._bad_edges.add(k)
            else:
                self._bad_edges.discard(k)
        for link, snap in token.links.items():
            if snap is None:
                self._linkc.pop(link, None)
                self._ltraffic.pop(link, None)
                self._lfirst.pop(link, None)
            else:
                contribs, traffic, first = snap
                self._linkc[link] = contribs
                self._ltraffic[link] = traffic
                self._lfirst[link] = first

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply_cores(self, token: _Token, moved) -> list[int]:
        """Reassign stages; refresh affected cores and quotient counts.

        Returns the ids of the edges incident to a moved stage (the ones
        :meth:`_apply_links` must re-route).
        """
        if not moved:
            return []
        alloc = self._alloc
        cid = self._cid
        cluster = self._cluster
        core_index = self._core_index
        tok_alloc = token.alloc
        touched_cores: set[Core] = set()
        for i, dst in moved:
            src = alloc[i]
            if i not in tok_alloc:
                tok_alloc[i] = src
            touched_cores.add(src)
            touched_cores.add(dst)
        for c in touched_cores:
            self._save_core(token, c)
        esrc, edst = self._esrc, self._edst
        stage_edges = self._stage_edges
        edge_ids: set[int] = set()
        for i, _dst in moved:
            edge_ids.update(stage_edges[i])
        edge_ids = list(edge_ids)
        old_pairs = [(cid[esrc[k]], cid[edst[k]]) for k in edge_ids]
        for i, dst in moved:
            cluster[alloc[i]].discard(i)
            cluster.setdefault(dst, set()).add(i)
            alloc[i] = dst
            cid[i] = core_index[dst]
        for c in touched_cores:
            self._refresh_core(c)
        for k, (oa, ob) in zip(edge_ids, old_pairs):
            na, nb = cid[esrc[k]], cid[edst[k]]
            if (oa, ob) == (na, nb):
                continue
            if oa != ob:
                self._qadjust(token, (oa, ob), -1)
            if na != nb:
                self._qadjust(token, (na, nb), 1)
        return edge_ids

    def _qadjust(self, token: _Token, pair: tuple[int, int], d: int) -> None:
        qcount = self._qcount
        old = qcount.get(pair)
        tq = token.qcount
        if pair not in tq:
            tq[pair] = old
        new = (old or 0) + d
        if new:
            qcount[pair] = new
        else:
            qcount.pop(pair, None)

    def _apply_links(self, token: _Token, edge_ids: list[int]) -> None:
        """Re-route every edge incident to a moved stage."""
        touched_links: set[Link] = set()
        for k in edge_ids:
            self._reroute_edge(token, k, touched_links)
        for link in touched_links:
            self._refresh_link(link)

    def _save_core(self, token: _Token, c: Core) -> None:
        if c in token.cores:
            return
        stages = self._cluster.get(c)
        if stages is None:
            token.cores[c] = None
        else:
            token.cores[c] = (
                set(stages),
                self._work[c],
                self._speed[c],
                self._term[c],
                self._min_stage[c],
            )

    def _core_energy(self, c: Core, stages) -> tuple:
        """``(work, speed, term)`` of ``stages`` placed on core ``c``.

        The work is summed in ascending stage order, the order a fresh
        rebuild uses, so the speed choice is exact; ``speed`` and
        ``term`` are ``None`` when no speed meets the period.
        """
        weights = self._weights
        work = 0.0
        for i in sorted(stages):
            work += weights[i]
        model = self._core_model(c)
        speed = model.best_feasible(work, self._period)
        if speed is None:
            return work, None, None
        return work, speed, (work / speed) * model.power_at(speed)

    def _screen_shifts(self, src: Core, moving: list[int], targets):
        """Screen moving the stages ``moving`` (sorted, all on ``src``)
        to each target: one stage, or a whole cluster powered off."""
        cluster, term = self._cluster, self._term
        if moving:
            rest = sorted(cluster[src].difference(moving))
            old = term[src]
            head, powered = None if old is None else 0.0 - old, -1
            if rest and head is not None:
                _work, speed, new = self._core_energy(src, rest)
                if speed is not None:
                    head += new
                    powered += 1
                else:
                    head = None
            records = self._edge_records(dict.fromkeys(moving))
        lone: dict = {}  # moving stages' energy on an empty core, by model
        for b in targets:
            if b == src or not moving:
                yield 0.0
                continue
            if head is None or term.get(b, 0.0) is None:
                yield None
                continue
            change, up = head, powered + 1
            stages = cluster.get(b)
            if stages is not None:
                change -= term[b]
                up -= 1
                energy = self._core_energy(b, [*stages, *moving])
            else:
                model = self._core_model(b)
                energy = lone.get(model)
                if energy is None:
                    energy = lone[model] = self._core_energy(b, moving)
            _work, speed, new = energy
            if speed is None:
                yield None
                continue
            yield self._settle(change + new, up, self._volume(records, b))

    def _screen_swaps(self, a: Core, targets):
        """Screen exchanging core ``a``'s cluster with each target's."""
        cluster, term = self._cluster, self._term
        own = sorted(cluster.get(a, ()))
        model = self._core_model(a)
        if own:
            old = term[a]
            head, lit = None if old is None else 0.0 - old, -1
            mine = (self._work[a], self._speed[a], old)
        else:
            head, lit = 0.0, 0
        # An empty target adds no edges and sends none of a's edges to a.
        own_records = self._edge_records(dict.fromkeys(own))
        for b in targets:
            stages = cluster.get(b)
            if b == a or not (own or stages):
                yield 0.0
                continue
            if head is None or term.get(b, 0.0) is None:
                yield None
                continue
            # Same model: each core's new term is the other's current one.
            same = self._core_model(b) is model
            change, powered = head, lit
            theirs = sorted(stages or ())
            if theirs:
                _work, speed, new = (
                    (self._work[b], self._speed[b], term[b]) if same
                    else self._core_energy(a, theirs)
                )
                if speed is None:
                    yield None
                    continue
                change = change + new - term[b]
            if own:
                _work, speed, new = mine if same else self._core_energy(b, own)
                if speed is None:
                    yield None
                    continue
                change += new
                powered += 1
            records = own_records
            if theirs:
                new_core = dict.fromkeys(own)
                new_core.update(dict.fromkeys(theirs, a))
                records = self._edge_records(new_core)
            yield self._settle(change, powered, self._volume(records, b))

    def _edge_records(self, new_core: dict[int, Core | None]) -> list:
        """``(volume, old hops, new source, new target)`` of each edge
        incident to a stage of ``new_core``, which maps each moved stage
        to its new core (``None``: the screened destination).  The old
        hops are negated (``1 - len(path)``), ready to add the new ones."""
        alloc, epath = self._alloc, self._epath
        esrc, edst, evol = self._esrc, self._edst, self._evol
        stage_edges = self._stage_edges
        records = []
        for k in dict.fromkeys(k for i in new_core for k in stage_edges[i]):
            path = epath.get(k)
            u, v = esrc[k], edst[k]
            records.append((
                evol[k],
                1 - len(path) if path is not None else 0,
                new_core.get(u, alloc[u]),
                new_core.get(v, alloc[v]),
            ))
        return records

    def _volume(self, records: list, b: Core) -> float:
        """``sum(vol_k * dhops_k)`` of ``records`` with the moved stages
        that land on the destination placed on ``b``."""
        routes = self._route_cache
        volume = 0.0
        for vol, hops, x, y in records:
            x = x or b
            y = y or b
            if x != y:
                hops += len(routes.get((x, y)) or self._route(x, y)) - 1
            if hops:
                volume += vol * hops
        return volume

    def _settle(self, change: float, powered: int, volume: float) -> float:
        """Add the leakage of ``powered`` cores and the traffic change."""
        model = self._model
        if powered:
            change += powered * model.comp_leak * self._period
        if volume:
            change += model.comm_energy(volume)
        return change

    def _refresh_core(self, c: Core) -> None:
        """Recompute one core's work/speed/term in canonical stage order."""
        stages = self._cluster.get(c)
        if not stages:
            self._cluster.pop(c, None)
            self._work.pop(c, None)
            self._speed.pop(c, None)
            self._term.pop(c, None)
            self._min_stage.pop(c, None)
            self._broken.discard(c)
            return
        work, speed, term = self._core_energy(c, stages)
        self._work[c] = work
        self._min_stage[c] = min(stages)
        self._speed[c] = speed
        self._term[c] = term
        if speed is None:
            self._broken.add(c)
        else:
            self._broken.discard(c)

    def _route(self, src: Core, dst: Core) -> list[Core]:
        key = (src, dst)
        path = self._route_cache.get(key)
        if path is None:
            path = self._route_cache[key] = self._grid.route(src, dst)
        return path

    def _set_edge_path(self, k: int, token: _Token | None = None) -> None:
        """Route remote edge ``k`` and record its link contributions.

        With a ``token``, every touched link is snapshotted before its
        contribution map is mutated.
        """
        path = self._route(self._alloc[self._esrc[k]],
                           self._alloc[self._edst[k]])
        self._epath[k] = path
        d = self._evol[k]
        linkc = self._linkc
        for pos in range(len(path) - 1):
            link = (path[pos], path[pos + 1])
            if token is not None:
                self._save_link(token, link)
            contribs = linkc.get(link)
            if contribs is None:
                contribs = linkc[link] = {}
            contribs[k] = (d, pos)
        key = (path[0], path[-1])
        ok = self._route_ok.get(key)
        if ok is None:
            try:
                self._grid.validate_path(path)
                ok = True
            except ValueError:
                ok = False
            self._route_ok[key] = ok
        if ok:
            self._bad_edges.discard(k)
        else:
            self._bad_edges.add(k)

    def _reroute_edge(
        self, token: _Token, k: int, touched_links: set[Link]
    ) -> None:
        old_path = self._epath.get(k)
        if k not in token.epaths:
            token.epaths[k] = old_path
            token.bad[k] = k in self._bad_edges
        if old_path is not None:
            linkc = self._linkc
            for pos in range(len(old_path) - 1):
                link = (old_path[pos], old_path[pos + 1])
                self._save_link(token, link)
                del linkc[link][k]
                touched_links.add(link)
        u, v = self._esrc[k], self._edst[k]
        if self._alloc[u] != self._alloc[v]:
            self._set_edge_path(k, token)
            path = self._epath[k]
            for pos in range(len(path) - 1):
                touched_links.add((path[pos], path[pos + 1]))
        else:
            self._epath.pop(k, None)
            self._bad_edges.discard(k)

    def _save_link(self, token: _Token, link: Link) -> None:
        if link in token.links:
            return
        contribs = self._linkc.get(link)
        if contribs is None:
            token.links[link] = None
        else:
            token.links[link] = (
                dict(contribs),
                self._ltraffic.get(link),
                self._lfirst.get(link),
            )

    def _refresh_link(self, link: Link) -> None:
        """Recompute one link's traffic in canonical edge order."""
        contribs = self._linkc.get(link)
        if not contribs:
            self._linkc.pop(link, None)
            self._ltraffic.pop(link, None)
            self._lfirst.pop(link, None)
            return
        keys = sorted(contribs)
        traffic = 0.0
        for k in keys:
            traffic += contribs[k][0]
        self._ltraffic[link] = traffic
        k0 = keys[0]
        self._lfirst[link] = (k0, contribs[k0][1])
