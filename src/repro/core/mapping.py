"""The mapping object: stage allocation, core speeds, communication paths.

A mapping (Section 3.3) is defined by an allocation function from stages to
cores, a speed per active core, and, for every application edge whose
endpoints land on distinct cores, the path of links used to route the
communication.  Paths default to the platform topology's routing policy
(XY on the mesh) but heuristics may override them (the 1D heuristics route
along the topology's line embedding).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import MappingError
from repro.core.partition import is_acyclic_quotient
from repro.platform.cmp import Core
from repro.platform.topology import Topology
from repro.spg.graph import SPG
from repro.util.fmt import format_grid

__all__ = ["Mapping"]

Edge = tuple[int, int]


@dataclass
class Mapping:
    """A complete DAG-partition mapping of an SPG onto a CMP.

    Attributes
    ----------
    spg, grid:
        The application and platform topology (the paper's mesh or any
        other registered fabric).
    alloc:
        ``alloc[i]`` is the core executing stage ``i`` (all stages mapped).
    speeds:
        ``speeds[core]`` for every active core, in Hz (a member of that
        core's speed set — per-core sets may be scaled on heterogeneous
        platforms).
    paths:
        ``paths[(i, j)]`` is the core path (inclusive) routing edge
        ``(i, j)``; edges whose endpoints share a core need no entry.
        Missing paths for remote edges are filled with the topology's
        routing policy (XY routes on the mesh).
    """

    spg: SPG
    grid: Topology
    alloc: dict[int, Core]
    speeds: dict[Core, float]
    paths: dict[Edge, list[Core]] = field(default_factory=dict)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        route = self.grid.route
        for (i, j) in self.remote_edges():
            if (i, j) not in self.paths:
                self.paths[(i, j)] = route(self.alloc[i], self.alloc[j])

    # ------------------------------------------------------------------
    # Views
    #
    # Mappings are effectively frozen once constructed (heuristics build a
    # fresh Mapping per candidate), so the derived views the evaluation
    # reads (all but clusters) are computed once and memoised.  Treat the
    # returned containers as read-only.
    # ------------------------------------------------------------------
    def remote_edges(self) -> list[Edge]:
        """Application edges whose endpoints are on distinct cores.

        Edges with an unmapped endpoint are skipped here so that a partial
        allocation fails in :meth:`check_structure` with a clear error
        rather than during construction.
        """
        cached = self._memo.get("remote_edges")
        if cached is None:
            alloc = self.alloc
            cached = self._memo["remote_edges"] = [
                (i, j)
                for (i, j) in self.spg.edges
                if i in alloc and j in alloc and alloc[i] != alloc[j]
            ]
        return cached

    def clusters(self) -> dict[Core, list[int]]:
        """Stages grouped by core (unmapped stages are skipped).

        Tolerating a partial allocation keeps debugging renders such as
        :meth:`ascii` usable mid-construction; :meth:`check_structure` is
        the place where partial allocations are rejected.
        """
        out: dict[Core, list[int]] = {}
        for i in range(self.spg.n):
            c = self.alloc.get(i)
            if c is not None:
                out.setdefault(c, []).append(i)
        return out

    def active_cores(self) -> set[Core]:
        """Cores executing at least one stage."""
        cached = self._memo.get("active_cores")
        if cached is None:
            cached = self._memo["active_cores"] = set(self.alloc.values())
        return cached

    def core_work(self) -> dict[Core, float]:
        """Total computation weight per active core."""
        cached = self._memo.get("core_work")
        if cached is None:
            out: dict[Core, float] = {}
            weights = self.spg.weights
            for i, c in self.alloc.items():
                out[c] = out.get(c, 0.0) + weights[i]
            cached = self._memo["core_work"] = out
        return cached

    def link_traffic(self) -> dict[tuple[Core, Core], float]:
        """Bytes per period on every used directed link."""
        cached = self._memo.get("link_traffic")
        if cached is None:
            out: dict[tuple[Core, Core], float] = {}
            edges = self.spg.edges
            for (i, j) in self.remote_edges():
                d = edges[(i, j)]
                path = self.paths[(i, j)]
                for a, b in zip(path, path[1:]):
                    out[(a, b)] = out.get((a, b), 0.0) + d
            cached = self._memo["link_traffic"] = out
        return cached

    def hops(self) -> float:
        """Total byte-hops (communication volume weighted by path length)."""
        return sum(self.link_traffic().values())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_structure(self, require_dag_partition: bool = True) -> None:
        """Raise :class:`MappingError` on any structural violation.

        Checks: total allocation onto in-bounds cores, speeds belong to
        each core's speed set and cover all active cores, paths connect the
        right cores over valid links, and — unless ``require_dag_partition``
        is false (*general mappings*, the paper's Section-7 future work) —
        that the clustering is a DAG-partition (acyclic quotient).
        """
        spg, grid = self.spg, self.grid
        if set(self.alloc) != set(range(spg.n)):
            raise MappingError("allocation must cover every stage exactly")
        for i, c in self.alloc.items():
            if not grid.in_bounds(c):
                raise MappingError(f"stage {i} mapped outside the grid: {c}")
        for c in self.active_cores():
            s = self.speeds.get(c)
            if s is None:
                raise MappingError(f"active core {c} has no speed")
            if s not in grid.speed_set(c):
                raise MappingError(f"core {c} speed {s} not in the DVFS set")
        for (i, j) in self.remote_edges():
            path = self.paths.get((i, j))
            if path is None:
                raise MappingError(f"edge ({i}, {j}) has no path")
            if path[0] != self.alloc[i] or path[-1] != self.alloc[j]:
                raise MappingError(
                    f"path for edge ({i}, {j}) does not connect its cores"
                )
            try:
                grid.validate_path(path)
            except ValueError as exc:
                raise MappingError(
                    f"path for edge ({i}, {j}) is invalid: {exc}"
                ) from exc
        if require_dag_partition and not is_acyclic_quotient(spg, self.alloc):
            raise MappingError("clustering is not a DAG-partition")

    def is_valid_structure(self, require_dag_partition: bool = True) -> bool:
        """Boolean form of :meth:`check_structure`."""
        try:
            self.check_structure(require_dag_partition)
        except MappingError:
            return False
        return True

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_clusters(
        spg: SPG,
        grid: Topology,
        clusters: dict[Core, list[int]],
        period: float,
        paths: dict[Edge, list[Core]] | None = None,
    ) -> "Mapping":
        """Build a mapping from a core -> stages dictionary.

        Each core is assigned the energy-optimal speed meeting the period
        for its workload (see :meth:`PowerModel.best_feasible`, applied to
        that core's own — possibly scaled — model); raises
        :class:`MappingError` when a cluster cannot meet the period at top
        speed.
        """
        alloc: dict[int, Core] = {}
        for c, stages in clusters.items():
            for i in stages:
                if i in alloc:
                    raise MappingError(f"stage {i} appears in two clusters")
                alloc[i] = c
        speeds: dict[Core, float] = {}
        for c, stages in clusters.items():
            work = sum(spg.weights[i] for i in stages)
            s = grid.core_model(c).best_feasible(work, period)
            if s is None:
                raise MappingError(
                    f"cluster on {c} (work {work:.3g}) cannot meet T={period}"
                )
            speeds[c] = s
        return Mapping(spg, grid, alloc, speeds, dict(paths or {}))

    def ascii(self) -> str:
        """Render the allocation on the grid (stage counts per core)."""
        cells = {
            c: f"{len(stages)}" for c, stages in self.clusters().items()
        }
        return format_grid(self.grid.p, self.grid.q, cells)
