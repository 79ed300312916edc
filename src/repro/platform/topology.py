"""The pluggable platform abstraction: topologies and their registry.

The paper fixes the platform to a homogeneous ``p x q`` mesh with XY/snake
routing (Section 3.2).  This module generalises that into a *topology*
interface so that richer NoC fabrics — tori, rings, Benes-style multistage
networks — and heterogeneous per-core speed configurations plug into the
same evaluation core, heuristics and experiment harness.

A :class:`Topology` provides

* the **node set** (``cores()``, ``in_bounds``, ``n_cores``) addressed as
  ``(u, v)`` integer pairs inside a ``p x q`` bounding box (kept for
  rendering and the 2D dynamic programs),
* the **link set** (``links()``, ``is_link``, ``neighbors``) of directed
  one-hop channels, each with the model bandwidth per direction,
* a deterministic **routing policy** ``route(src, dst)`` returning the
  inclusive core path used for a remote communication (the mesh uses XY
  routing; other fabrics bring their own distributed schemes),
* a **line embedding** (``line_order``/``line_path``) that the 1D
  heuristics (DPA1D, DPA2D1D) map clusters along (the mesh uses the
  boustrophedon snake),
* a **per-core speed model** (``core_model``, ``core_speed``,
  ``speed_scale``) wiring heterogeneous DVFS scaling into the shared
  :class:`~repro.platform.speeds.PowerModel`.

Concrete fabrics register themselves under a string key (see
:func:`register_topology`); ``get_topology(name, p, q)`` builds one, which
is what the CLI's ``--topology`` flag and the scenario sweep engine use.

All topologies are immutable after construction; derived data (core and
link lists, scaled power models) is cached on the instance in a
comparison-excluded slot, mirroring ``SPG.cached``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.platform.speeds import XSCALE, PowerModel

__all__ = [
    "Topology",
    "TopologySpec",
    "TOPOLOGIES",
    "register_topology",
    "get_topology",
    "topology_names",
]

Core = tuple[int, int]
Link = tuple[Core, Core]


class Topology(ABC):
    """Abstract platform topology (see the module docstring).

    Subclasses must provide the attributes ``p``, ``q`` (bounding-box
    dimensions), ``model`` (the base :class:`PowerModel`) and
    ``speed_scales`` (``None`` for homogeneous platforms, else a tuple of
    ``(core, factor)`` pairs), a ``_cache`` dict excluded from equality,
    and implement the abstract methods below.  Everything else has a
    default implementation in terms of those.
    """

    #: Registry key of the concrete fabric (class attribute).
    name: str = "abstract"

    # -- node set ------------------------------------------------------
    @abstractmethod
    def cores(self) -> list[Core]:
        """All cores, in the topology's canonical order (treat read-only)."""

    @property
    def n_cores(self) -> int:
        return len(self.cores())

    def in_bounds(self, core: Core) -> bool:
        """True iff ``core`` is a node of this topology."""
        return core in self.cores()

    # -- link set ------------------------------------------------------
    @abstractmethod
    def neighbors(self, core: Core) -> list[Core]:
        """Cores reachable from ``core`` over one directed link hop."""

    def is_link(self, a: Core, b: Core) -> bool:
        """True iff ``(a, b)`` is a usable directed link."""
        return self.in_bounds(a) and b in self.neighbors(a)

    def links(self) -> list[Link]:
        """All directed links (cached on the instance; treat read-only)."""
        cached = self._cache.get("links")
        if cached is None:
            cached = self._cache["links"] = [
                (c, nb) for c in self.cores() for nb in self.neighbors(c)
            ]
        return cached

    def validate_path(self, path: Sequence[Core]) -> None:
        """Raise ``ValueError`` unless ``path`` is a chain of valid links.

        A single-core path is valid when the core is in bounds (a remote
        route degenerating to its endpoint); an empty path never is.
        """
        if not path:
            raise ValueError("a path needs at least one core")
        if not self.in_bounds(path[0]):
            raise ValueError(f"{path[0]} is not a core of this platform")
        for a, b in zip(path, path[1:]):
            if not self.is_link(a, b):
                raise ValueError(
                    f"({a} -> {b}) is not a link of this platform"
                )

    # -- routing -------------------------------------------------------
    @abstractmethod
    def route(self, src: Core, dst: Core) -> list[Core]:
        """The deterministic route from ``src`` to ``dst``, inclusive.

        Every consecutive pair of the result must satisfy :meth:`is_link`;
        ``route(c, c)`` returns ``[c]``.
        """

    def forward_neighbors(self, core: Core) -> list[Core]:
        """Cores the Greedy heuristic forwards unplaced stages to.

        The mesh forwards right and down (the paper's rule); fabrics with
        a different notion of "forward" override this.  The default is the
        full neighbor set, which keeps Greedy terminating (processed cores
        are never revisited) on arbitrary topologies.
        """
        return self.neighbors(core)

    def start_core(self) -> Core:
        """Where Greedy seeds the source stage (first canonical core)."""
        return self.cores()[0]

    # -- line embedding (1D heuristics) --------------------------------
    def line_order(self) -> list[Core]:
        """The cores enumerated along the topology's 1D line embedding.

        DPA1D and DPA2D1D place cluster ``t`` on ``line_order()[t]``.  The
        default is the canonical core order; topologies with a physically
        linked line (the mesh snake, rings) override this so that
        consecutive positions are one hop apart.
        """
        return self.cores()

    def line_path(self, i: int, j: int) -> list[Core]:
        """The physical path from line position ``i`` to ``j >= i``.

        The default concatenates :meth:`route` segments between
        consecutive line positions, which is valid on any topology;
        fabrics whose line embedding follows physical links override this
        with the exact link chain (the mesh returns the snake slice).
        """
        order = self.line_order()
        if not 0 <= i <= j < len(order):
            raise ValueError("need 0 <= i <= j < n_cores")
        path = [order[i]]
        for t in range(i, j):
            path.extend(self.route(order[t], order[t + 1])[1:])
        return path

    # -- per-core speed model ------------------------------------------
    def speed_scale(self, core: Core) -> float:
        """The DVFS frequency scaling factor of ``core`` (1.0 = baseline)."""
        scales = self.speed_scales
        if not scales:
            return 1.0
        table = self._cache.get("speed_scale_table")
        if table is None:
            table = self._cache["speed_scale_table"] = dict(scales)
        return table.get(core, 1.0)

    @property
    def heterogeneous(self) -> bool:
        """True iff at least one core's speed set differs from the base."""
        scales = self.speed_scales
        return bool(scales) and any(f != 1.0 for _c, f in scales)

    def core_model(self, core: Core) -> PowerModel:
        """The :class:`PowerModel` governing ``core`` (scaled if needed)."""
        scale = self.speed_scale(core)
        if scale == 1.0:
            return self.model
        cache = self._cache.setdefault("scaled_models", {})
        m = cache.get(scale)
        if m is None:
            m = cache[scale] = self.model.scaled(scale)
        return m

    def core_speed(self, core: Core, k: int) -> float:
        """Speed number ``k`` of ``core``'s DVFS set, in Hz."""
        return self.core_model(core).speeds[k]

    def speed_set(self, core: Core) -> frozenset[float]:
        """The set of admissible speeds of ``core`` (cached per scale)."""
        scale = self.speed_scale(core)
        cache = self._cache.setdefault("speed_sets", {})
        ss = cache.get(scale)
        if ss is None:
            ss = cache[scale] = frozenset(self.core_model(core).speeds)
        return ss

    # -- description ---------------------------------------------------
    def describe(self) -> str:
        """A short human-readable summary of the platform."""
        het = ""
        if self.heterogeneous:
            scales = sorted({f for _c, f in self.speed_scales})
            het = f", heterogeneous speed scales {scales}"
        return (
            f"{self.name}: {self.n_cores} cores ({self.p}x{self.q} "
            f"bounding box), {len(self.links())} directed links, "
            f"{len(self.model.speeds)} DVFS speeds{het}"
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """A registered topology: its key, a one-line summary and a builder.

    The builder signature is ``builder(p, q, model, **options) ->
    Topology`` where ``(p, q)`` is the requested platform size (each
    fabric documents how it interprets it) and ``model`` the base
    :class:`PowerModel`.
    """

    name: str
    summary: str
    builder: Callable[..., Topology]


#: name -> spec, populated by :func:`register_topology`.
TOPOLOGIES: dict[str, TopologySpec] = {}


def register_topology(name: str, summary: str):
    """Decorator adding a builder to :data:`TOPOLOGIES` under ``name``."""

    def deco(fn: Callable[..., Topology]) -> Callable[..., Topology]:
        TOPOLOGIES[name] = TopologySpec(name, summary, fn)
        return fn

    return deco


def topology_names() -> list[str]:
    """All registered topology keys, sorted."""
    return sorted(TOPOLOGIES)


def get_topology(
    name: str, p: int, q: int, model: PowerModel | None = None, **options
) -> Topology:
    """Build registered topology ``name`` for a ``p x q``-sized platform.

    Raises ``KeyError`` with the available names when ``name`` is unknown.
    """
    spec = TOPOLOGIES.get(name)
    if spec is None:
        raise KeyError(
            f"unknown topology {name!r}; available: "
            f"{', '.join(topology_names())}"
        )
    return spec.builder(p, q, model if model is not None else XSCALE, **options)
