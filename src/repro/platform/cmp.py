"""Chip-multiprocessor platform model (Section 3.2).

A :class:`CMPGrid` is a ``p x q`` array of cores — the paper's platform
and the default (and golden-pinned) :class:`~repro.platform.topology
.Topology` implementation.  Neighbouring cores are joined by
bi-directional links (one channel per direction) with bandwidth ``BW``
each.  The grid can also be *configured* as a uni-line array (Section
4.1/4.2): :meth:`CMPGrid.uni_line` builds 1 x r platforms, optionally
uni-directional, and :func:`repro.platform.routing.snake_order` embeds a
logical line into a physical grid.

Cores are addressed ``(u, v)`` with ``0 <= u < p`` (row) and ``0 <= v < q``
(column); note the paper uses 1-based indices.  Directed links are pairs
``((u, v), (u', v'))`` of neighbouring cores.

Optionally, ``speed_scales`` assigns per-core DVFS frequency scaling
factors (heterogeneous platforms, e.g. big.LITTLE checkerboards); the
scaled per-core power models come from
:meth:`~repro.platform.topology.Topology.core_model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.platform.speeds import XSCALE, PowerModel
from repro.platform.topology import Topology

__all__ = ["CMPGrid", "Core", "Link"]

Core = tuple[int, int]
Link = tuple[Core, Core]


@dataclass(frozen=True)
class CMPGrid(Topology):
    """A ``p x q`` grid of DVFS-capable cores.

    Parameters
    ----------
    p, q:
        Grid dimensions (rows x columns).
    model:
        The DVFS/power model shared by all cores (per-core scaling via
        ``speed_scales``).
    uni_directional:
        When true, only "forward" link directions exist: left-to-right
        within a row and top-to-bottom within a column.  Used for the
        uni-directional uni-line CMP of Section 4.1 (typically with p=1).
    speed_scales:
        Optional tuple of ``((u, v), factor)`` pairs giving heterogeneous
        per-core frequency scaling; absent cores default to 1.0.
    """

    name = "mesh"

    p: int
    q: int
    model: PowerModel = field(default=XSCALE)
    uni_directional: bool = False
    speed_scales: tuple[tuple[Core, float], ...] | None = None
    #: Instance-local derived-data cache (core/link lists, scaled models);
    #: excluded from equality/hash, as ``SPG.cached`` is.
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError("grid dimensions must be positive")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def square(p: int, model: PowerModel = XSCALE) -> "CMPGrid":
        """A ``p x p`` square CMP (Section 4.3)."""
        return CMPGrid(p, p, model)

    @staticmethod
    def uni_line(
        r: int, model: PowerModel = XSCALE, uni_directional: bool = False
    ) -> "CMPGrid":
        """A ``1 x r`` uni-line CMP (Sections 4.1 and 4.2)."""
        return CMPGrid(1, r, model, uni_directional=uni_directional)

    # ------------------------------------------------------------------
    # Topology: node and link sets
    # ------------------------------------------------------------------
    @property
    def n_cores(self) -> int:
        return self.p * self.q

    def cores(self) -> list[Core]:
        """All cores in row-major order (cached; treat read-only)."""
        cached = self._cache.get("cores")
        if cached is None:
            cached = self._cache["cores"] = [
                (u, v) for u in range(self.p) for v in range(self.q)
            ]
        return cached

    def in_bounds(self, core: Core) -> bool:
        u, v = core
        return 0 <= u < self.p and 0 <= v < self.q

    def neighbors(self, core: Core) -> list[Core]:
        """Cores reachable from ``core`` over one link hop."""
        u, v = core
        if self.uni_directional:
            cand = [(u, v + 1), (u + 1, v)]
        else:
            cand = [(u, v + 1), (u, v - 1), (u + 1, v), (u - 1, v)]
        return [c for c in cand if self.in_bounds(c)]

    def is_link(self, a: Core, b: Core) -> bool:
        """True iff ``(a, b)`` is a usable directed link."""
        if not (self.in_bounds(a) and self.in_bounds(b)):
            return False
        (u1, v1), (u2, v2) = a, b
        man = abs(u1 - u2) + abs(v1 - v2)
        if man != 1:
            return False
        if self.uni_directional and (u2 < u1 or v2 < v1):
            return False
        return True

    # ------------------------------------------------------------------
    # Topology: routing and line embedding
    # ------------------------------------------------------------------
    def route(self, src: Core, dst: Core) -> list[Core]:
        """XY routing (the paper's default for arbitrary mappings)."""
        from repro.platform.routing import xy_path

        return xy_path(src, dst)

    def forward_neighbors(self, core: Core) -> list[Core]:
        """Greedy forwards to the right and down neighbours (Section 5.2)."""
        u, v = core
        return [
            c for c in ((u, v + 1), (u + 1, v)) if self.in_bounds(c)
        ]

    def line_order(self) -> list[Core]:
        """The boustrophedon snake embedding (Section 5.4)."""
        from repro.platform.routing import snake_order

        return snake_order(self.p, self.q)

    def line_path(self, i: int, j: int) -> list[Core]:
        """The snake slice between positions ``i <= j`` (physical links)."""
        from repro.platform.routing import snake_path

        return snake_path(self, i, j)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "uni" if self.uni_directional else "bi"
        return f"CMPGrid({self.p}x{self.q}, {kind}-directional)"
