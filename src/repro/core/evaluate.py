"""Period and energy evaluation of a mapping (Sections 3.4 and 3.5).

Every heuristic's output is re-evaluated through this module by the
experiment harness, so results cannot depend on heuristic-internal
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import MappingError
from repro.core.mapping import Mapping
from repro.platform.topology import Topology
from repro.spg.graph import SPG

__all__ = [
    "EnergyBreakdown",
    "cycle_times",
    "max_cycle_time",
    "PERIOD_RTOL",
    "is_period_feasible",
    "period_out_of_reach",
    "energy",
    "validate",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one mapping over one period, split by source (Joules)."""

    comp_leak: float
    comp_dyn: float
    comm_leak: float
    comm_dyn: float

    @property
    def total(self) -> float:
        return self.comp_leak + self.comp_dyn + self.comm_leak + self.comm_dyn

    @property
    def comp(self) -> float:
        return self.comp_leak + self.comp_dyn

    @property
    def comm(self) -> float:
        return self.comm_leak + self.comm_dyn


def cycle_times(mapping: Mapping) -> dict[object, float]:
    """Cycle-time of every used resource.

    Keys are cores ``(u, v)`` (computation time ``w/s``) and directed links
    ``((u,v), (u',v'))`` (transfer time ``bytes / BW``).
    """
    out: dict[object, float] = {}
    speeds = mapping.speeds
    for core, work in mapping.core_work().items():
        out[core] = work / speeds[core]
    bw = mapping.grid.model.bandwidth
    for link, traffic in mapping.link_traffic().items():
        out[link] = traffic / bw
    return out


def max_cycle_time(mapping: Mapping) -> float:
    """The maximum cycle-time over all resources (the achievable period)."""
    return max(cycle_times(mapping).values(), default=0.0)


#: Relative slack of every period test: absorbs float round-off in DP
#: bookkeeping.
PERIOD_RTOL = 1e-9


def is_period_feasible(
    mapping: Mapping, period: float, rtol: float = PERIOD_RTOL
) -> bool:
    """True iff no resource's cycle-time exceeds ``period``."""
    return max_cycle_time(mapping) <= period * (1.0 + rtol)


def period_out_of_reach(spg: SPG, grid: Topology, period: float) -> bool:
    """True iff no mapping of ``spg`` onto ``grid`` can meet ``period``.

    The certificate: some stage alone, on the fastest core of the
    platform, takes longer than ``period``.  It is exact against
    :func:`validate`: the core hosting stage ``i`` has ``work >= w_i``
    (IEEE addition of non-negative weights is monotone) and a speed
    ``<= s_fast`` (:meth:`Mapping.check_structure` admits only the
    core's own DVFS speeds), so its cycle-time ``work / speed >= w_i /
    s_fast`` (IEEE division is monotone too) exceeds the bound widened
    by :data:`PERIOD_RTOL`, the tolerance ``validate`` always applies.
    """
    s_fast = max(grid.core_model(c).s_max for c in grid.cores())
    return max(spg.weights) / s_fast > period * (1.0 + PERIOD_RTOL)


def energy(mapping: Mapping, period: float) -> EnergyBreakdown:
    """Energy consumed per period by ``mapping`` (Section 3.5).

    ``E(comp) = |A| P_leak T + sum_cores (w/s) P_dyn(s)`` and
    ``E(comm) = P_leak^comm T + sum_links bits * E_bit``.
    """
    grid = mapping.grid
    model = grid.model
    active = mapping.active_cores()
    comp_leak = len(active) * model.comp_leak * period
    comp_dyn = 0.0
    # Homogeneous platforms (the common case) skip the per-core model
    # lookup entirely; heterogeneous ones resolve each core's scaled model.
    core_model = grid.core_model if grid.speed_scales else None
    for core, work in mapping.core_work().items():
        s = mapping.speeds[core]
        m = core_model(core) if core_model is not None else model
        comp_dyn += (work / s) * m.power_at(s)
    comm_leak = model.comm_leak * period
    comm_dyn = sum(
        model.comm_energy(traffic)
        for traffic in mapping.link_traffic().values()
    )
    return EnergyBreakdown(comp_leak, comp_dyn, comm_leak, comm_dyn)


def validate(
    mapping: Mapping, period: float, require_dag_partition: bool = True
) -> EnergyBreakdown:
    """Full validation: structure plus period; returns the energy breakdown.

    Raises :class:`MappingError` if the mapping is structurally invalid or
    misses the period.  ``require_dag_partition=False`` admits *general
    mappings* (Section-7 future work), which only need a valid allocation,
    speeds and routes.
    """
    mapping.check_structure(require_dag_partition)
    if not is_period_feasible(mapping, period):
        raise MappingError(
            f"period exceeded: max cycle-time {max_cycle_time(mapping):.6g} "
            f"> T={period:.6g}"
        )
    return energy(mapping, period)


def latency(mapping: Mapping) -> float:
    """End-to-end latency of one data set through the mapping (seconds).

    The critical-path time: each stage contributes ``w_i / s`` on its core
    and each remote edge contributes one link transfer per hop
    (``hops * delta / BW``).  Latency is the third objective of the
    companion work on linear chains ([5] in the paper); it is exposed here
    as an additional metric for mappings of SPGs.
    """
    spg = mapping.spg
    bw = mapping.grid.model.bandwidth
    finish: dict[int, float] = {}
    for i in spg.topological_order():
        start = 0.0
        for p in spg.preds(i):
            t = finish[p]
            if mapping.alloc[p] != mapping.alloc[i]:
                hops = len(mapping.paths[(p, i)]) - 1
                t += hops * spg.edges[(p, i)] / bw
            start = max(start, t)
        finish[i] = start + spg.weights[i] / mapping.speeds[mapping.alloc[i]]
    return finish[spg.sink]
