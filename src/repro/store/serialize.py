"""Lossless payload round-trips for solver results.

The store persists results as plain-JSON payloads, so everything a
result carries must survive ``object -> payload -> JSON text -> payload
-> object`` bit for bit.  That holds because

* finite floats round-trip exactly through Python's JSON encoder
  (shortest-repr formatting, exact parsing), and
* a :class:`~repro.core.mapping.Mapping` is fully determined by its
  allocation, speeds and paths once the SPG and platform are known —
  and the store key already pins those (see
  :mod:`repro.store.fingerprint`), so payloads do not repeat them and
  deserialisation takes the live ``spg``/``grid`` objects as context.

``stats`` dicts (wall-clock timings, portfolio member tables) are
stored verbatim: they round-trip losslessly, but two *computes* of the
same cell legitimately differ there, so the cache-correctness contract
(tests/test_store_roundtrip.py) covers mapping, energy and failure —
everything that feeds reports — and never timings.
"""

from __future__ import annotations

from repro.core.evaluate import EnergyBreakdown
from repro.core.mapping import Mapping
from repro.experiments.period import PeriodChoice
from repro.platform.topology import Topology
from repro.solvers.base import SolverResult
from repro.spg.graph import SPG

__all__ = [
    "PAYLOAD_SCHEMA_VERSION",
    "energy_to_payload",
    "energy_from_payload",
    "mapping_to_payload",
    "mapping_from_payload",
    "result_to_payload",
    "solver_result_from_payload",
    "choice_to_payload",
    "choice_from_payload",
]

#: Version of the stored-value format; bumped on any payload layout
#: change so ``repro store gc`` can purge stale entries.
PAYLOAD_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Energy
# ----------------------------------------------------------------------
def energy_to_payload(b: EnergyBreakdown) -> dict:
    return {
        "comp_leak": b.comp_leak,
        "comp_dyn": b.comp_dyn,
        "comm_leak": b.comm_leak,
        "comm_dyn": b.comm_dyn,
    }


def energy_from_payload(payload: dict) -> EnergyBreakdown:
    return EnergyBreakdown(
        comp_leak=payload["comp_leak"],
        comp_dyn=payload["comp_dyn"],
        comm_leak=payload["comm_leak"],
        comm_dyn=payload["comm_dyn"],
    )


# ----------------------------------------------------------------------
# Mapping
# ----------------------------------------------------------------------
def mapping_to_payload(m: Mapping) -> dict:
    """Allocation, speeds and every routed path, in sorted order."""
    return {
        "alloc": [
            [i, list(m.alloc[i])] for i in sorted(m.alloc)
        ],
        "speeds": [
            [list(c), s] for c, s in sorted(m.speeds.items())
        ],
        "paths": [
            [list(e), [list(c) for c in path]]
            for e, path in sorted(m.paths.items())
        ],
    }


def mapping_from_payload(payload: dict, spg: SPG, grid: Topology) -> Mapping:
    """Rebuild a mapping against the live ``spg``/``grid`` context.

    Paths are stored exhaustively, so ``Mapping.__post_init__`` has
    nothing to re-route and the rebuilt object carries exactly the
    routes the original solver chose (which matters for 1D heuristics
    whose line paths differ from the topology's default routing).
    """
    return Mapping(
        spg,
        grid,
        alloc={int(i): (int(u), int(v)) for i, (u, v) in payload["alloc"]},
        speeds={
            (int(u), int(v)): float(s) for (u, v), s in payload["speeds"]
        },
        paths={
            (int(i), int(j)): [(int(u), int(v)) for u, v in path]
            for (i, j), path in payload["paths"]
        },
    )


# ----------------------------------------------------------------------
# Solver results
# ----------------------------------------------------------------------
def result_to_payload(res: SolverResult) -> dict:
    """A plain-JSON payload that round-trips ``res`` losslessly."""
    out: dict = {
        "schema": PAYLOAD_SCHEMA_VERSION,
        "solver": res.solver,
        "ok": res.ok,
        "failure": res.failure,
        "stats": res.stats,
    }
    if res.ok:
        out["mapping"] = mapping_to_payload(res.mapping)
        out["energy"] = energy_to_payload(res.energy)
    else:
        out["mapping"] = None
        out["energy"] = None
    return out


def solver_result_from_payload(
    payload: dict, spg: SPG, grid: Topology
) -> SolverResult:
    """Rebuild a result from :func:`result_to_payload` output."""
    mapping = energy = None
    if payload["mapping"] is not None:
        mapping = mapping_from_payload(payload["mapping"], spg, grid)
        energy = energy_from_payload(payload["energy"])
    return SolverResult(
        solver=payload["solver"],
        mapping=mapping,
        energy=energy,
        failure=payload["failure"],
        stats=payload["stats"],
    )


# ----------------------------------------------------------------------
# Sweep cells (full choose_period panels)
# ----------------------------------------------------------------------
def choice_to_payload(choice: PeriodChoice) -> dict:
    """One sweep cell: the chosen period plus every column's result."""
    return {
        "schema": PAYLOAD_SCHEMA_VERSION,
        "period": choice.period,
        "results": {
            name: result_to_payload(res)
            for name, res in choice.results.items()
        },
    }


def choice_from_payload(
    payload: dict, spg: SPG, grid: Topology, order
) -> PeriodChoice:
    """Rebuild a :class:`PeriodChoice` with its columns in ``order``
    (required: payloads are stored with sorted keys, so only the caller
    knows the solver-column order of a fresh compute)."""
    results = payload["results"]
    return PeriodChoice(
        period=payload["period"],
        results={
            name: solver_result_from_payload(results[name], spg, grid)
            for name in order
        },
    )
