"""Canonical, process-stable fingerprints for everything a solver run
depends on.

A result store is only sound if the key under which a result is filed
captures *every* input that influenced it — the SPG instance, the
platform spec, the solver spec with its options, and the seed — and
nothing else.  This module builds those keys:

* every object is first reduced to a **canonical payload**: plain JSON
  types only, ``dict`` keys all strings, tuples flattened to lists,
  numpy scalars unboxed;
* the payload is serialised with :func:`canonical_json` — sorted keys,
  no whitespace, ``repr``-exact floats (CPython's shortest-round-trip
  float formatting, stable across processes and platforms);
* the fingerprint is the sha256 hex digest of that string.

Python's builtin ``hash()`` is **never** used: it is salted per process
(``PYTHONHASHSEED``) and would make keys irreproducible, which is the
exact failure mode a content-addressed store must avoid.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.platform.speeds import PowerModel
from repro.platform.topology import Topology
from repro.spg.graph import SPG

__all__ = [
    "canonical_json",
    "fingerprint",
    "spg_payload",
    "model_payload",
    "platform_payload",
    "solver_payload",
    "cell_fingerprint",
    "request_fingerprint",
]


def _canon(obj):
    """Reduce ``obj`` to plain JSON types (raising on anything exotic)."""
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        obj = obj.item()
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ValueError("non-finite floats cannot be fingerprinted")
        return obj
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(
                    f"fingerprint payload keys must be strings, got {k!r}"
                )
            out[k] = _canon(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    raise TypeError(f"cannot fingerprint object of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    """The canonical serialisation: sorted keys, compact, exact floats."""
    return json.dumps(
        _canon(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def fingerprint(obj) -> str:
    """sha256 hex digest of :func:`canonical_json` of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Component payloads
# ----------------------------------------------------------------------
def spg_payload(spg: SPG) -> dict:
    """The full structural identity of an SPG instance.

    Weights, labels and the edge set (sorted endpoint pairs with their
    communication volumes) determine every evaluation result; derived
    caches are identity-irrelevant and excluded by construction.
    """
    return {
        "weights": list(spg.weights),
        "labels": [[x, y] for x, y in spg.labels],
        "edges": [
            [i, j, d] for (i, j), d in sorted(spg.edges.items())
        ],
    }


def model_payload(model: PowerModel) -> dict:
    """The power/DVFS model constants (``_sorted`` is derived, skipped)."""
    return {
        "speeds": list(model.speeds),
        "dyn_power": list(model.dyn_power),
        "comp_leak": model.comp_leak,
        "comm_leak": model.comm_leak,
        "e_bit": model.e_bit,
        "bandwidth": model.bandwidth,
    }


def platform_payload(topo: Topology) -> dict:
    """The constructor-equivalent identity of a platform instance.

    All registered fabrics are frozen dataclasses; their public fields
    (minus the comparison-excluded ``_cache`` and the ``model``, which
    gets its own payload) are exactly the construction parameters, so two
    topologies compare equal iff their payloads match.  ``type`` guards
    against two fabric classes sharing a registry ``name`` and field
    values (e.g. mesh vs torus of the same size).
    """
    out: dict = {"name": type(topo).name, "type": type(topo).__name__}
    if dataclasses.is_dataclass(topo):
        for f in dataclasses.fields(topo):
            if f.name.startswith("_") or f.name == "model":
                continue
            v = getattr(topo, f.name)
            if f.name == "speed_scales" and v is not None:
                v = sorted([[list(core), factor] for core, factor in v])
            out[f.name] = v
    else:  # non-dataclass third-party topology: best-effort identity
        out.update(
            p=topo.p, q=topo.q,
            speed_scales=(
                None if topo.speed_scales is None
                else sorted(
                    [[list(c), s] for c, s in topo.speed_scales]
                )
            ),
        )
    out["model"] = model_payload(topo.model)
    return out


def solver_payload(spec: str, options: dict | None = None) -> dict:
    """A solver column's identity: its spec string plus run options.

    The spec string is taken verbatim (modulo surrounding whitespace):
    it is both the registry lookup key and the column name results are
    filed under in reports, so ``"Greedy"`` and ``"greedy"`` are
    distinct columns and hash distinctly on purpose.
    """
    return {"spec": str(spec).strip(), "options": options or {}}


# ----------------------------------------------------------------------
# Composite request keys
# ----------------------------------------------------------------------
#: Bumped whenever the *meaning* of a key changes (e.g. a new input starts
#: influencing results); distinct from the payload schema version, which
#: tracks the stored value format.
KEY_SCHEMA_VERSION = 1


def cell_fingerprint(spg: SPG, platform: Topology, solvers, seed: int) -> str:
    """The key of one sweep cell: a full ``choose_period`` panel run.

    ``solvers`` is the ordered tuple of solver columns and ``seed`` the
    pre-drawn heuristic seed — together with the instance and platform
    they determine the cell's :class:`PeriodChoice` bit for bit.  Each
    column's payload carries empty run options: stores written by
    earlier releases keyed every column that way, and they must still
    resume.
    """
    return fingerprint({
        "kind": "sweep-cell",
        "key_schema": KEY_SCHEMA_VERSION,
        "spg": spg_payload(spg),
        "platform": platform_payload(platform),
        "solvers": [solver_payload(s) for s in solvers],
        "seed": int(seed),
    })


def request_fingerprint(
    spg: SPG,
    platform: Topology,
    solver: str,
    options: dict | None,
    seed: int,
    period: float | None,
) -> str:
    """The key of one batch-service request (a single solver run).

    ``period=None`` means "derive the Section-6.1.3 period from the
    seed"; since that derivation is a deterministic function of the other
    key components, ``"auto"`` is a sound stand-in.
    """
    return fingerprint({
        "kind": "solve",
        "key_schema": KEY_SCHEMA_VERSION,
        "spg": spg_payload(spg),
        "platform": platform_payload(platform),
        "solver": solver_payload(solver, options),
        "seed": int(seed),
        "period": "auto" if period is None else float(period),
    })
