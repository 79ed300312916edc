"""The batch mapping service: answer solver requests through the store.

``repro serve --batch requests.json`` reads a list of mapping requests
(application, platform, solver spec, seed, optional explicit period),
answers every request whose fingerprint is already in the store from the
stored result, fans the misses over the process-parallel experiment
engine, files the fresh results, and emits one deterministic JSON
response document.

Request documents are either a bare JSON list or ``{"requests": [...]}``;
each entry supports::

    {
      "solver":   "dpa2d1d+refine",      # any registry name or spec
      "app":      "FMRadio" | "random-20",
      "topology": "mesh",                # any registered topology
      "size":     "4x4",
      "ccr":      10.0,                  # null = the app's original CCR
      "period":   null,                  # null = Section-6.1.3 procedure
      "seed":     0,
      "options":  {},                    # producer options only
      "deadline_s": null                 # per-request wall-clock budget
    }

``options`` go to the producer (e.g. ``{"trials": 3}`` for ``random``).
Refinement is a stage of the spec, ``"solver": "greedy+refine"``, not an
option.

Responses are order-aligned with requests and identical for any
``jobs`` value; whether an answer came from the store is reported in a
per-response ``cached`` flag and the meta hit/miss counters, never in
the result fields themselves.

The service degrades per request rather than failing the batch: a
request whose worker crashes or blows its ``deadline_s`` (after the
:class:`~repro.resilience.RetryPolicy`'s retries) comes back as an
*error response* — ``ok: false`` with a structured ``error`` field —
while every other request is answered normally; errored requests are
never filed in the store, so a later batch retries them.  The
``deadline_s`` field never enters the request fingerprint: the same
mapping problem is the same cache entry whatever budget it ran under.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.problem import ProblemInstance
from repro.experiments.parallel import run_tasks
from repro.experiments.period import choose_period
from repro.obs.session import inc, trace_span
from repro.resilience import (
    ExecutionStats,
    RetryPolicy,
    TaskFailure,
    resolve_fault_plan,
)
from repro.solvers.base import admits_general, run
from repro.spg.graph import SPG
from repro.spg.random_gen import random_spg
from repro.store.backend import ResultStore, open_store
from repro.store.fingerprint import request_fingerprint
from repro.store.serialize import (
    PAYLOAD_SCHEMA_VERSION,
    result_to_payload,
    solver_result_from_payload,
)
from repro.platform.topology import Topology, get_topology
from repro.util.rng import as_rng
from repro.util.version import repro_version

__all__ = [
    "BatchRequest",
    "load_requests",
    "serve_batch",
    "serve_summary",
]


@dataclass(frozen=True)
class BatchRequest:
    """One mapping request (see the module docstring for the fields)."""

    solver: str = "greedy"
    app: str = "FMRadio"
    topology: str = "mesh"
    size: str = "4x4"
    ccr: float | None = None
    period: float | None = None
    seed: int = 0
    options: dict = field(default_factory=dict)
    deadline_s: float | None = None

    @staticmethod
    def from_payload(payload: dict) -> "BatchRequest":
        known = {
            "solver", "app", "topology", "size", "ccr", "period", "seed",
            "options", "deadline_s",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown request fields: {', '.join(sorted(unknown))}"
            )
        return BatchRequest(**payload)

    def to_payload(self) -> dict:
        return {
            "solver": self.solver,
            "app": self.app,
            "topology": self.topology,
            "size": self.size,
            "ccr": self.ccr,
            "period": self.period,
            "seed": self.seed,
            "options": self.options,
            "deadline_s": self.deadline_s,
        }

    def build_app(self) -> SPG:
        """Synthesise the application (deterministic in the request).

        ``ccr`` passes through untouched — ``None`` means the app's
        natural CCR, exactly as in the sweep's
        :meth:`~repro.experiments.scenarios.ScenarioSpec.build_app`.
        """
        if self.app.startswith("random-"):
            n = int(self.app.split("-", 1)[1])
            return random_spg(n, rng=self.seed, ccr=self.ccr)
        from repro.spg.streamit import streamit_workflow

        which: "int | str" = self.app
        if isinstance(which, str) and which.isdigit():
            which = int(which)
        return streamit_workflow(which, ccr=self.ccr, seed=self.seed)

    def build_platform(self) -> Topology:
        from repro.experiments.scenarios import parse_size

        return get_topology(self.topology, *parse_size(self.size))


def load_requests(source: "str | dict | list") -> list[BatchRequest]:
    """Parse a requests document (a path, or already-loaded JSON)."""
    if isinstance(source, str):
        with open(source) as fh:
            source = json.load(fh)
    if isinstance(source, dict):
        if "requests" not in source:
            raise ValueError(
                'requests document must be a list or {"requests": [...]}'
            )
        source = source["requests"]
    if not isinstance(source, list):
        raise ValueError("requests document must be a list or {requests: []}")
    return [BatchRequest.from_payload(dict(r)) for r in source]


def _solve_task(task):
    """Worker for one cache miss: derive the period if needed, solve."""
    spg, platform, spec, options, period, seed = task
    with trace_span("serve.request", solver=spec):
        if period is None:
            period = choose_period(spg, platform, rng=as_rng(seed)).period
        res = run(
            spec, ProblemInstance(spg, platform, period), rng=as_rng(seed),
            **(options or {}),
        )
        return period, result_to_payload(res)


def serve_batch(
    requests: "list[BatchRequest]",
    store: "ResultStore | str | None" = None,
    jobs: int | None = 1,
    policy: "RetryPolicy | None" = None,
    faults=None,
    stats: "ExecutionStats | None" = None,
    eviction=None,
) -> dict:
    """Answer every request through ``store`` and return the response doc.

    Hits are answered from stored payloads; misses are computed over the
    parallel engine (``jobs`` workers, order-preserving — responses are
    identical for any value) and filed before answering.

    ``policy`` governs crash/hang recovery for the computed misses (CLI
    ``--retries`` / ``--deadline-s``); each request's own ``deadline_s``
    overrides the policy default.  A request that still fails becomes an
    error response (``ok: false`` with ``error: {reason, attempts}``)
    instead of aborting the batch; ``faults`` injects deterministic
    chaos exactly as in the sweep engine.

    ``eviction`` (an :class:`~repro.store.EvictionConfig` or its dict of
    fields) bounds the store with put-path cap enforcement; evicted keys
    read as misses and are recomputed, so response documents stay
    byte-identical to an unbounded service.
    """
    # Close only connections opened here; a live ResultStore passed in
    # stays under the caller's lifecycle.
    plan = resolve_fault_plan(faults)
    own_store = not isinstance(store, ResultStore)
    store = open_store(store, faults=plan)
    if eviction is not None:
        from repro.store.eviction import EvictionConfig

        store.configure_eviction(EvictionConfig.from_spec(eviction))
    try:
        return _serve_batch(store, requests, jobs, policy, plan, stats)
    finally:
        if own_store:
            store.close()


def _serve_batch(store: ResultStore, requests, jobs, policy, plan,
                 stats) -> dict:
    with trace_span("serve.batch", requests=len(requests)):
        return _serve_batch_inner(store, requests, jobs, policy, plan,
                                  stats)


def _serve_batch_inner(store, requests, jobs, policy, plan, stats) -> dict:
    keyed = []
    for req in requests:
        spg = req.build_app()
        platform = req.build_platform()
        key = request_fingerprint(
            spg, platform, req.solver, req.options or None, req.seed,
            req.period,
        )
        keyed.append((req, spg, platform, key))

    payloads: dict[int, dict] = {}
    misses: list[int] = []
    for idx, (req, spg, platform, key) in enumerate(keyed):
        stored = store.get(key)
        if stored is not None:
            payloads[idx] = stored
        else:
            misses.append(idx)
    tasks = [
        (
            keyed[i][1], keyed[i][2], keyed[i][0].solver,
            keyed[i][0].options, keyed[i][0].period, keyed[i][0].seed,
        )
        for i in misses
    ]
    errors: dict[int, TaskFailure] = {}
    outcomes = run_tasks(
        _solve_task, tasks, jobs=jobs, policy=policy,
        failures="record", faults=plan,
        tokens=[keyed[i][0].seed for i in misses],
        deadlines=[keyed[i][0].deadline_s for i in misses],
        stats=stats,
    )
    for idx, outcome in zip(misses, outcomes):
        if isinstance(outcome, TaskFailure):
            # Not filed: the failure is this run's, not the problem's —
            # a later batch (or a longer deadline) retries the request.
            inc("serve.errors")
            errors[idx] = outcome
            continue
        period, result = outcome
        payload = {
            "schema": PAYLOAD_SCHEMA_VERSION,
            "period": period,
            "result": result,
        }
        store.put(keyed[idx][3], payload, kind="solve")
        payloads[idx] = payload

    inc("serve.requests", len(requests))
    inc("serve.hits", len(requests) - len(misses))
    inc("serve.misses", len(misses))
    miss_set = set(misses)
    responses = []
    for idx, (req, spg, platform, key) in enumerate(keyed):
        entry = {
            "index": idx,
            "request": req.to_payload(),
            "key": key,
            "cached": idx not in miss_set,
            "period": None,
            "solver": req.solver,
            "ok": False,
            "failure": None,
            "energy": None,
            "total_energy": None,
            "active_cores": None,
            "error": None,
        }
        if idx in errors:
            tf = errors[idx]
            entry["failure"] = tf.describe()
            entry["error"] = {
                "reason": tf.reason,
                "attempts": tf.attempts,
                "message": tf.message,
            }
            responses.append(entry)
            continue
        payload = payloads[idx]
        res = solver_result_from_payload(payload["result"], spg, platform)
        entry["period"] = payload["period"]
        entry["solver"] = res.solver
        entry["ok"] = res.ok
        entry["failure"] = res.failure
        if res.ok:
            res.mapping.check_structure(not admits_general(req.solver))
            entry["energy"] = {
                "comp_leak": res.energy.comp_leak,
                "comp_dyn": res.energy.comp_dyn,
                "comm_leak": res.energy.comm_leak,
                "comm_dyn": res.energy.comm_dyn,
            }
            entry["total_energy"] = res.energy.total
            entry["active_cores"] = len(res.mapping.active_cores())
        responses.append(entry)
    return {
        "meta": {
            "schema_version": PAYLOAD_SCHEMA_VERSION,
            "repro_version": repro_version(),
            "requests": len(requests),
            "hits": len(requests) - len(misses),
            "misses": len(misses),
            "errors": len(errors),
            "store": store.location,
        },
        "responses": responses,
    }


def serve_summary(report: dict) -> str:
    """A terse per-request summary for the CLI."""
    meta = report["meta"]
    errors = meta.get("errors", 0)
    err_note = f", {errors} errors" if errors else ""
    lines = [
        f"batch service: {meta['requests']} requests, "
        f"{meta['hits']} hits, {meta['misses']} misses{err_note} "
        f"(store: {meta['store']})"
    ]
    for r in report["responses"]:
        req = r["request"]
        what = (
            f"{req['solver']} on {req['app']} / {req['topology']} "
            f"{req['size']}"
        )
        src = "hit " if r["cached"] else "miss"
        if r["ok"]:
            lines.append(
                f"  [{r['index']}] {src} {what}: "
                f"{r['total_energy']:.4f} J/period, "
                f"{r['active_cores']} cores, T={r['period']:g}"
            )
        elif r.get("error"):
            lines.append(
                f"  [{r['index']}] {src} {what}: ERROR "
                f"({r['error']['reason']} after "
                f"{r['error']['attempts']} attempt(s))"
            )
        else:
            lines.append(
                f"  [{r['index']}] {src} {what}: FAILED ({r['failure']})"
            )
    return "\n".join(lines)
