"""Content-addressed result store, resumable sweeps and batch service.

The experimental campaign is a huge cross-product of {application,
platform, CCR, solver spec} cells; this package makes it *incremental*:

* :mod:`repro.store.fingerprint` — canonical, process-stable sha256
  fingerprints for SPG instances, platform specs, solver specs with
  options, and seeds (sorted-key JSON, never Python ``hash()``);
* :mod:`repro.store.serialize` — lossless JSON payload round-trips for
  solver results and whole sweep cells;
* :mod:`repro.store.backend` — :class:`ResultStore`, one SQLite
  database on disk or in memory (``repro store stats/gc/export``),
  sha256 payload checksums verified on every read, and quarantine for
  corrupt rows (``repro store verify [--quarantine]``; quarantined
  keys read as misses, so resumed sweeps recompute them);
* :mod:`repro.store.eviction` — three cache-replacement policies
  (``lru``/``fifo``/``rrip``) behind row-count/payload-byte caps:
  ``repro store evict`` and put-path enforcement via
  :meth:`ResultStore.configure_eviction`; evicted keys read as misses,
  so bounded sweeps/services stay byte-identical to unbounded runs;
* :mod:`repro.store.service` — the batch mapping service behind
  ``repro serve --batch`` (hit -> stored result, miss ->
  compute-through-the-parallel-engine-and-store).

The scenario sweep engine plugs in through
``run_scenario_sweep(store=..., resume=True, shard="i/N")``: completed
cells are skipped, independent invocations deterministically partition
the cell grid into one shared store, and a final resumed run emits a
consolidated report bit-identical to a cold single-process sweep.
"""

from repro.store.backend import (
    LogicalClock,
    ResultStore,
    open_store,
    payload_checksum,
)
from repro.store.eviction import (
    EVICTION_POLICIES,
    EvictionConfig,
    eviction_policy,
    eviction_policy_names,
)
from repro.store.fingerprint import (
    canonical_json,
    cell_fingerprint,
    fingerprint,
    platform_payload,
    request_fingerprint,
    solver_payload,
    spg_payload,
)
from repro.store.serialize import (
    PAYLOAD_SCHEMA_VERSION,
    choice_from_payload,
    choice_to_payload,
    heuristic_result_from_payload,
    mapping_from_payload,
    mapping_to_payload,
    result_to_payload,
    solver_result_from_payload,
)
from repro.store.service import (
    BatchRequest,
    load_requests,
    serve_batch,
    serve_summary,
)

__all__ = [
    "ResultStore",
    "open_store",
    "payload_checksum",
    "LogicalClock",
    "EvictionConfig",
    "EVICTION_POLICIES",
    "eviction_policy",
    "eviction_policy_names",
    "fingerprint",
    "canonical_json",
    "spg_payload",
    "platform_payload",
    "solver_payload",
    "cell_fingerprint",
    "request_fingerprint",
    "PAYLOAD_SCHEMA_VERSION",
    "mapping_to_payload",
    "mapping_from_payload",
    "result_to_payload",
    "solver_result_from_payload",
    "heuristic_result_from_payload",
    "choice_to_payload",
    "choice_from_payload",
    "BatchRequest",
    "load_requests",
    "serve_batch",
    "serve_summary",
]
