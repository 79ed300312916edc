"""Zero-dependency observability: span tracing and metrics.

The ROADMAP's service and store-eviction work both need measurement —
where a sweep spends its time, which pipeline stage dominates, whether
the store is actually hitting.  This package provides it in two
strictly **out-of-band** layers (canonical reports, fingerprints and
golden fixtures are byte-identical whether observability is on or off,
for any ``jobs``/shard/resume combination — CI ``cmp``-enforces it):

* **Span tracing** (:mod:`repro.obs.trace`): hierarchical
  ``trace_span("sweep.cell", **attrs)`` context managers with
  monotonic-clock durations, parent/child ids and a JSONL sink,
  instrumented through solver runs, pipeline/portfolio stages,
  refinement, sweep cells, store ``get``/``put`` and service requests.
  ``repro trace summarize out.jsonl`` aggregates a recording into a
  per-kind count/total/p50/p99 table.
* **Metrics** (:mod:`repro.obs.metrics`): counters, gauges and
  fixed-bucket histograms (``store.hits``, ``solver.duration_s``,
  ``sweep.cells_failed``, ...) that aggregate deterministically and
  jobs-invariantly — pool workers buffer events locally and the parent
  merges them in task-index order.

On top of the recorders sit pure post-processing layers: **analytics**
(:mod:`repro.obs.analyze` — self-time hotspots, critical path, trace
diff with a budget gate), **export** (:mod:`repro.obs.export` — Chrome
trace-event JSON and collapsed flamegraph stacks), the **bench
sentinel** (:mod:`repro.obs.history` — schema-versioned
``BENCH_history.jsonl`` log and the ``repro bench check`` regression
gate), and **live progress** (:mod:`repro.obs.progress` — the
``repro sweep --progress`` stderr heartbeat with stall detection).

Everything is a no-op (one attribute check) until a session is
installed — via :func:`observability`, the CLI's ``--trace``/
``--metrics`` flags, or the ``REPRO_TRACE`` environment variable.
"""

from repro.obs.analyze import (
    critical_path,
    diff_regressions,
    diff_traces,
    hotspots,
    self_times,
    span_tree,
)
from repro.obs.export import (
    export_trace,
    to_chrome_trace,
    to_collapsed_stacks,
    write_chrome_trace,
)
from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    BenchMetric,
    METRICS,
    append_history,
    check_bench,
    load_history,
)
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.progress import SweepProgress, as_progress
from repro.obs.session import (
    ObsSession,
    absorb,
    active,
    active_metrics,
    active_tracer,
    capture,
    capture_config,
    event,
    inc,
    observe,
    observability,
    set_gauge,
    trace_span,
)
from repro.obs.summarize import (
    percentile,
    render_metrics,
    render_trace_summary,
    summarize_spans,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    Span,
    Tracer,
    load_trace,
    span_from_payload,
    span_to_payload,
)

__all__ = [
    # trace
    "TRACE_SCHEMA_VERSION",
    "Span",
    "Tracer",
    "load_trace",
    "span_to_payload",
    "span_from_payload",
    # metrics
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    # session
    "ObsSession",
    "observability",
    "active",
    "active_metrics",
    "active_tracer",
    "trace_span",
    "event",
    "inc",
    "observe",
    "set_gauge",
    "capture_config",
    "capture",
    "absorb",
    # summaries
    "percentile",
    "summarize_spans",
    "render_trace_summary",
    "render_metrics",
    # analytics
    "span_tree",
    "self_times",
    "hotspots",
    "critical_path",
    "diff_traces",
    "diff_regressions",
    # export
    "to_chrome_trace",
    "write_chrome_trace",
    "to_collapsed_stacks",
    "export_trace",
    # bench history / sentinel
    "HISTORY_SCHEMA_VERSION",
    "BenchMetric",
    "METRICS",
    "append_history",
    "load_history",
    "check_bench",
    # live progress
    "SweepProgress",
    "as_progress",
]
