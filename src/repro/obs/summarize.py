"""Aggregate a recorded trace into a per-span-kind summary table.

``repro trace summarize out.jsonl`` renders, for every span kind, the
span count, total and mean duration, and nearest-rank p50/p99/max — the
quick answer to "where did this sweep spend its time".  Event spans
(``status == "event"``, e.g. ``warning.jobs_fallback``) are counted
separately since their durations are definitionally zero.
"""

from __future__ import annotations

import math
from pathlib import Path

from repro.obs.trace import Span, load_trace
from repro.util.fmt import format_table

__all__ = [
    "percentile",
    "summarize_spans",
    "render_trace_summary",
    "render_metrics",
]


def percentile(sorted_values: list[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending list (q in [0, 1]).

    The rank is ``ceil(q * n)`` computed on the *exact* quantile, so a
    p99.9 request (``q = 0.999``) selects rank ``ceil(0.999 n)`` rather
    than silently collapsing to p99 the way a truncated integer percent
    would.  ``q = 0`` returns the minimum, ``q = 1`` the maximum.
    """
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q!r}")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def summarize_spans(spans: list[Span]) -> list[dict]:
    """Per-kind aggregates, sorted by total duration (descending) then
    kind — one dict per span kind."""
    by_kind: dict[str, list[Span]] = {}
    for span in spans:
        by_kind.setdefault(span.kind, []).append(span)
    out = []
    for kind, group in by_kind.items():
        durations = sorted(s.duration_s for s in group)
        total = sum(durations)
        out.append({
            "kind": kind,
            "count": len(group),
            "errors": sum(1 for s in group if s.status == "error"),
            "events": sum(1 for s in group if s.status == "event"),
            "total_s": total,
            "mean_s": total / len(group),
            "p50_s": percentile(durations, 0.50),
            "p99_s": percentile(durations, 0.99),
            "max_s": durations[-1],
        })
    out.sort(key=lambda row: (-row["total_s"], row["kind"]))
    return out


def render_trace_summary(source: "str | Path") -> str:
    """Load a JSONL trace and render the summary table."""
    meta, spans = load_trace(source)
    if not spans:
        return f"{source}: empty trace (no spans)"
    rows = [
        [
            r["kind"],
            r["count"],
            r["errors"] or "-",
            f"{r['total_s']:.4f}",
            f"{r['mean_s']:.6f}",
            f"{r['p50_s']:.6f}",
            f"{r['p99_s']:.6f}",
            f"{r['max_s']:.6f}",
        ]
        for r in summarize_spans(spans)
    ]
    version = meta.get("repro_version", "?")
    return format_table(
        ["kind", "count", "errors", "total [s]", "mean [s]", "p50 [s]",
         "p99 [s]", "max [s]"],
        rows,
        title=(
            f"Trace summary: {len(spans)} spans from {source} "
            f"(repro {version})"
        ),
    )


def render_metrics(registry) -> str:
    """Render a session registry's aggregates as one ASCII table.

    Counters print their exact totals; histograms print observation
    count, total and mean; gauges their last value.  Empty registries
    render a one-line notice so ``--metrics`` output is never silent.
    """
    rows = []
    for name in sorted(registry.counters):
        value = registry.counters[name]
        rows.append([name, "counter", f"{value:g}", "-", "-"])
    for name in sorted(registry.gauges):
        rows.append(
            [name, "gauge", f"{registry.gauges[name]:g}", "-", "-"]
        )
    for name in sorted(registry.histograms):
        h = registry.histograms[name]
        mean = h.total / h.count if h.count else 0.0
        rows.append([
            name, "histogram", str(h.count), f"{h.total:.4f}",
            f"{mean:.6f}",
        ])
    if not rows:
        return "metrics: no events recorded"
    return format_table(
        ["metric", "type", "count/value", "total", "mean"], rows,
        title="Session metrics",
    )
