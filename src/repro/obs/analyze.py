"""Trace analytics: self-time attribution, critical path, trace diff.

PR 7's tracer answers "what happened"; this module answers the three
operator questions a 50k-span sweep recording actually poses:

* **Where did the time go?**  :func:`hotspots` attributes every span's
  duration to *self* time (duration minus the time spent inside child
  spans) and aggregates per kind — a span kind whose total is large but
  whose self time is small is just a container, not a cost centre.
* **What was the longest dependency chain?**  :func:`critical_path`
  walks the span tree from the slowest root, descending into the
  slowest child at every level — the chain an optimisation has to
  shorten before wall-clock time can move.
* **What changed between two runs?**  :func:`diff_traces` compares two
  recordings per span kind (count, total, p50, p99, and the new/
  vanished kinds), and :func:`diff_regressions` turns the comparison
  into a machine-checkable gate: kinds whose total grew more than a
  budget fraction.  ``repro trace diff A B --budget-pct 20`` exits 1 on
  violations, 0 otherwise — a trace diffed against itself always
  reports zero deltas.

Everything here is pure post-processing over :func:`~repro.obs.trace.
load_trace` output; nothing feeds back into recording or any canonical
result path.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.summarize import percentile, summarize_spans
from repro.obs.trace import Span, load_trace
from repro.util.fmt import format_table

__all__ = [
    "span_tree",
    "self_times",
    "hotspots",
    "critical_path",
    "diff_traces",
    "diff_regressions",
    "render_hotspots",
    "render_critical_path",
    "render_diff",
]


def span_tree(
    spans: list[Span],
) -> tuple[dict[int, Span], dict[int | None, list[Span]]]:
    """Index a flat span list into ``(by_id, children)``.

    ``children[None]`` holds the roots.  Children keep buffer order
    (close order), which is deterministic for deterministic control
    flow; a dangling ``parent_id`` (a truncated trace) is treated as a
    root rather than an error.
    """
    by_id = {s.span_id: s for s in spans}
    children: dict[int | None, list[Span]] = {}
    for s in spans:
        parent = s.parent_id if s.parent_id in by_id else None
        children.setdefault(parent, []).append(s)
    return by_id, children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per-span self time: duration minus the sum of direct children's
    durations, clamped at zero (clock noise can make children sum past
    their parent)."""
    _, children = span_tree(spans)
    out: dict[int, float] = {}
    for s in spans:
        child_total = sum(
            c.duration_s for c in children.get(s.span_id, ())
        )
        out[s.span_id] = max(0.0, s.duration_s - child_total)
    return out


def hotspots(spans: list[Span]) -> list[dict]:
    """Per-kind cost attribution, sorted by total *self* time.

    One dict per kind: span count, total duration, self total (the
    actual cost centre signal), child total, self share of the whole
    trace, p50/p99 of per-span self times.
    """
    selfs = self_times(spans)
    by_kind: dict[str, list[Span]] = {}
    for s in spans:
        by_kind.setdefault(s.kind, []).append(s)
    grand_self = sum(selfs.values()) or 1.0
    out = []
    for kind, group in by_kind.items():
        self_vals = sorted(selfs[s.span_id] for s in group)
        self_total = sum(self_vals)
        total = sum(s.duration_s for s in group)
        out.append({
            "kind": kind,
            "count": len(group),
            "total_s": total,
            "self_s": self_total,
            "child_s": max(0.0, total - self_total),
            "self_share": self_total / grand_self,
            "self_p50_s": percentile(self_vals, 0.50),
            "self_p99_s": percentile(self_vals, 0.99),
        })
    out.sort(key=lambda row: (-row["self_s"], row["kind"]))
    return out


def critical_path(spans: list[Span]) -> list[dict]:
    """The slowest root-to-leaf chain through the span tree.

    At every level the walk descends into the child with the largest
    duration (ties broken by buffer order).  Each step reports the
    span's kind, duration, self time, and its share of the chain root's
    duration — the classic critical-path view of where an end-to-end
    latency is actually pinned.
    """
    if not spans:
        return []
    selfs = self_times(spans)
    _, children = span_tree(spans)
    roots = children.get(None, [])
    if not roots:  # pragma: no cover - span_tree always roots something
        return []
    node = max(roots, key=lambda s: s.duration_s)
    root_duration = node.duration_s or 1.0
    path = []
    depth = 0
    while node is not None:
        path.append({
            "depth": depth,
            "kind": node.kind,
            "span": node.span_id,
            "duration_s": node.duration_s,
            "self_s": selfs[node.span_id],
            "share_of_root": node.duration_s / root_duration,
            "attrs": dict(node.attrs),
        })
        kids = children.get(node.span_id, [])
        node = max(kids, key=lambda s: s.duration_s) if kids else None
        depth += 1
    return path


# ----------------------------------------------------------------------
# Trace diff
# ----------------------------------------------------------------------
def diff_traces(
    a: "str | Path | list[Span]", b: "str | Path | list[Span]"
) -> dict:
    """Compare two recordings per span kind: ``b`` relative to ``a``.

    Accepts trace paths or already-loaded span lists.  The result holds
    one row per kind present in either trace (count/total/p50/p99 for
    both sides plus absolute and fractional total deltas) and the
    ``new`` / ``vanished`` kind lists.  Identical traces produce all-zero
    deltas.
    """
    spans_a = a if isinstance(a, list) else load_trace(a)[1]
    spans_b = b if isinstance(b, list) else load_trace(b)[1]
    stats_a = {r["kind"]: r for r in summarize_spans(spans_a)}
    stats_b = {r["kind"]: r for r in summarize_spans(spans_b)}
    kinds = sorted(set(stats_a) | set(stats_b))
    rows = []
    for kind in kinds:
        sa = stats_a.get(kind)
        sb = stats_b.get(kind)
        total_a = sa["total_s"] if sa else 0.0
        total_b = sb["total_s"] if sb else 0.0
        delta = total_b - total_a
        rows.append({
            "kind": kind,
            "count_a": sa["count"] if sa else 0,
            "count_b": sb["count"] if sb else 0,
            "count_delta": (sb["count"] if sb else 0)
            - (sa["count"] if sa else 0),
            "total_a_s": total_a,
            "total_b_s": total_b,
            "total_delta_s": delta,
            # A kind absent from A has no baseline to grow from; its
            # fractional delta is +inf unless B is also zero.
            "total_delta_frac": (
                0.0 if delta == 0.0
                else delta / total_a if total_a > 0.0
                else float("inf")
            ),
            "p50_a_s": sa["p50_s"] if sa else 0.0,
            "p50_b_s": sb["p50_s"] if sb else 0.0,
            "p99_a_s": sa["p99_s"] if sa else 0.0,
            "p99_b_s": sb["p99_s"] if sb else 0.0,
        })
    return {
        "kinds": rows,
        "new": sorted(set(stats_b) - set(stats_a)),
        "vanished": sorted(set(stats_a) - set(stats_b)),
        "total_a_s": sum(r["total_a_s"] for r in rows),
        "total_b_s": sum(r["total_b_s"] for r in rows),
    }


def diff_regressions(diff: dict, budget_pct: float) -> list[dict]:
    """The rows of a :func:`diff_traces` result that blow the budget.

    A kind regresses when its total duration grew by more than
    ``budget_pct`` percent over side A (new kinds count as infinite
    growth).  Timing jitter on tiny kinds is ignored below an absolute
    1 ms floor so the gate measures regressions, not clock noise.
    """
    if budget_pct < 0:
        raise ValueError("budget_pct must be >= 0")
    out = []
    for row in diff["kinds"]:
        if row["total_delta_s"] <= 0.001:
            continue
        if row["total_delta_frac"] * 100.0 > budget_pct:
            out.append(row)
    return out


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_hotspots(source: "str | Path", top: int = 15) -> str:
    """Load a trace and render the hotspot table plus critical path."""
    meta, spans = load_trace(source)
    if not spans:
        return f"{source}: empty trace (no spans)"
    rows = [
        [
            r["kind"],
            r["count"],
            f"{r['self_s']:.4f}",
            f"{100.0 * r['self_share']:.1f}%",
            f"{r['total_s']:.4f}",
            f"{r['self_p50_s']:.6f}",
            f"{r['self_p99_s']:.6f}",
        ]
        for r in hotspots(spans)[:top]
    ]
    table = format_table(
        ["kind", "count", "self [s]", "self %", "total [s]",
         "self p50 [s]", "self p99 [s]"],
        rows,
        title=(
            f"Hotspots: {len(spans)} spans from {source} "
            f"(self time = duration minus child spans)"
        ),
    )
    return table + "\n\n" + render_critical_path(spans)


def render_critical_path(spans: list[Span]) -> str:
    path = critical_path(spans)
    if not path:
        return "critical path: (no spans)"
    lines = ["Critical path (slowest child at every level):"]
    for step in path:
        indent = "  " * step["depth"]
        lines.append(
            f"{indent}{step['kind']}  "
            f"{step['duration_s']:.4f}s total, "
            f"{step['self_s']:.4f}s self "
            f"({100.0 * step['share_of_root']:.1f}% of root)"
        )
    return "\n".join(lines)


def render_diff(diff: dict, regressions: list[dict] | None = None) -> str:
    """One table for a :func:`diff_traces` result."""

    def frac(row):
        f = row["total_delta_frac"]
        if f == float("inf"):
            return "new"
        return f"{100.0 * f:+.1f}%"

    rows = [
        [
            r["kind"],
            f"{r['count_a']} -> {r['count_b']}",
            f"{r['total_a_s']:.4f}",
            f"{r['total_b_s']:.4f}",
            f"{r['total_delta_s']:+.4f}",
            frac(r),
            f"{r['p50_b_s'] - r['p50_a_s']:+.6f}",
            f"{r['p99_b_s'] - r['p99_a_s']:+.6f}",
        ]
        for r in diff["kinds"]
    ]
    table = format_table(
        ["kind", "count", "A total [s]", "B total [s]", "delta [s]",
         "delta %", "p50 delta", "p99 delta"],
        rows,
        title=(
            f"Trace diff (B vs A): "
            f"{diff['total_a_s']:.4f}s -> {diff['total_b_s']:.4f}s"
        ),
    )
    notes = []
    if diff["new"]:
        notes.append(f"new kinds in B: {', '.join(diff['new'])}")
    if diff["vanished"]:
        notes.append(f"vanished from B: {', '.join(diff['vanished'])}")
    if regressions is not None:
        if regressions:
            notes.append(
                f"REGRESSION: {len(regressions)} kind(s) over budget: "
                + ", ".join(r["kind"] for r in regressions)
            )
        else:
            notes.append("within budget: no kind regressed")
    return table + ("\n" + "\n".join(notes) if notes else "")
