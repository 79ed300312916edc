"""Trace export: Chrome trace-event JSON, collapsed stacks.

Two interchange formats turn span recordings into things existing viewers
open directly:

* **Chrome trace-event JSON** (:func:`to_chrome_trace` /
  :func:`write_chrome_trace`): the ``{"traceEvents": [...]}`` document
  understood by ``ui.perfetto.dev`` and ``chrome://tracing``.  Every
  span becomes one complete (``"ph": "X"``) event; timestamps are
  re-derived from the span *tree* (children laid out inside their
  parent in buffer order), so a trace absorbed from many pool workers —
  whose wall clocks are unrelated — still renders as one strictly
  nested timeline per root.  CLI: ``repro trace export out.jsonl
  --format chrome``.
* **Collapsed stacks** (:func:`to_collapsed_stacks`): the ``a;b;c
  <value>`` lines flamegraph.pl / speedscope / inferno consume, one per
  distinct span-kind path, carrying exact self-time microseconds.  CLI:
  ``repro trace export out.jsonl --format collapsed``.

Exports are derived views: they read a finished recording and never
touch recording itself or any canonical output.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.trace import Span, load_trace
from repro.util.io import atomic_write_text

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "to_collapsed_stacks",
    "export_trace",
]


def _nested_timeline(spans: list[Span]) -> dict[int, float]:
    """Synthetic start times (seconds) laying the span tree out as one
    strictly nested timeline.

    Roots are placed end to end in buffer order; each span's children
    are placed end to end from their parent's start.  Absolute wall
    clocks are discarded on purpose: spans absorbed from pool workers
    carry *their* processes' clocks, which need not nest inside the
    parent's, and trace viewers reject (or silently mis-render)
    non-nested complete events on one track.  Durations are preserved
    exactly; only the placement is synthetic.
    """
    from repro.obs.analyze import span_tree

    _, children = span_tree(spans)
    starts: dict[int, float] = {}

    def place(span: Span, start: float) -> None:
        starts[span.span_id] = start
        cursor = start
        for child in children.get(span.span_id, ()):
            place(child, cursor)
            cursor += child.duration_s

    cursor = 0.0
    for root in children.get(None, ()):
        place(root, cursor)
        cursor += root.duration_s
    return starts


def to_chrome_trace(meta: dict, spans: list[Span]) -> dict:
    """Build the Chrome trace-event document for one recording."""
    starts = _nested_timeline(spans)
    events: list[dict] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "tid": 0,
        "args": {"name": "repro"},
    }]
    for s in spans:
        args = {"span": s.span_id, "parent": s.parent_id, **s.attrs}
        if s.status == "event":
            events.append({
                "name": s.kind,
                "cat": s.kind.split(".", 1)[0],
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "ts": round(starts[s.span_id] * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": args,
            })
            continue
        if s.status == "error":
            args["error"] = True
        events.append({
            "name": s.kind,
            "cat": s.kind.split(".", 1)[0],
            "ph": "X",
            "ts": round(starts[s.span_id] * 1e6, 3),
            "dur": round(s.duration_s * 1e6, 3),
            "pid": 0,
            "tid": 0,
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_schema": meta.get("trace_schema"),
            "repro_version": meta.get("repro_version"),
            "spans": len(spans),
            "note": (
                "timestamps are tree-derived (durations exact, "
                "placement synthetic) so multi-worker traces nest"
            ),
        },
    }


def write_chrome_trace(
    source: "str | Path", target: "str | Path"
) -> Path:
    """Convert a JSONL trace file into a Chrome trace JSON file."""
    meta, spans = load_trace(source)
    doc = to_chrome_trace(meta, spans)
    return atomic_write_text(
        target, json.dumps(doc, sort_keys=True) + "\n"
    )


def to_collapsed_stacks(spans: list[Span]) -> str:
    """Flamegraph text from a span tree: ``root;child;leaf <self_us>``.

    One line per distinct kind-stack with its aggregated self time in
    integer microseconds (zero-duration event spans contribute their
    stack with value 0, which flamegraph tools ignore).  Lines are
    sorted for deterministic output.
    """
    from repro.obs.analyze import self_times, span_tree

    selfs = self_times(spans)
    by_id, _ = span_tree(spans)
    totals: dict[str, float] = {}
    for s in spans:
        frames = [s.kind]
        parent = s.parent_id
        # Walk to the root; dangling parents (truncated traces) just
        # terminate the stack early.
        while parent is not None and parent in by_id:
            node = by_id[parent]
            frames.append(node.kind)
            parent = node.parent_id
        stack = ";".join(reversed(frames))
        totals[stack] = totals.get(stack, 0.0) + selfs[s.span_id]
    lines = [
        f"{stack} {int(round(value * 1e6))}"
        for stack, value in sorted(totals.items())
    ]
    return "\n".join(lines) + "\n" if lines else ""


def export_trace(
    source: "str | Path", fmt: str, target: "str | Path | None" = None
) -> "Path | str":
    """CLI backend for ``repro trace export``: convert ``source`` to
    ``fmt`` (``chrome`` or ``collapsed``), writing to ``target`` when
    given, returning the rendered text otherwise."""
    if fmt == "chrome":
        if target is None:
            meta, spans = load_trace(source)
            return json.dumps(
                to_chrome_trace(meta, spans), sort_keys=True
            ) + "\n"
        return write_chrome_trace(source, target)
    if fmt == "collapsed":
        _meta, spans = load_trace(source)
        text = to_collapsed_stacks(spans)
        if target is None:
            return text
        return atomic_write_text(target, text)
    raise ValueError(f"unknown export format {fmt!r} "
                     f"(expected 'chrome' or 'collapsed')")
