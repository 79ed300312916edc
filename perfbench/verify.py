"""Reference outputs: where they live, how a pass is compared with them.

The Figure-10 panel is checked against the seed implementation's
recorded outputs in ``benchmarks/baseline_perf_core.json``.  The other
workloads, and the self-test's tiny panels, are checked against files in
``perfbench/reference/`` written by ``perfbench/record.py``.  Each such
file carries the digest of its outputs, so a hand-edited reference (or
digest) is caught as well as a changed program.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
BASELINE = ROOT / "benchmarks" / "baseline_perf_core.json"


def digest(outputs: dict) -> str:
    """A short fingerprint of a pass's outputs (dict order ignored)."""
    text = json.dumps(outputs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reference_path(workload: str, scale: str) -> Path:
    suffix = "" if scale == "paper" else f"-{scale}"
    return REFERENCE_DIR / f"{workload}{suffix}.json"


def load_reference(workload: str, scale: str, panel_seed: int):
    """``(outputs, digest, source)`` for this panel, or None when no
    outputs were recorded for this panel seed."""
    if workload == "fig10_n50" and scale == "paper":
        base = json.loads(BASELINE.read_text())["fig10_panel"]
        if base["settings"]["seed"] != panel_seed:
            return None
        outputs = {k: base[k] for k in ("periods", "energies", "failures")}
        return outputs, digest(outputs), "benchmarks/baseline_perf_core.json"
    path = reference_path(workload, scale)
    if not path.exists():
        return None
    ref = json.loads(path.read_text())
    if ref["panel_seed"] != panel_seed:
        return None
    return ref["outputs"], ref["digest"], str(path.relative_to(ROOT))


def write_reference(workload: str, scale: str, panel_seed: int,
                    settings: dict, outputs: dict) -> Path:
    path = reference_path(workload, scale)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload,
        "scale": scale,
        "panel_seed": panel_seed,
        "settings": settings,
        "digest": digest(outputs),
        "outputs": outputs,
    }, indent=1, sort_keys=True) + "\n")
    return path


def _cells(outputs: dict) -> dict:
    """Per-instance outputs keyed by label, for either layout."""
    if "scenarios" in outputs:
        return {
            rec["label"]: rec
            for sc in outputs["scenarios"] for rec in sc["records"]
        }
    return {
        label: (outputs["periods"][label], outputs["energies"][label])
        for label in outputs["periods"]
    }


def check(outputs: dict, ref) -> list[str]:
    """Everything wrong with one pass's outputs against ``ref`` (the
    result of :func:`load_reference`); an empty list means correct.

    That is the labels of instances that differ or are missing on
    either side; ``"summary"`` when only something outside the
    instances differs (the failure row, a sweep's metadata or
    per-scenario counts); and a note when the reference no longer
    matches its own recorded digest.
    """
    ref_outputs, ref_digest, source = ref
    got, want = _cells(outputs), _cells(ref_outputs)
    bad = sorted(
        label for label in got.keys() | want.keys()
        if got.get(label) != want.get(label)
    )
    if not bad and digest(outputs) != digest(ref_outputs):
        bad.append("summary")
    if digest(ref_outputs) != ref_digest:
        bad.append(f"reference digest mismatch in {source}")
    return bad
