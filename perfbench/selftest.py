"""Fast self-test of the benchmark itself (about half a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every workload runs end to end at the tiny scale, untraced and traced,
  and reports exactly the metrics of ``BENCHMARK.json`` with their units;
* verification fails when a reference output or its digest is altered;
* wrapper spans recorded in a ``jobs=2`` pool's workers reach the
  parent's trace, and the serial workloads' layer times never exceed
  their wall-clock.

It exits 0 when all checks pass and 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    expect(proc.returncode == 0,
           f"{workload} trace={trace} exits 0 {proc.stderr[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_end_to_end(bench: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[section]}
        for name in workloads.WORKLOADS:
            result = run_tiny(name, trace)
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"},
                   f"{name} trace={trace} result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{name} trace={trace} outputs correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace} metric names, units")
            if trace and workloads.WORKLOADS[name].jobs == 1:
                gap = result["metrics"]["trace.gap_s"]["value"]
                expect(gap >= 0.0,
                       f"{name} layer self times within wall-clock")


def check_reference_tamper() -> None:
    ref = verify.load_reference("fig10_n50", "tiny", workloads.PANEL_SEED)
    outputs = ref[0]
    expect(verify.check(outputs, ref) == [], "unaltered reference passes")
    bad_digest = (ref[0], "0" * 16, ref[2])
    expect(verify.check(outputs, bad_digest) != [],
           "altered reference digest fails")
    changed = copy.deepcopy(outputs)
    label = sorted(changed["energies"])[0]
    changed["energies"][label]["Greedy"] = "1.0"
    expect(verify.check(changed, ref) == [label],
           "altered output fails on its instance")


def check_pool_spans() -> None:
    from repro.obs.analyze import span_tree
    from repro.obs.session import observability

    layers.install()
    wl = workloads.WORKLOADS["sweep_topo"]
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=ROOT) as tmp:
        with observability(trace=True, metrics=True) as session:
            result = workloads.run_pass(wl, "tiny", workloads.PANEL_SEED,
                                        0, Path(tmp))
    expect(wl.jobs == 2 and not result.errors, "tiny sweep ran at jobs=2")
    spans = session.tracer.spans
    by_id, _children = span_tree(spans)

    def in_cell(span) -> bool:
        while span.parent_id in by_id:
            span = by_id[span.parent_id]
            if span.kind == "sweep.cell":
                return True
        return False

    kinds = {s.kind for s in spans if in_cell(s)}
    for kind in ("period.probe", "heuristic.greedy", "heuristic.dpa2d",
                 "heuristic.dpa1d", "heuristic.dpa2d1d", "heuristic.refine",
                 "dpa1d.solve_uniline", "partition.ideals",
                 "partition.suffix", "evaluate.validate"):
        expect(kind in kinds, f"{kind} spans arrive from pool workers")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_end_to_end(bench)
    check_reference_tamper()
    check_pool_spans()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
