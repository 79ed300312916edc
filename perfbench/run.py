"""The repository's end-to-end benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload fig10_n50 --seed 1 --seconds 10 --trace 0

It runs one workload of ``BENCHMARK.json`` in a child process
(``perfbench/worker.py``), checks every output against the recorded
reference, prints each metric with its unit, and prints as its last line
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, measured
untraced; with ``--trace 1`` they are the per-layer ones from a traced
run of the same passes.  It exits 1 when any output is wrong, and 2
without a result when the checkout has no library to run.

``--scale tiny`` runs a few instances of each workload (the self-test's
size); ``--panel-seed`` runs another panel than the recorded one, for
which only the digest is printed, to compare two commits by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Child processes timed from spawn to "ready"; set_up_s is their median.
SETUP_SAMPLES = 5
RSS_POLL_S = 0.1
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def host() -> str:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} "
            f"numpy={metadata.version('numpy')}")


def _tree_rss_kb(root_pid: int) -> int:
    """Resident memory of ``root_pid`` and all its descendants, in KiB."""
    children: dict[int, list[int]] = {}
    rss: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:  # the process has just exited
            continue
        # Fields after the parenthesised command: state, ppid, ... rss.
        fields = stat.rsplit(")", 1)[1].split()
        children.setdefault(int(fields[1]), []).append(int(entry))
        rss[int(entry)] = int(fields[21]) * PAGE_KB
    total, stack = 0, [root_pid]
    while stack:
        pid = stack.pop()
        total += rss.get(pid, 0)
        stack += children.get(pid, [])
    return total


class RssSampler(threading.Thread):
    """Polls a process tree's summed resident memory until stopped."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(RSS_POLL_S):
            self.peak_kb = max(self.peak_kb, _tree_rss_kb(self.pid))

    def stop(self) -> None:
        self._done.set()
        self.join()


def run_worker(args: list[str], env: dict, sample_rss: bool = False):
    """Run ``worker.py`` to completion.

    Returns ``(report, setup_s, peak_rss_kb)``: the worker's JSON report,
    the time from spawn until it was ready to run an instance, and the
    peak resident memory of its process tree (0 unless sampled).
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True,
    )
    sampler = RssSampler(proc.pid) if sample_rss else None
    if sampler is not None:
        sampler.start()
    try:
        out, _ = proc.communicate()
    finally:
        if sampler is not None:
            sampler.stop()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with code {proc.returncode}: {' '.join(args)}"
        )
    report = json.loads(out.strip().splitlines()[-1])
    peak = 0
    if sampler is not None:
        # The largest reaped descendant, exactly; the sampled tree sum
        # adds pool workers that were alive at the same time.
        peak = max(sampler.peak_kb,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return report, report["ready"] - spawned, peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"),
                        default="paper")
    parser.add_argument("--panel-seed", type=int, default=None)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library to benchmark under {src}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )

    setup = [
        run_worker(["--workload", args.workload, "--setup-only"], env)[1]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    worker_args = [
        "--workload", args.workload, "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale,
    ]
    if args.panel_seed is not None:
        worker_args += ["--panel-seed", str(args.panel_seed)]
    report, ready_s, peak_kb = run_worker(worker_args, env, sample_rss=True)
    setup.append(ready_s)

    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        values = report["per_layer"]
        specs = bench["per_layer"]
    else:
        values = {
            "instances_per_s": report["instances"] / report["seconds"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kb / 1024,
        }
        specs = bench["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in specs
    }

    print(f"perfbench {args.workload} ({args.scale}, seed {args.seed}): "
          f"{host()}")
    print(f"  passes={report['passes']} instances={report['instances']} "
          f"pass_seconds={report['seconds']:.3f} digest={report['digest']} "
          f"reference={report['reference'] or 'none for this panel seed'}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<32} {failed / attempted:.6g} fraction")
    for problem in report["problems"]:
        print(f"  WRONG: {problem}")
    correct = failed == 0 and not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
