"""One benchmark process: set up, run passes, verify, report as JSON.

``perfbench/run.py`` starts this script and reads the JSON object it
prints last.  With ``--setup-only`` it stops once the library is
imported and its registries are built, which is how ``run.py`` samples
set-up time.  Otherwise it runs whole passes of the workload until
``--seconds`` of pass time have accumulated and checks every pass
against the reference outputs.  With ``--trace 1`` it then installs the
layer wrappers and runs the same number of passes again, traced, for
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import time
from pathlib import Path

import layers
import verify
import workloads
from repro.core.kernels import kernel_names, use_kernel
from repro.obs.session import observability, trace_span
from repro.platform.topology import get_topology
from repro.solvers import solver_names


def run_passes(workload, scale, panel_seed, workdir, seconds=None,
               passes=None):
    """Whole passes until ``seconds`` of pass time (or ``passes`` passes).

    Returns ``(walls, results)``.  Collection runs between passes, so no
    pass pays for its predecessor's garbage.
    """
    walls, results = [], []
    with use_kernel(workload.kernel):
        while (len(walls) < passes if passes is not None
               else not walls or sum(walls) < seconds):
            gc.collect()
            t0 = time.perf_counter()
            with trace_span("bench.pass"):
                result = workloads.run_pass(
                    workload, scale, panel_seed, len(walls), workdir
                )
            walls.append(time.perf_counter() - t0)
            results.append(result)
    return walls, results


def check_pass(result, ref) -> list[str]:
    """Labels of the instances this pass got wrong."""
    bad = list(result.errors)
    if not result.resume_equal:
        bad.append("resumed report differs from the cold report")
    if ref is not None:
        bad += verify.check(result.outputs, ref)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="paper")
    parser.add_argument("--panel-seed", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    kernel_names()
    solver_names()
    get_topology("mesh", 4, 4)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    workload = workloads.WORKLOADS[args.workload]
    panel_seed = (workloads.PANEL_SEED if args.panel_seed is None
                  else args.panel_seed)
    ref = verify.load_reference(workload.name, args.scale, panel_seed)
    with tempfile.TemporaryDirectory(
        prefix=".perfbench-", dir=verify.ROOT
    ) as tmp:
        workdir = Path(tmp)
        walls, results = run_passes(workload, args.scale, panel_seed,
                                    workdir, seconds=args.seconds)
        per_layer = None
        if args.trace:
            layers.install()
            with observability(trace=True, metrics=True) as session:
                traced_walls, traced = run_passes(
                    workload, args.scale, panel_seed, workdir,
                    passes=len(walls),
                )
            per_layer = layers.layer_metrics(
                session.tracer.spans, session.metrics.counters,
                len(traced), sum(traced_walls), sum(walls), workload.jobs,
            )
            results += traced

    bad = [check_pass(r, ref) for r in results]
    print(json.dumps({
        "ready": ready,
        "passes": len(walls),
        "instances": sum(r.instances for r in results[:len(walls)]),
        "seconds": sum(walls),
        "attempted": sum(r.instances for r in results),
        "failed": sum(min(len(b), r.instances)
                      for b, r in zip(bad, results)),
        "problems": sorted({p for b in bad for p in b})[:20],
        "digest": verify.digest(results[0].outputs),
        "reference": None if ref is None else ref[2],
        "per_layer": per_layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
