"""Record the reference outputs the benchmark checks against.

Run from the repository root, on a commit whose outputs are known good::

    python3 perfbench/record.py                 # paper scale
    python3 perfbench/record.py --scale tiny    # the self-test's panels

It runs one pass of each workload at the recorded panel seed and writes
``perfbench/reference/<workload>[-tiny].json``.  The paper-scale
Figure-10 panel is not written: it is checked against
``benchmarks/baseline_perf_core.json``, and this script refuses to write
anything if the current outputs differ from it.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import verify  # noqa: E402
import workloads  # noqa: E402
from repro.core.kernels import use_kernel  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=workloads.SCALES,
                        default="paper")
    parser.add_argument("--workload", nargs="*",
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    seed = workloads.PANEL_SEED
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=verify.ROOT) as tmp:
        for name in args.workload:
            wl = workloads.WORKLOADS[name]
            with use_kernel(wl.kernel):
                result = workloads.run_pass(wl, args.scale, seed, 0,
                                            Path(tmp))
            if result.errors or not result.resume_equal:
                print(f"{name}: instances failed: {result.errors}",
                      file=sys.stderr)
                return 1
            if name == "fig10_n50" and args.scale == "paper":
                ref = verify.load_reference(name, args.scale, seed)
                bad = verify.check(result.outputs, ref)
                if bad:
                    print(f"{name}: differs from {ref[2]}: {bad}",
                          file=sys.stderr)
                    return 1
                print(f"{name}: equal to {ref[2]}")
                continue
            path = verify.write_reference(
                name, args.scale, seed, wl.settings(args.scale),
                result.outputs,
            )
            print(f"{name}: {result.instances} instances, digest "
                  f"{verify.digest(result.outputs)} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
