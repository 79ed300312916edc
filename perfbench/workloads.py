"""The benchmark's four workloads and the pass that runs each of them.

A workload is one of the paper's Section-6 panels, or a topology sweep
over the StreamIt suite.  A pass calls the public entry point a user
would: ``run_random_experiment``, ``run_streamit_experiment`` or
``run_scenario_sweep``.  Its inputs are fixed by the *panel seed* (2011,
as in ``benchmarks/bench_perf_core.py``), so every pass is checked
instance by instance against recorded outputs.

The run seed does not change the inputs.  Instance costs are
heavy-tailed (one n=50 graph takes 60x another), so random panels drawn
from different seeds take very different times: the Figure-10 panel
took 16.8 s at panel seed 1 and 28.1 s at 2011 on the same host.  Even
running a fixed panel in another order moves its peak memory by 15%.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.experiments import run_random_experiment, run_streamit_experiment
from repro.experiments.scenarios import run_scenario_sweep
from repro.obs.session import trace_span
from repro.platform.cmp import CMPGrid

PANEL_SEED = 2011
SCALES = ("paper", "tiny")


@dataclass(frozen=True)
class Workload:
    """One workload: what it runs, under which kernel, with how many jobs."""

    name: str
    kind: str  # "random" | "streamit" | "sweep"
    kernel: str | None  # None: the library's default kernel
    jobs: int
    paper: dict  # the panel's settings
    tiny: dict  # a few instances of the same shape, for the self-test

    def settings(self, scale: str) -> dict:
        return self.paper if scale == "paper" else self.tiny


#: The nine Table-1 workflows with at most 62 stages.
SWEEP_APPS = ("1", "2", "4", "6", "7", "8", "9", "10", "12")
SWEEP_SOLVERS = ("Greedy", "DPA2D", "DPA1D", "dpa2d1d+refine")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig10_n50", "random", None, 1,
            paper=dict(n=50, elevations=[1, 2, 4, 8, 12, 16],
                       replicates=3, ccr=10.0),
            tiny=dict(n=20, elevations=[1, 2, 4], replicates=1, ccr=10.0),
        ),
        Workload(
            "fig12_n150", "random", "python", 1,
            paper=dict(n=150, elevations=[2, 8, 16, 24], replicates=2,
                       ccr=10.0),
            tiny=dict(n=70, elevations=[2], replicates=1, ccr=10.0),
        ),
        Workload(
            "streamit_4x4", "streamit", "python", 1,
            paper=dict(workflows=list(range(1, 13)),
                       ccrs=[None, 10.0, 1.0, 0.1]),
            tiny=dict(workflows=[7, 9], ccrs=[None, 1.0]),
        ),
        Workload(
            "sweep_topo", "sweep", None, 2,
            paper=dict(topologies=["mesh", "torus", "ring", "hetmesh"],
                       ccrs=[None, 1.0], apps=list(SWEEP_APPS),
                       solvers=list(SWEEP_SOLVERS)),
            tiny=dict(topologies=["mesh", "ring"], ccrs=[None],
                      apps=["7", "9"], solvers=list(SWEEP_SOLVERS)),
        ),
    )
}


@dataclass
class PassResult:
    """One pass: how many instances it ran, and their canonical outputs.

    ``resume_equal`` is False only when a sweep's resumed report differs
    from its cold one; ``errors`` lists sweep cells that failed.
    """

    instances: int
    outputs: dict
    errors: list
    resume_equal: bool = True


def _panel_outputs(records) -> dict:
    """Periods, ``repr`` energies and the failure row, in the layout of
    ``benchmarks/baseline_perf_core.json["fig10_panel"]``."""
    periods: dict = {}
    energies: dict = {}
    failures: dict = {}
    for rec in records:
        periods[rec.label] = rec.period
        energies[rec.label] = {
            h: repr(r.total_energy) if r.ok else None
            for h, r in rec.results.items()
        }
        for h, r in rec.results.items():
            failures[h] = failures.get(h, 0) + (not r.ok)
    return {"periods": periods, "energies": energies,
            "failures": failures}


def random_pass(cfg: dict, panel_seed: int) -> PassResult:
    exp = run_random_experiment(
        n=cfg["n"], grid=CMPGrid(4, 4), ccr=cfg["ccr"],
        elevations=cfg["elevations"], replicates=cfg["replicates"],
        seed=panel_seed, jobs=1,
    )
    records = [rec for recs in exp.records.values() for rec in recs]
    return PassResult(len(records), _panel_outputs(records), [])


def streamit_pass(cfg: dict, panel_seed: int) -> PassResult:
    exp = run_streamit_experiment(
        CMPGrid(4, 4), ccrs=cfg["ccrs"], workflows=tuple(cfg["workflows"]),
        seed=panel_seed, jobs=1,
    )
    records = list(exp.records.values())
    return PassResult(len(records), _panel_outputs(records), [])


def _canonical_report(report: dict) -> dict:
    """The report without the package version, which is not an output."""
    meta = {k: v for k, v in report["meta"].items() if k != "repro_version"}
    return {"meta": meta, "scenarios": report["scenarios"]}


def sweep_pass(cfg: dict, panel_seed: int, workdir: Path, index: int,
               jobs: int) -> PassResult:
    """A cold sweep into a fresh SQLite store, then a resumed one over it."""
    store = workdir / f"sweep-{index}.sqlite"
    kwargs = dict(
        topologies=cfg["topologies"], sizes=("4x4",), ccrs=cfg["ccrs"],
        apps=cfg["apps"], solvers=cfg["solvers"], seed=panel_seed,
        jobs=jobs, store=str(store),
    )
    cold = run_scenario_sweep(**kwargs)
    with trace_span("bench.resume"):
        resumed = run_scenario_sweep(resume=True, **kwargs)
    for leftover in workdir.glob(f"sweep-{index}.sqlite*"):
        leftover.unlink()
    return PassResult(
        cold["meta"]["processed_instances"],
        _canonical_report(cold),
        [f["label"] for f in cold["meta"]["failures"]],
        resume_equal=(json.dumps(cold, sort_keys=True)
                      == json.dumps(resumed, sort_keys=True)),
    )


def run_pass(workload: Workload, scale: str, panel_seed: int, index: int,
             workdir: Path) -> PassResult:
    """Pass number ``index`` of a run; ``workdir`` holds the sweep's store."""
    cfg = workload.settings(scale)
    if workload.kind == "random":
        return random_pass(cfg, panel_seed)
    if workload.kind == "streamit":
        return streamit_pass(cfg, panel_seed)
    return sweep_pass(cfg, panel_seed, workdir, index, workload.jobs)
