"""Golden-equivalence guard for the fast evaluation core and the refiner.

``tests/data/golden_seed_outputs.json`` records periods, per-heuristic
energies (as ``repr`` strings, i.e. byte-exact doubles) and failure
patterns produced by the *seed* implementation on fixed seeds, captured
before the array-backed caches, the prefix-sum DP rewrites and the
parallel experiment engine landed.  These tests re-run the same sweeps and
require bit-identical outputs, serially and through the process pool.

``tests/data/golden_refine_outputs.json`` pins the refinement engine the
same way on fixed scenarios: periods, base/refined energies, final
allocations and the accepted-move sequences.  Besides mesh starts from
Random and Greedy, the scenarios cover DPA2D1D starts (few accepted
moves, as in a topology sweep) on the per-core-model ``hetmesh``, the
``torus``, the ``ring`` and the ``uniring``, a ``uniline`` whose
candidates often route an edge against its one-way links (an invalid
route), and the ``best`` and ``anneal`` schedules.  Future PRs touching the
delta layer or the refiner cannot silently drift refinement results.
Regenerate deliberately with::

    PYTHONPATH=src:. python tests/test_golden_equivalence.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import run_random_experiment, run_streamit_experiment
from repro.platform.cmp import CMPGrid

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_seed_outputs.json"
REFINE_GOLDEN_PATH = (
    Path(__file__).parent / "data" / "golden_refine_outputs.json"
)


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _snap_records(records) -> dict:
    out = {}
    for rec in records:
        out[rec.label] = {
            "period": rec.period,
            "energies": {
                name: (repr(r.total_energy) if r.ok else None)
                for name, r in rec.results.items()
            },
        }
    return out


def _run_random(jobs: int):
    exp = run_random_experiment(
        n=30, grid=CMPGrid(3, 3), ccr=1.0,
        elevations=(2, 4), replicates=2, seed=7, jobs=jobs,
    )
    return _snap_records(r for recs in exp.records.values() for r in recs)


def _run_streamit(jobs: int):
    exp = run_streamit_experiment(
        CMPGrid(4, 4), ccrs=(None, 1.0), workflows=(1, 5), seed=3, jobs=jobs,
    )
    return _snap_records(exp.records.values())


class TestRandomPanelGolden:
    def test_serial_matches_seed_bit_for_bit(self, golden):
        want = golden["random_n30_3x3_ccr1_seed7"]
        got = _run_random(jobs=1)
        assert got == want

    def test_parallel_matches_seed_bit_for_bit(self, golden):
        want = golden["random_n30_3x3_ccr1_seed7"]
        got = _run_random(jobs=2)
        assert got == want


class TestStreamItGolden:
    def test_serial_matches_seed_bit_for_bit(self, golden):
        want = golden["streamit_w1_w5_4x4_seed3"]
        got = _run_streamit(jobs=1)
        assert got == want


def _run_random_wide(jobs: int):
    exp = run_random_experiment(
        n=70, grid=CMPGrid(4, 4), ccr=1.0,
        elevations=(2, 4, 8), replicates=2, seed=7, jobs=jobs,
    )
    return _snap_records(r for recs in exp.records.values() for r in recs)


def _run_streamit_wide(jobs: int):
    exp = run_streamit_experiment(
        CMPGrid(4, 4), ccrs=(None, 1.0), workflows=(11,), seed=3, jobs=jobs,
    )
    return _snap_records(exp.records.values())


class TestWideGraphGolden:
    """Graphs past one machine word (n > 62): DPA1D's wide transition
    source (random n=70 at elevations 2 and 4, Serpent at n=120) and
    DPA2D on a high-elevation random graph."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_random_n70_matches_recorded(self, golden, jobs):
        assert _run_random_wide(jobs) == golden["random_n70_4x4_ccr1_seed7"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_serpent_matches_recorded(self, golden, jobs):
        assert _run_streamit_wide(jobs) == golden["streamit_w11_4x4_seed3"]


class TestSuccessCounts:
    def test_failure_pattern_matches_seed(self, golden):
        """Success/failure per heuristic is part of the golden contract."""
        want = golden["random_n30_3x3_ccr1_seed7"]
        got = _run_random(jobs=1)
        for label, rec in want.items():
            for name, energy_repr in rec["energies"].items():
                assert (got[label]["energies"][name] is None) == (
                    energy_repr is None
                )


# ----------------------------------------------------------------------
# Refinement-engine golden fixtures
# ----------------------------------------------------------------------
def _refine_snapshots() -> dict:
    """Refiner outputs on fixed scenarios, JSON-serialisable."""
    from tests.helpers import loose_period

    from repro.core.evaluate import energy
    from repro.core.problem import ProblemInstance
    from repro.heuristics.base import run as run_heuristic
    from repro.heuristics.refine import refine_mapping
    from repro.platform.topology import get_topology
    from repro.spg.random_gen import random_spg
    from repro.spg.streamit import streamit_workflow

    scenarios = {
        # label: (SPG, topology, grid size, base heuristic, seed,
        #         schedule, general)
        "random18_3x3_greedy_first": (
            random_spg(18, rng=3, ccr=5.0), "mesh", (3, 3), "Greedy", 0,
            "first", False,
        ),
        "random24_4x4_random_first": (
            random_spg(24, rng=8, ccr=10.0), "mesh", (4, 4), "Random", 1,
            "first", False,
        ),
        "random18_3x3_greedy_general": (
            random_spg(18, rng=3, ccr=5.0), "mesh", (3, 3), "Greedy", 0,
            "first", True,
        ),
        "dct_4x4_greedy_best": (
            streamit_workflow("DCT", ccr=1.0, seed=0), "mesh", (4, 4),
            "Greedy", 0, "best", False,
        ),
        "dct_4x4_hetmesh_dpa2d1d_first": (
            streamit_workflow("DCT", ccr=1.0, seed=0), "hetmesh", (4, 4),
            "DPA2D1D", 0, "first", False,
        ),
        "random30_4x4_torus_dpa2d1d_first": (
            random_spg(30, rng=0, ccr=10.0), "torus", (4, 4), "DPA2D1D", 0,
            "first", False,
        ),
        "random30_4x4_ring_dpa2d1d_first": (
            random_spg(30, rng=0, ccr=10.0), "ring", (4, 4), "DPA2D1D", 0,
            "first", False,
        ),
        "random30_4x4_uniring_dpa2d1d_first": (
            random_spg(30, rng=1, ccr=10.0), "uniring", (4, 4), "DPA2D1D",
            1, "first", False,
        ),
        "random30_4x4_uniline_dpa2d1d_first": (
            random_spg(30, rng=1, ccr=10.0), "uniline", (4, 4), "DPA2D1D",
            1, "first", False,
        ),
        "random30_4x4_dpa2d1d_best": (
            random_spg(30, rng=0, ccr=10.0), "mesh", (4, 4), "DPA2D1D", 0,
            "best", False,
        ),
        "random30_4x4_torus_greedy_anneal": (
            random_spg(30, rng=0, ccr=10.0), "torus", (4, 4), "Greedy", 0,
            "anneal", False,
        ),
    }
    out: dict = {}
    for label, (spg, topo, (p, q), heur, seed, schedule, general) in (
        scenarios.items()
    ):
        problem = ProblemInstance(
            spg, get_topology(topo, p, q), loose_period(spg, parallelism=4.0)
        )
        res = run_heuristic(heur, problem, rng=seed)
        assert res.ok, f"{heur} must succeed on {label}"
        log: list = []
        refined = refine_mapping(
            problem, res.mapping, rng=seed, sweeps=4, schedule=schedule,
            allow_general=general, log=log,
        )
        out[label] = {
            "period": repr(problem.period),
            "base_energy": repr(res.energy.total),
            "refined_energy": repr(energy(refined, problem.period).total),
            "alloc": {str(i): list(refined.alloc[i]) for i in range(spg.n)},
            "accepted_moves": [str(m) for m in log],
        }
    return out


@pytest.fixture(scope="module")
def refine_golden() -> dict:
    with open(REFINE_GOLDEN_PATH) as fh:
        return json.load(fh)


class TestRefineGolden:
    def test_refiner_outputs_match_recorded(self, refine_golden):
        """Energies, allocations and accepted-move sequences must all be
        byte-identical to the recorded fixtures."""
        got = _refine_snapshots()
        assert set(got) == set(refine_golden)
        for label, want in refine_golden.items():
            assert got[label] == want, f"refinement drifted on {label}"

    def test_refinement_actually_improves(self, refine_golden):
        """The pinned scenarios all contain real improvements (guards the
        fixtures themselves against accidental no-op regeneration)."""
        for label, rec in refine_golden.items():
            assert float(rec["refined_energy"]) < float(rec["base_energy"])
            assert len(rec["accepted_moves"]) > 0


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    with open(REFINE_GOLDEN_PATH, "w") as fh:
        json.dump(_refine_snapshots(), fh, indent=1, sort_keys=True)
    print(f"refinement fixtures written to {REFINE_GOLDEN_PATH}")
