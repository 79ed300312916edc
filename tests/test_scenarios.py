"""Tests for the scenario sweep engine and its CLI surface."""

import json

from repro.experiments import (
    ScenarioSpec,
    build_scenarios,
    run_scenario_sweep,
    sweep_summary,
)
from repro.experiments.scenarios import parse_size


class TestSpecs:
    def test_parse_size(self):
        assert parse_size("4x4") == (4, 4)
        assert parse_size((2, 3)) == (2, 3)

    def test_parse_size_rejects_garbage(self):
        import pytest

        with pytest.raises(ValueError):
            parse_size("4by4")

    def test_cross_product_order(self):
        specs = build_scenarios(
            topologies=("mesh", "torus"), sizes=("2x2",), ccrs=(1.0,),
            apps=("random-8", "random-10"),
        )
        assert len(specs) == 4
        assert specs[0] == ScenarioSpec("mesh", 2, 2, 1.0, "random-8")
        assert specs[-1] == ScenarioSpec("torus", 2, 2, 1.0, "random-10")

    def test_label(self):
        spec = ScenarioSpec("benes", 2, 2, None, "FMRadio")
        assert spec.label() == "benes/2x2/ccr=orig/FMRadio"


class TestSweep:
    def test_small_sweep_report(self):
        report = run_scenario_sweep(
            topologies=("mesh", "torus", "hetmesh"),
            sizes=("2x2",),
            ccrs=(1.0,),
            apps=("random-10",),
            replicates=2,
            seed=3,
        )
        meta = report["meta"]
        assert meta["scenario_count"] == 3
        assert meta["instance_count"] == 6
        assert len(report["scenarios"]) == 3
        for sc in report["scenarios"]:
            assert sc["instances"] == 2
            assert len(sc["records"]) == 2
            for rec in sc["records"]:
                assert rec["period"] > 0
                # At least one heuristic succeeded at the chosen period.
                assert any(r["ok"] for r in rec["results"].values())
        het = [s for s in report["scenarios"] if s["heterogeneous"]]
        assert [s["topology"] for s in het] == ["hetmesh"]

    def test_report_is_json_serialisable(self):
        report = run_scenario_sweep(
            topologies=("ring",), sizes=("1x4",), ccrs=(1.0,),
            apps=("random-8",), replicates=1, seed=0,
        )
        text = json.dumps(report)
        assert json.loads(text) == report

    def test_summary_renders(self):
        report = run_scenario_sweep(
            topologies=("mesh",), sizes=("2x2",), ccrs=(1.0,),
            apps=("random-8",), replicates=1, seed=0,
        )
        text = sweep_summary(report)
        assert "mesh" in text
        assert "Random" in text

    def test_streamit_app_class(self):
        report = run_scenario_sweep(
            topologies=("mesh",), sizes=("4x4",), ccrs=(1.0,),
            apps=("DCT",), replicates=1, seed=0,
        )
        sc = report["scenarios"][0]
        assert sc["app"] == "DCT"
        assert sc["instances"] == 1

    def test_general_mapping_column(self):
        """A ``+refine-general`` column whose refined quotient has a
        cycle is reported, computed and resumed, instead of failing the
        report path's structural re-check."""
        from repro.core.partition import is_acyclic_quotient
        from repro.platform.topology import get_topology
        from repro.spg.random_gen import random_spg
        from repro.store import ResultStore
        from repro.store.serialize import choice_from_payload
        from repro.util.rng import as_rng

        cols = ("greedy", "greedy+refine-general")
        kw = dict(
            topologies=("mesh",), sizes=("4x4",), ccrs=(5.0,),
            apps=("random-12",), replicates=1, seed=0, solvers=cols,
        )
        store = ResultStore()
        cold = run_scenario_sweep(store=store, **kw)
        warm = run_scenario_sweep(store=store, resume=True, **kw)
        assert json.dumps(cold, sort_keys=True) == \
            json.dumps(warm, sort_keys=True)
        (rec,) = cold["scenarios"][0]["records"]
        assert all(rec["results"][c]["ok"] for c in cols)
        # The sweep's one graph is the first draw of its seeded stream.
        spg = random_spg(12, rng=as_rng(0), ccr=5.0)
        (row,) = store.rows()
        choice = choice_from_payload(
            row["payload"], spg, get_topology("mesh", 4, 4), cols
        )
        general = choice.results["greedy+refine-general"].mapping
        assert not is_acyclic_quotient(spg, general.alloc)

    def test_seed_determinism(self):
        kw = dict(
            topologies=("torus",), sizes=("2x2",), ccrs=(10.0,),
            apps=("random-10",), replicates=2, seed=11,
        )
        a = run_scenario_sweep(**kw)
        b = run_scenario_sweep(**kw)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestSweepCli:
    def run_cli(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_sweep_command(self, tmp_path):
        out_path = tmp_path / "report.json"
        code, text = self.run_cli(
            "sweep", "--topologies", "mesh", "ring", "--sizes", "2x2",
            "--ccr", "1.0", "--apps", "random-8", "--out", str(out_path),
        )
        assert code == 0
        assert "Scenario sweep" in text
        report = json.loads(out_path.read_text())
        assert report["meta"]["scenario_count"] == 2

    def test_platform_list(self):
        code, text = self.run_cli("platform", "list")
        assert code == 0
        for name in ("mesh", "torus", "ring", "benes", "hetmesh"):
            assert name in text

    def test_platform_describe(self):
        code, text = self.run_cli("platform", "describe", "torus")
        assert code == 0
        assert "torus" in text and "sample route" in text

    def test_platform_describe_unknown(self):
        code, text = self.run_cli("platform", "describe", "hypercube")
        assert code == 2
        assert "unknown topology" in text

    def test_map_with_topology(self):
        code, text = self.run_cli(
            "solve", "-w", "DCT", "--solver", "dpa1d", "--topology",
            "torus", "--seed", "1",
        )
        assert code == 0
        assert "solver dpa1d: energy" in text

    def test_compare_on_benes(self):
        code, text = self.run_cli(
            "solve", "--random", "10", "--topology", "benes",
            "--grid", "2x2", "--seed", "2",
            "-s", "Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D",
        )
        assert code == 0
        assert "Greedy" in text
