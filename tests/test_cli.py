"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestWorkflows:
    def test_lists_all_twelve(self):
        code, text = run_cli("workflows")
        assert code == 0
        for name in ("Beamformer", "Serpent", "TDE"):
            assert name in text

    def test_table1_numbers_present(self):
        _code, text = run_cli("workflows")
        assert "57" in text   # Beamformer n
        assert "111" in text  # Serpent xmax


class TestMap:
    """Mapping one application with ``repro solve``."""

    def test_map_chain_workflow(self):
        code, text = run_cli(
            "solve", "-w", "DCT", "--solver", "dpa1d", "--seed", "1"
        )
        assert code == 0
        assert "solver dpa1d: energy" in text and "(comp " in text
        assert "latency" in text
        assert "stages per core" in text

    def test_link_utilisation_table(self):
        code, text = run_cli("solve", "-w", "DCT", "--seed", "0")
        assert code == 0
        assert "Link utilisation" in text
        assert "bytes/period" in text and "->" in text

    def test_explicit_period(self):
        code, text = run_cli(
            "solve", "-w", "DCT", "--solver", "greedy", "-T", "1.0"
        )
        assert code == 0
        assert "period (Section 6.1.3)" not in text

    def test_failure_exit_code(self):
        # A hopeless period: every stage needs more than T at top speed,
        # so the producer fails and the refine stage never runs.
        code, text = run_cli(
            "solve", "-w", "DCT", "--solver", "greedy+refine", "-T", "1e-6"
        )
        assert code == 1
        assert "FAILED" in text

    def test_random_instance(self):
        code, text = run_cli(
            "solve", "--random", "12", "--solver", "greedy", "--seed", "3"
        )
        assert code == 0
        assert "solver greedy: energy" in text

    def test_refine_spec(self):
        code, text = run_cli(
            "solve", "-w", "DCT", "--solver", "random+refine-best",
            "--seed", "0",
        )
        assert code == 0
        assert "stage refine-best: ok" in text

    def test_bad_grid_spec(self):
        with pytest.raises(SystemExit):
            run_cli("solve", "--grid", "4by4")

    def test_map_command_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("map", "-w", "DCT")
        assert exc.value.code == 2


class TestCompare:
    """``repro solve`` with several specs prints their comparison."""

    FIVE = ("Random", "Greedy", "DPA2D", "DPA1D", "DPA2D1D")

    def test_compare_runs_all(self):
        code, text = run_cli("solve", "-w", "DCT", "--seed", "0",
                             "--solver", *self.FIVE)
        assert code == 0
        for h in self.FIVE:
            assert h in text

    def test_normalised_column(self):
        # The five paper heuristics on DCT at seed 0, as a pinned table.
        _code, text = run_cli("solve", "-w", "DCT", "--seed", "0",
                              "-s", *self.FIVE)
        assert text == (
            "DCT on 4x4, T = 1 s\n"
            "heuristic  energy [J]  normalised  cores\n"
            "---------  ----------  ----------  -----\n"
            "Random     0.5706      1.030       3\n"
            "Greedy     0.5540      1.000       3\n"
            "DPA2D      0.5540      1.000       3\n"
            "DPA1D      0.5540      1.000       3\n"
            "DPA2D1D    0.5540      1.000       3\n"
        )

    def test_explicit_period(self):
        code, text = run_cli(
            "solve", "-w", "FFT", "-T", "10.0", "--seed", "0",
            "--solver", *self.FIVE,
        )
        assert code == 0
        assert "T = 10" in text

    def test_specs_in_given_order(self):
        code, text = run_cli("solve", "-w", "DCT", "-T", "1.0",
                             "-s", "dpa1d", "greedy+refine")
        assert code == 0
        rows = [ln.split()[0] for ln in text.splitlines()[3:]]
        assert rows == ["dpa1d", "greedy+refine"]

    def test_bad_or_duplicate_spec_exits_2(self):
        code, text = run_cli("solve", "-w", "DCT", "-s", "greedy", "nope")
        assert code == 2 and "nope" in text
        code, text = run_cli("solve", "-w", "DCT", "-s", "greedy", "greedy")
        assert code == 2 and "duplicate" in text

    def test_compare_command_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "-w", "DCT")
        assert exc.value.code == 2


class TestExperiment:
    def test_fig8_subset(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        code, text = run_cli(
            "experiment", "fig8", "--workflows", "7", "--ccr", "1.0",
            "--csv", str(csv_path),
        )
        assert code == 0
        assert "DCT" in text
        assert csv_path.exists()
        assert "workflow,ccr" in csv_path.read_text()

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestSolvers:
    def test_list_shows_registry(self):
        code, text = run_cli("solvers", "list")
        assert code == 0
        for name in ("greedy", "dpa2d1d", "bruteforce", "ilp", "refine",
                     "portfolio"):
            assert name in text

    def test_describe_named_solver(self):
        code, text = run_cli("solvers", "describe", "portfolio")
        assert code == 0
        assert "portfolio" in text

    def test_describe_pipeline_spec(self):
        code, text = run_cli("solvers", "describe", "dpa2d1d+refine")
        assert code == 0
        assert "pipeline" in text and "refine" in text

    def test_describe_transform_stage(self):
        """Registered transforms are describable even though they cannot
        start a composite spec."""
        for name in ("refine", "refine-best", "refine-anneal",
                     "refine-general"):
            code, text = run_cli("solvers", "describe", name)
            assert code == 0, name
            assert "transform" in text

    def test_describe_without_name(self):
        code, _text = run_cli("solvers", "describe")
        assert code == 2

    def test_describe_unknown(self):
        code, text = run_cli("solvers", "describe", "frobnicate")
        assert code == 2
        assert "unknown solver" in text


class TestSolve:
    def test_pipeline_spec(self):
        code, text = run_cli(
            "solve", "-w", "DCT", "--solver", "dpa2d1d+refine", "--seed", "0"
        )
        assert code == 0
        assert "stage dpa2d1d" in text and "stage refine" in text
        assert "solver dpa2d1d+refine" in text

    def test_portfolio_prints_member_table(self):
        code, text = run_cli(
            "solve", "-w", "DCT", "--solver", "portfolio", "--seed", "0"
        )
        assert code == 0
        assert "winner" in text
        for member in ("random", "greedy", "dpa2d", "dpa1d", "dpa2d1d"):
            assert member in text

    def test_failure_exit_code(self):
        code, text = run_cli(
            "solve", "-w", "DCT", "--solver", "greedy", "-T", "1e-6"
        )
        assert code == 1
        assert "FAILED" in text

    def test_unknown_spec_exit_code(self):
        code, text = run_cli("solve", "-w", "DCT", "--solver", "nope+refine")
        assert code == 2
        assert "unknown solver" in text

    def test_transform_only_spec_rejected(self):
        code, text = run_cli("solve", "-w", "DCT", "--solver", "refine")
        assert code == 2
        assert "transform" in text


class TestSweepSolvers:
    def test_solvers_axis(self, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, text = run_cli(
            "sweep", "--topologies", "mesh", "--sizes", "2x2",
            "--ccr", "1.0", "--apps", "random-12", "--replicates", "1",
            "--solvers", "Greedy", "dpa2d1d+refine",
            "--out", str(out_path),
        )
        assert code == 0
        assert "dpa2d1d+refine" in text
        assert out_path.exists()

    def test_invalid_spec_exits_cleanly(self):
        code, text = run_cli(
            "sweep", "--topologies", "mesh", "--sizes", "2x2",
            "--ccr", "1.0", "--apps", "random-8", "--replicates", "1",
            "--solvers", "Gredy",
        )
        assert code == 2
        assert "unknown solver" in text


class TestVersion:
    def test_version_flag(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        from repro.util.version import repro_version

        assert f"repro {repro_version()}" in capsys.readouterr().out


def sweep_args(*extra):
    return (
        "sweep", "--topologies", "mesh", "--sizes", "2x2",
        "--ccr", "1.0", "--apps", "random-8", "--replicates", "2",
        "--seed", "3", *extra,
    )


class TestSweepStore:
    def test_interrupt_resume_merge_matches_cold(self, tmp_path):
        db = str(tmp_path / "cells.sqlite")
        cold_path = tmp_path / "cold.json"
        part_path = tmp_path / "part.json"
        full_path = tmp_path / "full.json"
        code, _ = run_cli(*sweep_args("--out", str(cold_path)))
        assert code == 0
        code, _ = run_cli(*sweep_args(
            "--store", db, "--limit", "1", "--checkpoint", "1",
            "--out", str(part_path),
        ))
        assert code == 0
        code, _ = run_cli(*sweep_args(
            "--store", db, "--resume", "--out", str(full_path),
        ))
        assert code == 0
        assert full_path.read_bytes() == cold_path.read_bytes()
        assert part_path.read_bytes() != cold_path.read_bytes()

    def test_shard_flag_in_summary(self, tmp_path):
        db = str(tmp_path / "cells.sqlite")
        code, text = run_cli(*sweep_args("--store", db, "--shard", "0/2"))
        assert code == 0
        assert "[shard 0/2]" in text
        assert "1/2 instances" in text

    def test_resume_without_store_rejected(self):
        code, text = run_cli(*sweep_args("--resume"))
        assert code == 2
        assert "--store" in text

    def test_bad_shard_spec_rejected(self, tmp_path):
        db = str(tmp_path / "cells.sqlite")
        code, text = run_cli(*sweep_args("--store", db, "--shard", "5/2"))
        assert code == 2
        assert "shard" in text


class TestStoreCommand:
    def fill(self, tmp_path) -> str:
        db = str(tmp_path / "store.sqlite")
        code, _ = run_cli(*sweep_args("--store", db))
        assert code == 0
        return db

    def test_stats(self, tmp_path):
        import json as json_mod

        db = self.fill(tmp_path)
        code, text = run_cli("store", "stats", "--store", db)
        assert code == 0
        stats = json_mod.loads(text)
        assert stats["entries"] == 2
        assert stats["by_kind"] == {"sweep-cell": 2}
        assert stats["stale"] == 0

    def test_gc_noop_when_fresh(self, tmp_path):
        db = self.fill(tmp_path)
        code, text = run_cli("store", "gc", "--store", db)
        assert code == 0
        assert "removed 0" in text

    def test_gc_kind_and_all(self, tmp_path):
        db = self.fill(tmp_path)
        code, text = run_cli("store", "gc", "--store", db,
                             "--kind", "sweep-cell")
        assert code == 0
        assert "removed 2" in text
        second = tmp_path / "second"
        second.mkdir()
        db2 = self.fill(second)
        code, text = run_cli("store", "gc", "--store", db2, "--all")
        assert code == 0
        assert "removed 2" in text

    def test_export(self, tmp_path):
        import json as json_mod

        db = self.fill(tmp_path)
        out_path = tmp_path / "snap.json"
        code, text = run_cli("store", "export", "--store", db,
                             "--out", str(out_path))
        assert code == 0
        snap = json_mod.loads(out_path.read_text())
        assert snap["meta"]["entries"] == 2
        assert len(snap["entries"]) == 2
        code, text = run_cli("store", "export", "--store", db)
        assert code == 0
        assert json_mod.loads(text)["meta"]["entries"] == 2


class TestEvictCommand:
    def fill(self, tmp_path) -> str:
        db = str(tmp_path / "store.sqlite")
        code, _ = run_cli(*sweep_args("--store", db))
        assert code == 0
        return db

    def test_evict_to_row_cap(self, tmp_path):
        import json as json_mod

        db = self.fill(tmp_path)
        code, text = run_cli("store", "evict", "--store", db,
                             "--policy", "lru", "--max-rows", "1")
        assert code == 0
        result = json_mod.loads(text)
        assert result["policy"] == "lru"
        assert result["evicted"] == 1
        assert result["rows"] == 1
        code, text = run_cli("store", "stats", "--store", db)
        stats = json_mod.loads(text)
        assert stats["entries"] == 1
        assert stats["eviction"] == {"evicted": {"lru": 1}, "total": 1}

    def test_evict_requires_a_cap(self, tmp_path):
        db = self.fill(tmp_path)
        code, text = run_cli("store", "evict", "--store", db)
        assert code == 2
        assert "--max-rows" in text

    def test_evict_unknown_policy_rejected(self, tmp_path):
        db = self.fill(tmp_path)
        code, text = run_cli("store", "evict", "--store", db,
                             "--policy", "oracle", "--max-rows", "1")
        assert code == 2
        assert "unknown eviction policy" in text

    def test_bounded_sweep_evict_resume_matches_cold(self, tmp_path):
        db = str(tmp_path / "bounded.sqlite")
        cold_path = tmp_path / "cold.json"
        warm_path = tmp_path / "warm.json"
        code, _ = run_cli(*sweep_args("--out", str(cold_path)))
        assert code == 0
        code, _ = run_cli(*sweep_args(
            "--store", db, "--store-policy", "rrip",
            "--store-max-rows", "1",
        ))
        assert code == 0
        code, _ = run_cli("store", "evict", "--store", db,
                          "--max-rows", "0")
        assert code == 0
        code, _ = run_cli(*sweep_args(
            "--store", db, "--resume", "--out", str(warm_path),
        ))
        assert code == 0
        assert warm_path.read_bytes() == cold_path.read_bytes()

    def test_bad_store_policy_flag_rejected(self, tmp_path):
        db = str(tmp_path / "bounded.sqlite")
        code, text = run_cli(*sweep_args(
            "--store", db, "--store-policy", "oracle",
            "--store-max-rows", "1",
        ))
        assert code == 2

    def test_dropped_store_policy_lists_the_three(self, tmp_path):
        db = str(tmp_path / "bounded.sqlite")
        code, text = run_cli(*sweep_args(
            "--store", db, "--store-policy", "drrip",
            "--store-max-rows", "2",
        ))
        assert code == 2
        assert (
            "unknown eviction policy 'drrip'; registered: fifo, lru, rrip"
            in text
        )


class TestServeCommand:
    def write_requests(self, tmp_path):
        import json as json_mod

        path = tmp_path / "requests.json"
        path.write_text(json_mod.dumps({"requests": [
            {"solver": "greedy", "app": "random-10", "size": "2x2",
             "seed": 0},
            {"solver": "dpa2d1d+refine", "app": "random-10",
             "size": "2x2", "seed": 1},
        ]}))
        return str(path)

    def test_cold_then_warm(self, tmp_path):
        import json as json_mod

        reqs = self.write_requests(tmp_path)
        db = str(tmp_path / "serve.sqlite")
        out_path = tmp_path / "responses.json"
        code, text = run_cli("serve", "--batch", reqs, "--store", db,
                             "--out", str(out_path))
        assert code == 0
        assert "2 misses" in text
        cold = json_mod.loads(out_path.read_text())
        code, text = run_cli("serve", "--batch", reqs, "--store", db)
        assert code == 0
        assert "2 hits" in text
        assert cold["meta"]["misses"] == 2

    def test_bad_requests_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, text = run_cli("serve", "--batch", str(bad))
        assert code == 2
        assert "bad requests file" in text

    def test_missing_requests_file(self, tmp_path):
        code, text = run_cli("serve", "--batch", str(tmp_path / "nope.json"))
        assert code == 2

    def test_serve_without_store_is_all_misses(self, tmp_path):
        reqs = self.write_requests(tmp_path)
        code, text = run_cli("serve", "--batch", reqs)
        assert code == 0
        assert "2 misses" in text
        code, text = run_cli("serve", "--batch", reqs)
        assert "2 misses" in text  # in-memory store: nothing persists


class TestObservability:
    SWEEP = (
        "sweep", "--topologies", "mesh", "--sizes", "3x3", "--ccr", "10",
        "--apps", "random-8", "--replicates", "1", "--seed", "1",
    )

    def test_traced_sweep_report_is_byte_identical(self, tmp_path):
        plain = tmp_path / "plain.json"
        traced = tmp_path / "traced.json"
        trace = tmp_path / "t.jsonl"
        code, _ = run_cli(*self.SWEEP, "--out", str(plain))
        assert code == 0
        code, text = run_cli(
            *self.SWEEP, "--out", str(traced), "--trace", str(trace),
            "--metrics",
        )
        assert code == 0
        assert plain.read_bytes() == traced.read_bytes()
        assert "Session metrics" in text
        assert f"trace written to {trace}" in text

    def test_trace_summarize(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, _ = run_cli(*self.SWEEP, "--trace", str(trace))
        assert code == 0
        code, text = run_cli("trace", "summarize", str(trace))
        assert code == 0
        assert "sweep.cell" in text
        assert "solver.run" in text

    def test_trace_summarize_bad_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("definitely not json\n")
        code, text = run_cli("trace", "summarize", str(bad))
        assert code == 2
        assert "bad trace file" in text

    def test_trace_summarize_missing_file(self, tmp_path):
        code, text = run_cli(
            "trace", "summarize", str(tmp_path / "nope.jsonl")
        )
        assert code == 2

    def test_stats_json(self, tmp_path):
        import json as json_mod

        stats = tmp_path / "stats.json"
        code, text = run_cli(*self.SWEEP, "--stats-json", str(stats))
        assert code == 0
        assert f"execution stats written to {stats}" in text
        doc = json_mod.loads(stats.read_text())
        assert doc["execution"] == {
            "retries": 0, "crashes": 0, "timeouts": 0, "respawns": 0,
            "permanent_failures": 0,
        }
        counters = doc["metrics"]["counters"]
        assert counters["sweep.cells_computed"] == 1
        assert counters["solver.runs"] > 0

    def test_env_var_arms_tracing(self, tmp_path, monkeypatch):
        trace = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        code, text = run_cli(*self.SWEEP)
        assert code == 0
        assert trace.exists()
        assert f"trace written to {trace}" in text

    def test_store_stats_reports_access(self, tmp_path):
        import json as json_mod

        db = str(tmp_path / "cells.sqlite")
        code, _ = run_cli(*self.SWEEP, "--store", db)
        assert code == 0
        code, _ = run_cli(*self.SWEEP, "--store", db, "--resume")
        assert code == 0
        code, text = run_cli("store", "stats", "--store", db)
        assert code == 0
        stats = json_mod.loads(text)
        assert stats["access"]["hits"] == 1
        assert stats["access"]["rows_never_hit"] == 0

    def test_profile_flag_is_gone(self, tmp_path):
        prof = tmp_path / "prof"
        with pytest.raises(SystemExit) as exc:
            run_cli(*self.SWEEP, "--profile", str(prof))
        assert exc.value.code == 2
        assert not prof.exists()
