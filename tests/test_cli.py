"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_gen_defaults(self):
        args = build_parser().parse_args(["gen", "ab-ak-kb"])
        assert args.arch == "V100"
        assert args.emit == "cuda"

    @pytest.mark.parametrize("argv", [
        ["gen", "ab-ak-kb", "--engine", "object"],
        ["network", "ab,bc->ac", "--path-engine", "object"],
    ])
    def test_engine_flags_removed(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_batch_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "ttm_mode1"])
        assert "batch" not in build_parser().format_help()


class TestSuiteCommand:
    def test_lists_48(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 48

    def test_group_filter(self, capsys):
        assert main(["suite", "--group", "mo"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3


class TestGenCommand:
    def test_gen_expression(self, capsys):
        assert main(["gen", "ab-ak-kb", "--sizes", "64"]) == 0
        out = capsys.readouterr().out
        assert "__global__" in out

    def test_gen_benchmark_name(self, capsys):
        assert main(["gen", "ccsd_eq1"]) == 0
        assert "__global__" in capsys.readouterr().out

    def test_gen_cemu(self, capsys):
        assert main(["gen", "ab-ak-kb", "--sizes", "64",
                     "--emit", "cemu"]) == 0
        assert "int main(" in capsys.readouterr().out

    def test_gen_driver(self, capsys):
        assert main(["gen", "ab-ak-kb", "--sizes", "64",
                     "--emit", "driver"]) == 0
        assert "cudaMalloc" in capsys.readouterr().out

    def test_gen_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "kernel.cu"
        assert main(["gen", "ab-ak-kb", "--sizes", "64",
                     "-o", str(out_file)]) == 0
        assert "__global__" in out_file.read_text()

    def test_gen_float(self, capsys):
        assert main(["gen", "ab-ak-kb", "--sizes", "64",
                     "--dtype", "float"]) == 0
        assert "float" in capsys.readouterr().out


class TestRankCommand:
    def test_rank(self, capsys):
        assert main(["rank", "ab-ak-kb", "--sizes", "128",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "configurations after pruning" in out
        assert "GFLOPS" in out

    def test_rank_json_rule_pruning(self, tmp_path, capsys):
        import json

        from repro.core.constraints import HARDWARE_RULES, PERFORMANCE_RULES

        out_file = tmp_path / "rank.json"
        assert main(["rank", "ab-ak-kb", "--sizes", "64", "--top", "2",
                     "--json", str(out_file)]) == 0
        pruning = json.loads(out_file.read_text())["rule_pruning"]
        assert tuple(pruning) == HARDWARE_RULES + PERFORMANCE_RULES
        # The first rule sees every configuration of the one search.
        assert pruning[HARDWARE_RULES[0]]["checks"] > 0
        assert "per-rule pruned counts" in capsys.readouterr().out


class TestBenchCommand:
    def test_bench_limited(self, capsys):
        assert main(["bench", "--group", "mo", "--limit", "1",
                     "--frameworks", "cogent,talsh"]) == 0
        out = capsys.readouterr().out
        assert "mo_stage1" in out
        assert "geomean" in out

    def test_bench_csv(self, capsys):
        assert main(["bench", "--group", "mo", "--limit", "1",
                     "--frameworks", "cogent,talsh", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("id,name,expr,cogent,talsh")

    def test_bench_prints_pipeline_stats(self, capsys):
        assert main(["bench", "--group", "mo", "--limit", "1",
                     "--frameworks", "cogent,talsh"]) == 0
        out = capsys.readouterr().out
        assert "pipeline:" in out
        assert "cells" in out

    def test_bench_workers_cache_and_json(self, tmp_path, capsys):
        import json

        json_path = tmp_path / "bench.json"
        argv = ["bench", "--group", "mo", "--limit", "2",
                "--frameworks", "cogent,talsh", "--workers", "2",
                "--store-dir", str(tmp_path / "store"),
                "--json", str(json_path)]
        assert main(argv) == 0
        cold = json.loads(json_path.read_text())
        assert cold["workers"] == 2
        assert cold["stats"]["cells"] == 4
        assert cold["stats"]["evaluated"] == 4
        assert cold["stats"]["cache_hits"] == 0
        cell = cold["rows"][0]["results"]["cogent"]
        assert cell["gflops"] > 0
        assert not cell["cached"]

        capsys.readouterr()
        assert main(argv) == 0
        warm = json.loads(json_path.read_text())
        assert warm["stats"]["evaluated"] == 0
        assert warm["stats"]["cache_hits"] == 4
        assert warm["rows"][0]["results"]["cogent"]["cached"]
        assert warm["rows"][0]["results"]["cogent"]["gflops"] == \
            cold["rows"][0]["results"]["cogent"]["gflops"]


class TestTuneCommand:
    def test_tune_small(self, capsys):
        assert main(["tune", "ab-ak-kb", "--sizes", "128",
                     "--population", "6", "--generations", "2"]) == 0
        out = capsys.readouterr().out
        assert "untuned" in out
        assert "COGENT (model-driven)" in out


class TestBatchCommand:
    """``cogent compile`` prints the per-kernel search statistics."""

    def test_batch_by_names(self, capsys):
        assert main(["compile", "ttm_mode1", "ttm_mode2"]) == 0
        out = capsys.readouterr().out
        assert "ttm_mode1" in out and "ttm_mode2" in out
        assert "cfg/s" in out
        assert "wall-time" in out

    def test_batch_group_with_limit(self, capsys):
        assert main(["compile", "--group", "mo", "--limit", "1"]) == 0
        assert "mo_stage1" in capsys.readouterr().out

    def test_batch_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "batch.json"
        assert main(["compile", "ttm_mode1", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["arch"] == "V100"
        assert len(payload["kernels"]) == 1
        kernel = payload["kernels"][0]
        assert kernel["name"] == "ttm_mode1"
        assert kernel["search"]["configs_checked"] > 0
        assert kernel["search"]["kept"] > 0

    def test_batch_by_numeric_id(self, capsys):
        assert main(["compile", "1"]) == 0
        assert "cfg/s" in capsys.readouterr().out


class TestOneStoreDir:
    """Every command that persists anything shares one ``--store-dir``."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return tmp_path_factory.mktemp("store")

    @pytest.mark.parametrize("argv, kind", [
        (["gen", "ab-ak-kb", "--sizes", "16", "--top-k", "2"],
         "canonical"),
        (["compile", "ttm_mode1", "--top-k", "2"], "canonical"),
        (["network", "ab,bc,cd->ad", "--sizes", "8", "--top-k", "2"],
         "canonical"),
        (["bench", "--group", "mo", "--limit", "1",
          "--frameworks", "tc_untuned"], "framework"),
        (["report", "--arch", "V100"], "framework"),
    ], ids=["gen", "compile", "network", "bench", "report"])
    def test_command_writes_its_entries(self, store, argv, kind,
                                        monkeypatch, capsys):
        import json

        from repro.evaluation import report as report_mod
        from repro.tccg import get

        # Keep the report to one Fig. 4 cell grid.
        monkeypatch.setattr(report_mod, "_selection",
                            lambda quick: (get("mo_stage1"),))
        monkeypatch.setattr(report_mod, "_fig67", lambda *a, **k: None)
        monkeypatch.setattr(report_mod, "_fig8", lambda *a, **k: None)
        before = set(store.glob("*.json"))
        assert main(argv + ["--store-dir", str(store)]) == 0
        added = set(store.glob("*.json")) - before
        assert added
        for path in added:
            assert kind in json.loads(path.read_text())
        capsys.readouterr()
        # A second run hits: it adds nothing.
        assert main(argv + ["--store-dir", str(store)]) == 0
        assert set(store.glob("*.json")) == before | added
