"""Tests for the experiment harness (repro.evaluation)."""

import math
import os

import pytest

from repro import obs
from repro.evaluation import (
    FrameworkResult,
    SuiteRunner,
    curve_table,
    format_table,
    geomean,
    speedup_summary,
    to_csv,
)
from repro.tccg import get


def _flatten(rows):
    return [
        (row.benchmark.name, framework,
         result.gflops, result.time_s, result.detail)
        for row in rows
        for framework, result in row.results.items()
    ]


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(arch="V100", tc_population=8, tc_generations=2)


@pytest.fixture(scope="module")
def rows(runner):
    benches = [get("ccsd_eq1"), get("sd_t_d2_1")]
    return runner.compare(benches, ("cogent", "nwchem", "talsh"))


class TestGeomean:
    def test_basic(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_is_nan(self):
        assert math.isnan(geomean([]))


class TestRunner:
    def test_rows_have_all_frameworks(self, rows):
        for row in rows:
            assert set(row.results) == {"cogent", "nwchem", "talsh"}

    def test_gflops_positive(self, rows):
        for row in rows:
            for fw in row.results:
                assert row.gflops(fw) > 0

    def test_speedup(self, rows):
        row = rows[0]
        assert row.speedup("cogent", "talsh") == pytest.approx(
            row.gflops("cogent") / row.gflops("talsh")
        )

    def test_unknown_framework_raises(self, runner):
        with pytest.raises(KeyError):
            runner.run("magic", get(1).contraction())

    def test_tc_frameworks(self, runner):
        c = get("sd_t_d2_1").contraction()
        tuned = runner.run("tc", c, "sd2_1")
        untuned = runner.run("tc_untuned", c, "sd2_1")
        assert tuned.gflops > untuned.gflops

    def test_cogent_setup_time_recorded(self, rows):
        assert rows[0].results["cogent"].setup_time_s > 0

    def test_cogent_strategy_row(self, runner):
        c = get("sd_t_d2_1").contraction()
        plain = runner.run("cogent", c, "sd2_1")
        strategic = runner.run("cogent_strategy", c, "sd2_1")
        assert strategic.framework == "cogent_strategy"
        # Anchored on the searched direct kernel: can only match or
        # improve the plain COGENT row.
        assert strategic.gflops >= plain.gflops
        assert "strategy=" in strategic.detail or "modeled" in (
            strategic.detail
        )
        assert strategic.search_time_s >= plain.search_time_s

    def test_speedup_summary(self, rows):
        gm, mx = speedup_summary(rows, over="talsh")
        assert gm > 0
        assert mx >= gm


class TestCompareStats:
    def test_stats_recorded(self, runner, rows):
        stats = runner.last_stats
        assert stats is not None
        assert stats.cells == len(_flatten(rows))
        assert stats.evaluated == stats.cells
        assert not stats.cache_enabled
        assert stats.total_s > 0
        assert stats.setup_s > 0

    def test_summary_mentions_cells(self, runner):
        assert "cells" in runner.last_stats.summary()

    def test_result_dict_roundtrip(self, rows):
        result = rows[0].results["cogent"]
        assert result.search_time_s >= 0
        assert FrameworkResult.from_dict(result.as_dict()) == result

    def test_from_dict_ignores_unknown_keys(self):
        payload = {"framework": "cogent", "benchmark": "x",
                   "gflops": 1.0, "time_s": 2.0, "future_field": 3}
        result = FrameworkResult.from_dict(payload)
        assert result.gflops == 1.0


class TestCompareParallelAndCache:
    BENCHES = ("mo_stage1", "mo_stage2")
    FRAMEWORKS = ("cogent", "talsh")

    def test_parallel_matches_serial(self):
        benches = [get(n) for n in self.BENCHES]
        serial_rows = SuiteRunner(arch="V100").compare(
            benches, self.FRAMEWORKS
        )
        parallel = SuiteRunner(arch="V100")
        parallel_rows = parallel.compare(
            benches, self.FRAMEWORKS, workers=2
        )
        assert _flatten(parallel_rows) == _flatten(serial_rows)

    def test_pool_creation_failure_falls_back_to_serial(self, monkeypatch):
        import concurrent.futures

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pool on this platform")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            NoPool)
        benches = [get(n) for n in self.BENCHES]
        runner = SuiteRunner(arch="V100")
        with obs.tracing() as session:
            rows = runner.compare(benches, self.FRAMEWORKS, workers=2)
        assert session.metrics.counter("evaluation.pool_fallbacks") == 1
        assert not runner.last_stats.parallel
        serial = SuiteRunner(arch="V100").compare(benches, self.FRAMEWORKS)
        assert _flatten(rows) == _flatten(serial)

    def test_cell_error_propagates(self, monkeypatch):
        coordinator = os.getpid()
        run = SuiteRunner.run

        def fails_in_worker(self, *args, **kwargs):
            if os.getpid() != coordinator:
                raise TypeError("bug inside an evaluation cell")
            return run(self, *args, **kwargs)

        monkeypatch.setattr(SuiteRunner, "run", fails_in_worker)
        benches = [get(n) for n in self.BENCHES]
        with pytest.raises(TypeError, match="evaluation cell"):
            SuiteRunner(arch="V100").compare(
                benches, self.FRAMEWORKS, workers=2
            )

    def test_warm_cache_zero_reevaluations(self, tmp_path):
        benches = [get(n) for n in self.BENCHES]
        cold = SuiteRunner(arch="V100", store_dir=tmp_path / "store")
        cold_rows = cold.compare(benches, self.FRAMEWORKS)
        assert cold.last_stats.cache_misses == cold.last_stats.cells
        assert cold.last_stats.evaluated == cold.last_stats.cells

        warm = SuiteRunner(arch="V100", store_dir=tmp_path / "store")
        warm_rows = warm.compare(benches, self.FRAMEWORKS)
        assert warm.last_stats.evaluated == 0
        assert warm.last_stats.cache_hits == warm.last_stats.cells
        assert _flatten(warm_rows) == _flatten(cold_rows)
        for row in warm_rows:
            for result in row.results.values():
                assert result.cached
        for row in cold_rows:
            for result in row.results.values():
                assert not result.cached

    def test_cache_keyed_on_tuner_params(self, tmp_path):
        bench = get("sd_t_d2_1")
        first = SuiteRunner(
            arch="V100", tc_population=6, tc_generations=2,
            store_dir=tmp_path / "store",
        )
        first.compare([bench], ("tc_untuned",))
        second = SuiteRunner(
            arch="V100", tc_population=8, tc_generations=2,
            store_dir=tmp_path / "store",
        )
        second.compare([bench], ("tc_untuned",))
        # Different tuner parameters must not hit each other's entries.
        assert second.last_stats.cache_hits == 0

    def test_torn_cell_is_a_counted_miss(self, tmp_path):
        """A stored cell that is valid JSON but lacks a field misses, is
        evaluated again and is rewritten whole."""
        import json

        bench = get("ttm_mode1")
        SuiteRunner(store_dir=tmp_path / "store").compare([bench], ["talsh"])
        (path,) = (tmp_path / "store").glob("*.json")
        cell = json.loads(path.read_text())
        del cell["gflops"]
        path.write_text(json.dumps(cell))

        runner = SuiteRunner(store_dir=tmp_path / "store")
        with obs.tracing() as session:
            rows = runner.compare([bench], ["talsh"])
        assert runner.last_stats.cache_misses == 1
        assert runner.last_stats.evaluated == 1
        assert session.metrics.counter("store.misses") == 1
        assert rows[0].gflops("talsh") > 0
        assert not rows[0].results["talsh"].cached
        repaired = SuiteRunner(store_dir=tmp_path / "store")
        repaired.compare([bench], ["talsh"])
        assert repaired.last_stats.cache_hits == 1

    def test_cell_under_another_code_stamp_misses(self, tmp_path,
                                                  monkeypatch):
        from repro.core import program

        bench = get("ttm_mode1")
        SuiteRunner(store_dir=tmp_path / "store").compare([bench], ["talsh"])
        monkeypatch.setattr(program, "_CODE_STAMP", "f" * 16)
        stale = SuiteRunner(store_dir=tmp_path / "store")
        stale.compare([bench], ["talsh"])
        assert stale.last_stats.cache_hits == 0
        assert stale.last_stats.evaluated == 1


class TestTables:
    def test_format_table_contains_benchmarks(self, rows):
        text = format_table(rows, ("cogent", "nwchem", "talsh"),
                            title="demo")
        assert "demo" in text
        assert "ccsd_eq1" in text
        assert "geomean" in text
        assert "cogent vs talsh" in text

    def test_csv(self, rows):
        csv = to_csv(rows, ("cogent", "talsh"))
        lines = csv.strip().splitlines()
        assert lines[0] == "id,name,expr,cogent,talsh"
        assert len(lines) == 1 + len(rows)

    def test_curve_table(self):
        text = curve_table([1.0, 2.0, 3.0, 4.0, 5.0], stride=2)
        assert "best GFLOPS" in text
        assert text.strip().splitlines()[-1].split()[0] == "5"
