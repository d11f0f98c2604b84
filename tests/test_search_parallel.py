"""Tests for the parallel, streaming configuration search engine.

Covers the bounded top-k collector, the serial/parallel determinism
guarantee (the issue's "determinism guard"), the ``SearchStats`` timing
breakdown, the pool-unavailable serial fallback, and the dedup
session's process-pool path.
"""

import os

import pytest

from repro import Cogent, obs, parse
from repro.core.constraints import (
    HARDWARE_RULES,
    PERFORMANCE_RULES,
    ConstraintChecker,
)
from repro.core.enumeration import Enumerator, SearchStats, TopK
from repro.core.mapping import canonical_key
from repro.core.plan import KernelPlan
from repro.core.program import CompilationSession
from repro.tccg import get

from .oracles import AdaptiveChecker, object_search

#: TCCG entries the determinism guard runs over (>= 5 per the issue).
DETERMINISM_SUITE = (
    "ttm_mode1", "ttm_mode2", "ttm_4d", "mo_stage1", "ccsd_eq1",
)


@pytest.fixture
def eq1():
    return parse("abcd-aebf-dfce", 24)


class TestTopK:
    def test_keeps_k_smallest(self):
        top = TopK(3)
        cfg = object()
        for cost in (9, 1, 7, 3, 5):
            top.push(cost, f"k{cost}", cfg)
        assert [cost for cost, _, _ in top.items()] == [1, 3, 5]

    def test_tie_breaks_on_canonical_key(self):
        top = TopK(2)
        cfg = object()
        for key in ("zz", "aa", "mm"):
            top.push(10, key, cfg)
        assert [key for _, key, _ in top.items()] == ["aa", "mm"]

    def test_insertion_order_irrelevant(self):
        entries = [(5, "e"), (1, "a"), (5, "b"), (2, "c"), (5, "a")]
        tops = []
        for ordering in (entries, list(reversed(entries))):
            top = TopK(3)
            for cost, key in ordering:
                top.push(cost, key, None)
            tops.append([(c, k) for c, k, _ in top.items()])
        assert tops[0] == tops[1] == [(1, "a"), (2, "c"), (5, "a")]

    def test_bounded_memory(self):
        top = TopK(4)
        for cost in range(1000):
            top.push(cost, str(cost), None)
        assert len(top) == 4


class TestStreamingSearch:
    def test_matches_full_enumeration_ranking(self, eq1, v100):
        """The bounded streaming head equals the head of the per-plan
        oracle's full ranking."""
        enumerator = Enumerator(eq1, v100)
        full = object_search(enumerator, keep=enumerator.max_configs)
        assert len(full.configs) == full.stats.accepted > 32
        streamed = Enumerator(eq1, v100).search(keep=32)
        want = [
            (cost, cfg.describe())
            for cost, cfg in zip(full.costs[:32], full.configs[:32])
        ]
        got = [
            (cost, cfg.describe())
            for cost, cfg in zip(streamed.costs, streamed.configs)
        ]
        assert got == want

    def test_stats_match_full_enumeration(self, eq1, v100):
        full = object_search(Enumerator(eq1, v100), keep=1).stats
        streamed = Enumerator(eq1, v100).search(keep=8).stats
        assert streamed.raw_combinations == full.raw_combinations
        assert streamed.accepted == full.accepted
        assert streamed.hardware_pruned == full.hardware_pruned
        assert streamed.performance_pruned == full.performance_pruned

    def test_search_stats_populated(self, eq1, v100):
        result = Enumerator(eq1, v100).search(keep=16)
        stats = result.search_stats
        assert isinstance(stats, SearchStats)
        assert stats.configs_checked == result.stats.raw_combinations
        assert stats.configs_ranked >= len(result.configs)
        assert stats.kept == len(result.configs) == 16
        assert stats.total_s > 0
        assert stats.pruning_s > 0
        assert stats.ranking_s > 0
        assert stats.configs_per_second > 0
        summary = stats.summary()
        assert "cfg/s" in summary and "prune" in summary

    def test_as_dict_round_trip(self, eq1, v100):
        stats = Enumerator(eq1, v100).search(keep=4).search_stats
        data = stats.as_dict()
        assert data["configs_checked"] == stats.configs_checked
        assert data["workers"] == 1
        assert set(data) >= {
            "enumeration_s", "pruning_s", "ranking_s", "simulation_s",
            "total_s", "kept", "configs_per_second",
        }

    def test_parallel_equals_serial(self, eq1, v100):
        serial = Enumerator(eq1, v100).search(keep=24, workers=1)
        parallel = Enumerator(eq1, v100).search(keep=24, workers=3)
        assert parallel.search_stats.workers in (1, 3)  # 1 = fallback
        assert [c.describe() for c in serial.configs] == \
            [c.describe() for c in parallel.configs]
        assert serial.costs == parallel.costs
        assert serial.stats.raw_combinations == \
            parallel.stats.raw_combinations
        assert serial.stats.accepted == parallel.stats.accepted

    def test_pool_failure_falls_back_to_serial(self, eq1, v100,
                                               monkeypatch):
        import concurrent.futures

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pool in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            NoPool)
        with obs.tracing() as session:
            result = Enumerator(eq1, v100).search(keep=8, workers=4)
        assert session.metrics.counter("search.pool_fallbacks") == 1
        assert result.search_stats.workers == 1
        serial = Enumerator(eq1, v100).search(keep=8)
        assert [c.describe() for c in result.configs] == \
            [c.describe() for c in serial.configs]

    def test_shard_error_propagates(self, eq1, v100, monkeypatch):
        coordinator = os.getpid()
        stream = Enumerator._stream

        def fails_in_worker(self, *args, **kwargs):
            if os.getpid() != coordinator:
                raise TypeError("bug inside a search shard")
            return stream(self, *args, **kwargs)

        monkeypatch.setattr(Enumerator, "_stream", fails_in_worker)
        with pytest.raises(TypeError, match="search shard"):
            Enumerator(eq1, v100).search(keep=8, workers=2)

    @pytest.mark.parametrize("expr,size,head", [
        ("abcd-aebf-dfce", 24, "top"),
        ("abc-ak-kbc", 8, "fallback"),  # performance rules reject all
    ])
    def test_shard_heads_share_no_canonical_key(self, v100, expr, size,
                                                head):
        """Shards score disjoint batches, so the merge of their heads
        needs no per-key dedup."""
        enumerator = Enumerator(parse(expr, size), v100, batch_size=16)
        keys = [
            {key for _, key, _ in getattr(enumerator._stream(4096, s, 2),
                                          head)}
            for s in (0, 1)
        ]
        assert keys[0] and keys[1]
        assert not keys[0] & keys[1]

    def test_fallback_rejects_ranked_when_nothing_accepted(self, v100):
        # Tiny problem: performance rules reject everything, so the
        # bounded reject heap must carry ranked hardware-clean configs.
        tiny = parse("ab-ak-kb", 4)
        result = Enumerator(tiny, v100).search(keep=8)
        assert not result.configs
        assert result.feasible_rejects
        assert result.reject_costs == sorted(result.reject_costs)


class TestDeterminismGuard:
    """Issue satellite: parallel and serial search must pick the
    identical best configuration on >= 5 TCCG contractions."""

    @pytest.mark.parametrize("name", DETERMINISM_SUITE)
    def test_workers_agree_on_best_config(self, name):
        contraction = get(name).contraction()
        serial = Cogent(arch="V100").generate(contraction)
        parallel = Cogent(arch="V100", workers=2).generate(contraction)
        assert serial.config.describe() == parallel.config.describe()
        assert serial.cost == parallel.cost
        assert serial.selection_mode == parallel.selection_mode

    def test_canonical_key_total_order(self, eq1, v100):
        result = Enumerator(eq1, v100).search(keep=16)
        keys = [canonical_key(c) for c in result.configs]
        assert len(set(keys)) == len(keys)


class TestAdaptiveConstraintOrdering:
    def test_classify_agrees_with_check(self, eq1, v100):
        enumerator = Enumerator(eq1, v100)
        checker = AdaptiveChecker(v100)
        fresh = ConstraintChecker(v100)
        count = 0
        for xp in enumerator.enumerate_x_side()[:6]:
            for yp in enumerator.enumerate_y_side()[:6]:
                for kp in enumerator.enumerate_tb_k()[:3]:
                    from repro.core.mapping import config_from_spec

                    config = config_from_spec(
                        eq1, tb_x=xp.tb, tb_y=yp.tb, reg_x=xp.reg,
                        reg_y=yp.reg, tb_k=kp, fill_defaults=True,
                    )
                    plan = KernelPlan(eq1, config, 8)
                    verdict = checker.classify(plan)
                    report = fresh.check(plan)
                    expected = (
                        "hardware" if not report.feasible
                        else "performance" if not report.accepted
                        else "accepted"
                    )
                    assert verdict == expected
                    count += 1
        assert count > 50

    def test_rule_stats_accumulate(self, eq1, v100):
        enumerator = Enumerator(eq1, v100)
        result = enumerator.search(keep=4)
        stats = enumerator.checker.rule_stats
        total_rejections = sum(s.rejections for s in stats.values())
        assert total_rejections == (
            result.stats.hardware_pruned
            + result.stats.performance_pruned
        )
        assert any(s.time_s > 0 for s in stats.values())
        assert all(0.0 <= s.selectivity <= 1.0 for s in stats.values())

    def test_reorder_prefers_selective_cheap_rules(self, v100):
        checker = AdaptiveChecker(v100)
        # Simulate measurements: make one rule overwhelmingly the most
        # efficient rejector and verify it is hoisted to the front.
        for name in PERFORMANCE_RULES:
            s = checker.rule_stats[name]
            s.checks, s.rejections, s.time_s = 100, 1, 1.0
        hot = checker.rule_stats["occupancy"]
        hot.checks, hot.rejections, hot.time_s = 100, 90, 0.01
        checker._reorder()
        _hw, perf = checker.rule_order()
        assert perf[0] == "occupancy"

    def test_canonical_order_reported_by_check(self, eq1, v100):
        # check() reports violations in declaration order regardless of
        # adaptive ordering, so diagnostics stay stable.
        assert tuple(HARDWARE_RULES) == (
            "smem", "registers", "max_threads", "nonempty_block"
        )
        checker = AdaptiveChecker(v100)
        hw, perf = checker.rule_order()
        assert set(hw) == set(HARDWARE_RULES)
        assert set(perf) == set(PERFORMANCE_RULES)


class TestSessionPool:
    """The dedup session's process-pool path for representative searches."""

    def test_parallel_batch_matches_serial(self):
        contractions = [
            get(n).contraction() for n in ("ttm_mode1", "ttm_mode3")
        ]
        serial = CompilationSession(Cogent(arch="V100")).compile(
            contractions, workers=1
        )
        parallel = CompilationSession(Cogent(arch="V100")).compile(
            contractions, kernel_names=["mode1", "mode3"], workers=2
        )
        assert parallel.stats.searches == 2
        assert [k.kernel_name for k in parallel.kernels] \
            == ["mode1", "mode3"]
        for a, b in zip(serial.kernels, parallel.kernels):
            assert a.config.describe() == b.config.describe()
            assert a.cost == b.cost

    def test_pool_creation_failure_falls_back_to_serial(self, monkeypatch):
        import concurrent.futures

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pool on this platform")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            NoPool)
        items = [parse("ab-ak-kb", 32), parse("abc-ak-kbc", 16)]
        gen = Cogent(arch="V100", top_k=2)
        with obs.tracing() as session:
            program = CompilationSession(gen).compile(
                items, kernel_names=["first", "second"], workers=2
            )
        assert session.metrics.counter("program.pool_fallbacks") == 1
        assert [k.kernel_name for k in program.kernels] \
            == ["first", "second"]
        for contraction, kernel in zip(items, program.kernels):
            independent = gen.generate(contraction)
            assert kernel.config.describe() \
                == independent.config.describe()

    def test_job_error_propagates(self, monkeypatch):
        coordinator = os.getpid()
        generate = Cogent.generate

        def fails_in_worker(self, *args, **kwargs):
            if os.getpid() != coordinator:
                raise TypeError("bug inside a pool job")
            return generate(self, *args, **kwargs)

        monkeypatch.setattr(Cogent, "generate", fails_in_worker)
        items = [parse("ab-ak-kb", 32), parse("abc-ak-kbc", 16)]
        with pytest.raises(TypeError, match="pool job"):
            CompilationSession(Cogent(arch="V100", top_k=2)).compile(
                items, workers=2
            )
