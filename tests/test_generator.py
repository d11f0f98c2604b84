"""Tests for the Cogent facade (repro.core.generator)."""

import pytest

from repro import Cogent, parse
from repro.core.enumeration import Enumerator
from repro.core.generator import GeneratedKernel
from repro.gpu.executor import verify_plan

from .oracles import object_search


class TestGenerate:
    def test_returns_generated_kernel(self, cogent_v100, eq1_repr):
        kernel = cogent_v100.generate(eq1_repr)
        assert isinstance(kernel, GeneratedKernel)
        assert kernel.plan.contraction is kernel.contraction

    def test_accepts_expression_string(self, cogent_v100):
        kernel = cogent_v100.generate("ab-ak-kb", sizes=64)
        assert kernel.contraction.internal_indices == ("k",)

    def test_best_plan_is_numerically_correct(self, cogent_v100):
        c = parse("abcd-aebf-dfce",
                  {"a": 6, "b": 5, "c": 4, "d": 6, "e": 3, "f": 2})
        kernel = cogent_v100.generate(c)
        assert verify_plan(kernel.plan)

    def test_candidates_sorted_by_selection_metric(self, cogent_v100,
                                                   eq1_repr):
        kernel = cogent_v100.generate(eq1_repr)
        head = [c for c in kernel.candidates if c.simulated is not None]
        times = [c.simulated.time_s for c in head]
        assert times == sorted(times)

    def test_generation_time_recorded(self, cogent_v100, eq1_repr):
        kernel = cogent_v100.generate(eq1_repr)
        assert kernel.generation_time_s > 0

    def test_cost_is_top_candidate_cost(self, cogent_v100, eq1_repr):
        kernel = cogent_v100.generate(eq1_repr)
        assert kernel.cost == kernel.candidates[0].cost

    def test_summary_contains_search_stats(self, cogent_v100, eq1_repr):
        text = cogent_v100.generate(eq1_repr).summary()
        assert "pruned" in text
        assert "DRAM transactions" in text


class TestSelectionModes:
    def test_pure_model_mode(self, eq1_repr):
        gen = Cogent(arch="V100", top_k=1, allow_split=False)
        kernel = gen.generate(eq1_repr)
        assert kernel.selection_mode == "cost-model"

    def test_microbench_mode(self, eq1_repr):
        gen = Cogent(arch="V100", top_k=8, allow_split=False)
        kernel = gen.generate(eq1_repr)
        assert kernel.selection_mode == "model+microbench"

    def test_microbench_never_worse_than_model_only(self, eq1_repr):
        model_only = Cogent(arch="V100", top_k=1, allow_split=False)
        micro = Cogent(arch="V100", top_k=32, allow_split=False)
        k1 = model_only.generate(eq1_repr)
        k32 = micro.generate(eq1_repr)
        t1 = model_only.predict(k1.plan).time_s
        t32 = micro.predict(k32.plan).time_s
        assert t32 <= t1 + 1e-12


class TestFallbacks:
    def test_tiny_problem_still_generates(self, cogent_v100):
        kernel = cogent_v100.generate("ab-ak-kb", sizes=4)
        assert kernel.plan.num_blocks >= 1
        assert verify_plan(kernel.plan)

    def test_outer_product_generates(self, cogent_v100):
        kernel = cogent_v100.generate("ab-a-b", sizes=64)
        assert kernel.plan.num_steps == 1

    def test_high_dimensional(self, cogent_v100):
        kernel = cogent_v100.generate("abcdef-gdab-efgc", sizes=8)
        assert kernel.contraction.internal_indices == ("g",)


class TestSources:
    def test_cuda_source_cached(self, cogent_v100, eq1_repr):
        kernel = cogent_v100.generate(eq1_repr)
        assert kernel.source("cuda") is kernel.source("cuda")

    def test_default_target_is_cuda(self, cogent_v100, eq1_repr):
        kernel = cogent_v100.generate(eq1_repr)
        assert kernel.target == "cuda"
        assert kernel.source() == kernel.source("cuda")

    def test_driver_source_contains_kernel(self, cogent_v100, eq1_repr):
        kernel = cogent_v100.generate(eq1_repr)
        assert "tc_kernel" in kernel.driver_source("cuda")

    def test_c_emulation_source(self, cogent_v100, eq1_repr):
        kernel = cogent_v100.generate(eq1_repr)
        assert "tc_kernel_emu" in kernel.source("cemu")


class TestRankAndPredict:
    def test_rank_configs_nonempty(self, cogent_v100, eq1_repr):
        ranked = cogent_v100.rank_configs(eq1_repr)
        assert ranked
        costs = [cost for _, cost in ranked]
        assert costs == sorted(costs)

    def test_estimate_and_predict(self, cogent_v100, eq1_repr):
        kernel = cogent_v100.generate(eq1_repr)
        est = cogent_v100.estimate(kernel.plan)
        sim = cogent_v100.predict(kernel.plan)
        assert est.total > 0
        assert sim.gflops > 0

    @pytest.mark.parametrize("size, accepted", [(12, True), (5, False)])
    def test_rank_configs_equals_full_oracle_ranking(self, v100, size,
                                                     accepted):
        """``rank_configs`` is the per-plan oracle's full ranking; at
        extent 5 Eq. 1 accepts nothing and both rank the fallback
        rejects."""
        eq1 = parse("abcd-aebf-dfce", size)
        enumerator = Enumerator(eq1, v100)
        oracle = object_search(enumerator, keep=enumerator.max_configs)
        if accepted:
            assert oracle.stats.accepted == len(oracle.configs) > 0
            want = zip(oracle.configs, oracle.costs)
        else:
            assert oracle.stats.accepted == 0
            assert len(oracle.feasible_rejects) == 300
            want = zip(oracle.feasible_rejects, oracle.reject_costs)
        got = Cogent(allow_split=False).rank_configs(eq1)
        assert [(c.describe(), cost) for c, cost in got] == \
            [(c.describe(), cost) for c, cost in want]

    def test_best_config_beats_median_by_model(self, cogent_v100,
                                               eq1_repr):
        ranked = cogent_v100.rank_configs(eq1_repr)
        best_cost = ranked[0][1]
        median_cost = ranked[len(ranked) // 2][1]
        assert best_cost <= median_cost


class TestDtype:
    def test_single_precision_generator(self, eq1_repr):
        gen = Cogent(arch="V100", dtype_bytes=4)
        kernel = gen.generate(eq1_repr)
        assert "float" in kernel.source("cuda")
        assert verify_plan(kernel.plan)

    def test_archs_rank_as_expected_at_scale(self):
        # At small sizes launch/sync overheads can blur the ordering;
        # at benchmark scale the V100 must come out ahead.
        c = parse("abcd-aebf-dfce", 48)
        kv = Cogent(arch="V100").generate(c)
        kp = Cogent(arch="P100").generate(c)
        assert kv.candidates[0].simulated.gflops > \
            kp.candidates[0].simulated.gflops
