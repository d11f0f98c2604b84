"""Tests for the DRAM transaction cost model (repro.core.costmodel)."""

import pytest

from repro.core.costmodel import (
    CostModel,
    TransactionEstimate,
    contiguous_run,
    row_transactions,
    row_transactions_paper,
)
from repro.core.enumeration import Enumerator
from repro.core.mapping import config_from_spec
from repro.core.parser import parse
from repro.core.plan import KernelPlan


@pytest.fixture
def eq1():
    return parse("abcd-aebf-dfce", 16)


def make_plan(c, **spec):
    return KernelPlan(c, config_from_spec(c, **spec))


def ranked(c, arch):
    """Every accepted configuration of ``c``, ranked by the search."""
    enumerator = Enumerator(c, arch)
    return enumerator.search(keep=enumerator.max_configs)


class TestContiguousRun:
    def test_full_leading_tile_extends_run(self, eq1):
        plan = make_plan(
            eq1, tb_x=[("a", 16)], tb_k=[("e", 4)],
        )
        # A = [a,e,b,f]: a full (16), e partial (4) -> run = 16 * 4.
        assert contiguous_run(plan, eq1.a) == 64

    def test_partial_leading_tile_stops_run(self, eq1):
        plan = make_plan(eq1, tb_x=[("a", 8)], tb_k=[("e", 4)])
        assert contiguous_run(plan, eq1.a) == 8

    def test_all_tiles_full(self):
        c = parse("ab-ak-kb", {"a": 4, "b": 4, "k": 4})
        plan = make_plan(
            c, tb_x=[("a", 4)], tb_y=[("b", 4)], tb_k=[("k", 4)]
        )
        assert contiguous_run(plan, c.a) == 16

    def test_output_run(self, eq1):
        plan = make_plan(eq1, tb_x=[("a", 16), ("b", 2)])
        # C = [a,b,c,d]: a full, b partial -> 32.
        assert contiguous_run(plan, eq1.c) == 32


class TestRowTransactions:
    def test_fully_coalesced_double(self):
        # 16 doubles = 128 bytes = exactly one transaction.
        assert row_transactions(16, 16, 8) == 1

    def test_fully_coalesced_float(self):
        assert row_transactions(32, 32, 4) == 1

    def test_wide_row_multiple_transactions(self):
        assert row_transactions(32, 32, 8) == 2

    def test_strided_segments(self):
        # Runs of 4 doubles: 4 segments of 1 transaction each.
        assert row_transactions(16, 4, 8) == 4

    def test_run_longer_than_row(self):
        assert row_transactions(8, 128, 8) == 1

    def test_zero_row(self):
        assert row_transactions(0, 4, 8) == 0

    def test_paper_formula_counts_segments_only(self):
        # 32 doubles in one run: the paper counts 1 (segments), the
        # refined formula counts 2 (256 B / 128 B).
        assert row_transactions_paper(32, 32) == 1
        assert row_transactions(32, 32, 8) == 2

    def test_paper_formula_agrees_on_strided_runs(self):
        assert row_transactions_paper(16, 4) == \
            row_transactions(16, 4, 8)

    def test_formulas_rank_identically(self):
        """Within 16-element rows (the paper's tile alphabet), both
        formulas order access patterns the same way."""
        patterns = [(16, run) for run in (1, 2, 4, 8, 16)]
        refined = [row_transactions(r, run, 8) for r, run in patterns]
        paper = [row_transactions_paper(r, run) for r, run in patterns]
        assert (
            sorted(range(len(patterns)), key=lambda i: refined[i])
            == sorted(range(len(patterns)), key=lambda i: paper[i])
        )


class TestEstimate:
    def test_matmul_hand_computed(self):
        c = parse("ab-ak-kb", {"a": 32, "b": 32, "k": 32})
        plan = make_plan(
            c, tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 16)]
        )
        model = CostModel(dtype_bytes=8)
        est = model.estimate(plan)
        # Blocks: 2*2 = 4; steps: 2.
        # A tile 16x16: run 16 -> 1 txn/row, rows = reg_x(1)*tbk(16)=16.
        assert est.load_a == 1 * 16 * 2 * 4
        # B = [k, b]: k tile 16 partial -> run 16 -> 1 txn/row; rows=16.
        assert est.load_b == 1 * 16 * 2 * 4
        # C store: run 16 -> 1 txn/row; rows = 16 (TBy) -> 16 per block.
        assert est.store_c == 16 * 4

    def test_total_and_bytes(self):
        est = TransactionEstimate(load_a=10, load_b=20, store_c=30)
        assert est.total == 60
        assert est.bytes == 60 * 128

    def test_uncoalesced_layout_costs_more(self, eq1):
        model = CostModel()
        coalesced = make_plan(
            eq1, tb_x=[("a", 16)], tb_y=[("d", 16)], tb_k=[("e", 8)]
        )
        uncoalesced = make_plan(
            eq1, tb_x=[("a", 16)], tb_y=[("c", 16)], tb_k=[("e", 8)]
        )
        # d is B's FVI; pushing it to the grid (tile 1) breaks B's runs.
        assert model.input_load_transactions(
            uncoalesced, eq1.b
        ) > model.input_load_transactions(coalesced, eq1.b)

    def test_bigger_k_tile_reduces_input_traffic(self):
        c = parse("ab-ak-kb", {"a": 64, "b": 64, "k": 64})
        model = CostModel()
        small = make_plan(
            c, tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 4)]
        )
        big = make_plan(
            c, tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 16)]
        )
        # Same total elements staged; bigger tiles -> same transactions
        # here, but never more.
        assert model.cost(big) <= model.cost(small)

    def test_register_tiling_reduces_total_cost(self, eq1):
        model = CostModel()
        no_reg = make_plan(
            eq1, tb_x=[("a", 16)], tb_y=[("d", 16)], tb_k=[("e", 8)]
        )
        with_reg = make_plan(
            eq1,
            tb_x=[("a", 16)], tb_y=[("d", 16)],
            reg_x=[("b", 4)], reg_y=[("c", 4)],
            tb_k=[("e", 8)],
        )
        # Fewer blocks re-reading the inputs.
        assert model.cost(with_reg) < model.cost(no_reg)

    def test_sp_costs_less_than_dp(self, eq1):
        plan8 = make_plan(
            eq1, tb_x=[("a", 16)], tb_y=[("d", 16)], tb_k=[("e", 8)]
        )
        assert CostModel(4).cost(plan8) <= CostModel(8).cost(plan8)


class TestClipped:
    def test_clipped_never_exceeds_unclipped(self):
        c = parse("abcd-aebf-dfce", 24)  # 16 does not divide 24
        plan = make_plan(
            c,
            tb_x=[("a", 16)], tb_y=[("d", 16)],
            reg_x=[("b", 6)], reg_y=[("c", 6)],
            tb_k=[("e", 16)],
        )
        model = CostModel()
        clipped = model.estimate(plan, clipped=True)
        full = model.estimate(plan, clipped=False)
        assert clipped.total <= full.total

    def test_clipped_equals_unclipped_when_divisible(self, eq1):
        plan = make_plan(
            eq1, tb_x=[("a", 16)], tb_y=[("d", 16)], tb_k=[("e", 8)]
        )
        model = CostModel()
        assert model.estimate(plan, clipped=True).total == \
            model.estimate(plan, clipped=False).total


class TestRank:
    def test_rank_sorted_ascending(self, eq1, v100):
        """The search ranks by ascending per-plan model cost."""
        result = ranked(eq1, v100)
        assert result.costs == sorted(result.costs)
        model = CostModel()
        assert result.costs == [
            model.cost(KernelPlan(eq1, config)) for config in result.configs
        ]

    def test_rank_deterministic(self, eq1, v100):
        first = [c.describe() for c in ranked(eq1, v100).configs[:10]]
        second = [c.describe() for c in ranked(eq1, v100).configs[:10]]
        assert first == second


class TestMemoization:
    """The per-tensor memo layer must be transparent: identical results
    to a fresh model, with hits accumulating across shared tilings."""

    def test_counters_start_at_zero(self):
        model = CostModel()
        assert model.memo_info() == {"hits": 0, "misses": 0, "entries": 0}

    def test_repeat_estimate_hits(self, eq1):
        plan = make_plan(
            eq1, tb_x=[("a", 16)], tb_y=[("d", 16)], tb_k=[("e", 8)]
        )
        model = CostModel()
        first = model.estimate(plan)
        assert model.memo_hits == 0
        assert model.memo_misses == 3  # A load, B load, C store
        second = model.estimate(plan)
        assert second == first
        assert model.memo_hits == 3
        assert model.memo_misses == 3

    def test_shared_tilings_hit_across_configs(self, eq1, v100):
        configs = ranked(eq1, v100).configs
        model = CostModel()
        for config in configs:
            model.cost(KernelPlan(eq1, config))
        info = model.memo_info()
        # Thousands of configurations share far fewer per-tensor tilings.
        assert info["hits"] > info["misses"]
        assert info["entries"] == info["misses"]
        assert info["hits"] + info["misses"] == 3 * len(configs)

    def test_memoized_equals_fresh(self, eq1, v100):
        """Every memoized TransactionEstimate equals one computed by a
        brand-new model (no stale or mixed-up cache entries)."""
        configs = ranked(eq1, v100).configs
        shared = CostModel()
        for config in configs[:200]:
            plan = KernelPlan(eq1, config)
            for clipped in (False, True):
                assert shared.estimate(plan, clipped) == \
                    CostModel().estimate(plan, clipped)

    def test_clear_memo(self, eq1):
        plan = make_plan(eq1, tb_x=[("a", 16)], tb_k=[("e", 4)])
        model = CostModel()
        model.estimate(plan)
        model.clear_memo()
        assert model.memo_info() == {"hits": 0, "misses": 0, "entries": 0}

    def test_distinct_dtype_models_disagree_safely(self, eq1):
        # Same key-space, different instance parameters: instances must
        # not share state.
        plan = make_plan(eq1, tb_x=[("a", 16)], tb_k=[("e", 4)])
        dp = CostModel(dtype_bytes=8)
        sp = CostModel(dtype_bytes=4)
        assert dp.estimate(plan).total >= sp.estimate(plan).total
