"""Tests for the address-trace transaction counter (repro.gpu.memory)."""

import pytest

from repro.core.costmodel import CostModel
from repro.core.mapping import config_from_spec
from repro.core.parser import parse
from repro.core.plan import KernelPlan
from repro.gpu.memory import (
    TransactionCounter,
    VectorizedReplay,
    count_transactions,
    sampled_is_exact,
)

from .oracles import count_transactions_reference


def make_plan(c, **spec):
    return KernelPlan(c, config_from_spec(c, **spec))


class TestMatmulHandCounts:
    """32x32x32 matmul with 16x16x16 tiles: fully analysable by hand."""

    @pytest.fixture
    def plan(self):
        c = parse("ab-ak-kb", {"a": 32, "b": 32, "k": 32})
        return make_plan(
            c, tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 16)]
        )

    def test_load_a_one_tile(self, plan):
        counter = TransactionCounter(plan)
        # A tile is 16x16 doubles; each 16-element column is contiguous
        # (run 16 = 128 B).  256 threads load 256 elements in one
        # iteration: 16 segments of 128 B -> at least 16 transactions.
        txns = counter.load_transactions(plan.contraction.a, 0, 0)
        assert txns == 16

    def test_store_c_one_block(self, plan):
        counter = TransactionCounter(plan)
        # Each of 16 rows' store per register element: REG=1x1, so one
        # issue; each warp of 32 threads covers 2 columns of 16 -> 2
        # lines per warp, 8 warps -> 16.
        assert counter.store_transactions(0) == 16

    def test_totals_scale_with_blocks_and_steps(self, plan):
        measured = count_transactions(plan, exact=True)
        # 4 blocks, 2 steps.
        assert measured.load_a == 16 * 4 * 2
        assert measured.load_b == 16 * 4 * 2
        assert measured.store_c == 16 * 4

    def test_sampled_equals_exact_when_divisible(self, plan):
        assert count_transactions(plan, exact=True) == \
            count_transactions(plan, exact=False)


class TestModelAgreement:
    """The analytic model must track measured counts closely when tiles
    divide extents, and never undercount by more than the edge effects
    when they don't."""

    @pytest.mark.parametrize("expr,sizes", [
        ("ab-ak-kb", {"a": 32, "b": 32, "k": 32}),
        ("abc-adc-bd", {"a": 16, "b": 8, "c": 4, "d": 8}),
        ("abcd-aebf-dfce", {"a": 16, "b": 4, "c": 4, "d": 16,
                            "e": 4, "f": 4}),
    ])
    def test_exact_match_divisible(self, expr, sizes):
        c = parse(expr, sizes)
        spec = {"tb_x": [(c.c.fvi, min(16, sizes[c.c.fvi]))]}
        y_ext = c.externals_of(c.y_input)
        if y_ext:
            spec["tb_y"] = [(y_ext[0], min(8, sizes[y_ext[0]]))]
        if c.internal_indices:
            i0 = c.internal_indices[0]
            spec["tb_k"] = [(i0, min(4, sizes[i0]))]
        plan = make_plan(c, **spec)
        measured = count_transactions(plan, exact=True)
        model = CostModel().estimate(plan)
        # Within 2x in both directions for these clean layouts.
        assert model.total <= 2 * measured.total
        assert measured.total <= 2 * model.total

    def test_misalignment_makes_measured_exceed_model(self):
        """The paper's model assumes every 128 B segment is aligned; a
        30-double row pitch (240 B) misaligns segments so the replayed
        addresses straddle extra cache lines.  The ground-truth counter
        must therefore exceed the analytic count here — this quantifies
        the model's stated simplification."""
        c = parse("ab-ak-kb", {"a": 30, "b": 30, "k": 30})
        plan = make_plan(
            c, tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 16)]
        )
        measured = count_transactions(plan, exact=True)
        model = CostModel().estimate(plan)
        assert measured.total > model.total
        # ... but still within the 2x the misalignment can introduce.
        assert measured.total <= 2 * model.total


class TestCoalescingSensitivity:
    def test_uncoalesced_layout_measures_more(self):
        sizes = {"a": 16, "b": 16, "k": 16}
        good = parse("ab-ak-kb", sizes)   # A FVI = a (mapped to TBx)
        plan_good = make_plan(
            good, tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 16)]
        )
        bad = parse("ab-ka-kb", sizes)    # A FVI = k (serial dim)
        plan_bad = make_plan(
            bad, tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 1)]
        )
        good_txns = count_transactions(plan_good, exact=True)
        bad_txns = count_transactions(plan_bad, exact=True)
        assert bad_txns.load_a > good_txns.load_a

    def test_sp_halves_transactions_for_wide_rows(self):
        c = parse("ab-ak-kb", {"a": 32, "b": 32, "k": 32})
        cfg = config_from_spec(
            c, tb_x=[("a", 32)], tb_y=[("b", 8)], tb_k=[("k", 8)]
        )
        dp = count_transactions(KernelPlan(c, cfg, 8), exact=False)
        sp = count_transactions(KernelPlan(c, cfg, 4), exact=False)
        assert sp.total < dp.total


class TestBounds:
    def test_out_of_bounds_lanes_issue_nothing(self):
        c = parse("ab-ak-kb", {"a": 17, "b": 17, "k": 17})
        plan = make_plan(
            c, tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 16)]
        )
        measured = count_transactions(plan, exact=True)
        # The edge blocks have 1 valid lane per row; totals must stay
        # strictly below the 4-full-blocks figure.
        full = parse("ab-ak-kb", {"a": 32, "b": 32, "k": 32})
        plan_full = make_plan(
            full, tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 16)]
        )
        full_measured = count_transactions(plan_full, exact=True)
        assert measured.total < full_measured.total

    def test_totals_positive(self):
        c = parse("ab-ak-kb", {"a": 8, "b": 8, "k": 8})
        plan = make_plan(
            c, tb_x=[("a", 8)], tb_y=[("b", 8)], tb_k=[("k", 8)]
        )
        measured = count_transactions(plan, exact=True)
        assert measured.load_a > 0
        assert measured.store_c > 0
        assert measured.bytes == measured.total * 128


#: (expr, sizes, spec) covering register tiles, multi-index TB_K, and
#: non-divisible boundary tiles on every axis kind.
REPLAY_CASES = [
    ("ab-ak-kb", {"a": 32, "b": 32, "k": 32},
     dict(tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 16)])),
    ("ab-ak-kb", {"a": 17, "b": 19, "k": 23},
     dict(tb_x=[("a", 8)], tb_y=[("b", 8)], tb_k=[("k", 8)])),
    ("abc-adc-bd", {"a": 12, "b": 10, "c": 6, "d": 9},
     dict(tb_x=[("a", 8)], reg_x=[("c", 2)], tb_y=[("b", 4)],
          tb_k=[("d", 4)])),
    ("abcd-aebf-dfce", {"a": 10, "b": 6, "c": 5, "d": 7, "e": 4, "f": 3},
     dict(tb_x=[("a", 8)], reg_x=[("b", 2)], tb_y=[("d", 4)],
          reg_y=[("c", 2)], tb_k=[("e", 2), ("f", 2)])),
]


class TestVectorizedReplay:
    """The batched replay must be bit-for-bit equal to the loop oracle."""

    @pytest.mark.parametrize("dtype_bytes", [4, 8])
    @pytest.mark.parametrize("expr,sizes,spec", REPLAY_CASES)
    def test_matches_loop_reference(self, expr, sizes, spec, dtype_bytes):
        c = parse(expr, sizes)
        plan = KernelPlan(c, config_from_spec(c, **spec), dtype_bytes)
        assert VectorizedReplay(plan).count() == \
            count_transactions_reference(plan)

    def test_exact_true_uses_vectorized_path(self):
        c = parse("ab-ak-kb", {"a": 17, "b": 19, "k": 23})
        plan = make_plan(
            c, tb_x=[("a", 8)], tb_y=[("b", 8)], tb_k=[("k", 8)]
        )
        assert count_transactions(plan, exact=True) == \
            count_transactions_reference(plan)


class TestAutoMode:
    def test_auto_replays_exactly_on_boundary_tiles(self):
        c = parse("ab-ak-kb", {"a": 17, "b": 19, "k": 23})
        plan = make_plan(
            c, tb_x=[("a", 8)], tb_y=[("b", 8)], tb_k=[("k", 8)]
        )
        assert not sampled_is_exact(plan)
        auto = count_transactions(plan, exact="auto")
        assert auto == count_transactions(plan, exact=True)
        # The sampled estimate over-counts here (the original boundary
        # bug): one interior block scaled by num_blocks.
        assert count_transactions(plan, exact=False).total > auto.total

    def test_auto_replays_exactly_on_misaligned_tiles(self):
        # Tiles divide the extents, but an 8-double TB_X tile (64 B)
        # shifts successive blocks within a 128 B line, so block 0 is
        # not representative of the whole grid.
        c = parse("ab-ak-kb", {"a": 32, "b": 32, "k": 32})
        plan = make_plan(
            c, tb_x=[("a", 8)], tb_y=[("b", 8)], tb_k=[("k", 8)]
        )
        assert not sampled_is_exact(plan)
        assert count_transactions(plan, exact="auto") == \
            count_transactions(plan, exact=True)

    def test_auto_samples_on_divisible_aligned_tiles(self):
        c = parse("ab-ak-kb", {"a": 32, "b": 32, "k": 32})
        plan = make_plan(
            c, tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 16)]
        )
        assert sampled_is_exact(plan)
        auto = count_transactions(plan, exact="auto")
        assert auto == count_transactions(plan, exact=False)
        assert auto == count_transactions(plan, exact=True)

    def test_sampled_equals_exact_when_divisible_and_aligned(self):
        c = parse("abc-adc-bd", {"a": 16, "b": 8, "c": 4, "d": 8})
        plan = make_plan(
            c, tb_x=[("a", 16)], tb_y=[("b", 8)], tb_k=[("d", 4)]
        )
        assert sampled_is_exact(plan)
        assert count_transactions(plan, exact=False) == \
            count_transactions(plan, exact=True)

    def test_invalid_mode_rejected(self):
        c = parse("ab-ak-kb", {"a": 8, "b": 8, "k": 8})
        plan = make_plan(
            c, tb_x=[("a", 8)], tb_y=[("b", 8)], tb_k=[("k", 8)]
        )
        with pytest.raises(ValueError):
            count_transactions(plan, exact="always")
