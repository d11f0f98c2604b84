"""Tests for Algorithm 2 enumeration (repro.core.enumeration)."""

import pytest

from repro.core.enumeration import Enumerator, _greedy_fill, _rotations
from repro.core.mapping import Dim
from repro.core.parser import parse


@pytest.fixture
def eq1():
    return parse("abcd-aebf-dfce", 24)


@pytest.fixture
def enumerator(eq1, v100):
    return Enumerator(eq1, v100)


class TestGreedyFill:
    EXTENTS = {"a": 4, "b": 8, "c": 3}

    def test_reaches_target_with_partial_tile(self):
        entries, ok = _greedy_fill(["a", "b"], self.EXTENTS, 16)
        assert ok
        assert entries == (("a", 4), ("b", 4))

    def test_first_index_covers_target(self):
        entries, ok = _greedy_fill(["b"], self.EXTENTS, 8)
        assert ok
        assert entries == (("b", 8),)

    def test_first_index_exceeds_target(self):
        entries, ok = _greedy_fill(["b"], self.EXTENTS, 4)
        assert ok
        assert entries == (("b", 4),)

    def test_target_unreachable(self):
        entries, ok = _greedy_fill(["a", "c"], self.EXTENTS, 64)
        assert not ok
        assert entries == (("a", 4), ("c", 3))

    def test_prev_accumulator(self):
        entries, ok = _greedy_fill(["b"], self.EXTENTS, 16, prev=4)
        assert ok
        assert entries == (("b", 4),)

    def test_tile_never_exceeds_extent(self):
        entries, ok = _greedy_fill(["c"], self.EXTENTS, 16, prev=8)
        assert ok
        assert entries[0][1] <= 3


class TestRotations:
    def test_all_starts(self):
        assert list(_rotations(["x", "y", "z"])) == [
            ("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"),
        ]

    def test_empty(self):
        assert list(_rotations([])) == [()]


class TestPartials:
    def test_x_side_always_leads_with_output_fvi(self, enumerator, eq1):
        for partial in enumerator.enumerate_x_side():
            assert partial.tb[0][0] == eq1.c.fvi

    def test_x_side_uses_only_x_externals(self, enumerator, eq1):
        x_ext = set(eq1.externals_of(eq1.x_input))
        for partial in enumerator.enumerate_x_side():
            for name, _tile in partial.tb + partial.reg:
                assert name in x_ext

    def test_y_side_uses_only_y_externals(self, enumerator, eq1):
        y_ext = set(eq1.externals_of(eq1.y_input))
        for partial in enumerator.enumerate_y_side():
            for name, _tile in partial.tb + partial.reg:
                assert name in y_ext

    def test_tb_and_reg_disjoint(self, enumerator):
        for partial in enumerator.enumerate_x_side():
            tb_names = {n for n, _ in partial.tb}
            reg_names = {n for n, _ in partial.reg}
            assert not (tb_names & reg_names)

    def test_tbk_covers_only_internals(self, enumerator, eq1):
        internals = set(eq1.internal_indices)
        for entries in enumerator.enumerate_tb_k():
            for name, _tile in entries:
                assert name in internals

    def test_no_internals_yields_empty_partial(self, v100):
        outer = parse("ab-a-b", {"a": 64, "b": 64})
        e = Enumerator(outer, v100)
        assert e.enumerate_tb_k() == [()]

    def test_y_side_without_externals(self, v100):
        c = parse("a-ak-k", {"a": 128, "k": 64})
        e = Enumerator(c, v100)
        partials = e.enumerate_y_side()
        assert partials == [type(partials[0])((), ())]


def _full(enumerator):
    """The whole ranked head of ``enumerator``'s search."""
    return enumerator.search(keep=enumerator.max_configs)


class TestEnumerate:
    def test_produces_valid_configs(self, enumerator, eq1):
        result = _full(enumerator)
        assert result.configs
        for cfg in result.configs[:50]:
            cfg.validate_for(eq1)  # raises on violation

    def test_stats_add_up(self, enumerator):
        stats = _full(enumerator).stats
        total = (
            stats.hardware_pruned
            + stats.performance_pruned
            + stats.accepted
        )
        assert total == stats.raw_combinations

    def test_pruned_fraction_between_0_and_1(self, enumerator):
        stats = enumerator.search(keep=1).stats
        assert 0.0 <= stats.pruned_fraction <= 1.0

    def test_substantial_pruning_happens(self, enumerator):
        stats = enumerator.search(keep=1).stats
        assert stats.pruned_fraction > 0.25

    def test_no_duplicate_configs(self, enumerator):
        result = _full(enumerator)
        descriptions = [cfg.describe() for cfg in result.configs]
        assert len(descriptions) == len(set(descriptions))
        assert len(result.configs) == result.stats.accepted

    def test_contains_canonical_16x16_config(self, enumerator):
        """The classic 16x16 block with register tiling must be in the
        space (it is NWChem's fixed choice and the paper's Fig. 3)."""
        result = _full(enumerator)
        wanted = None
        for cfg in result.configs:
            if (
                cfg.tb_x_size == 16
                and cfg.tb_y_size == 16
                and cfg.reg_x_size >= 2
                and cfg.reg_y_size >= 2
            ):
                wanted = cfg
                break
        assert wanted is not None

    def test_internal_indices_always_on_tbk(self, enumerator, eq1):
        for cfg in _full(enumerator).configs[:100]:
            for idx in eq1.internal_indices:
                assert cfg.mapping_of(idx).dim is Dim.TB_K

    def test_max_configs_cap(self, eq1, v100):
        e = Enumerator(eq1, v100, max_configs=10)
        result = _full(e)
        assert result.stats.raw_combinations == 10
        assert len(result.configs) <= 10

    def test_tiny_problem_falls_back_to_full_extents(self, v100):
        tiny = parse("ab-ak-kb", {"a": 2, "b": 2, "k": 2})
        result = _full(Enumerator(tiny, v100))
        # Everything may be perf-pruned, but hardware-feasible configs
        # must exist for the generator's fallback.
        assert result.configs or result.feasible_rejects


class TestPaperSearchSpace:
    """Eq. 1 of the paper (Section IV): 4^4 * 2 * 6^5 = 3,981,312."""

    def test_eq1_matches_paper_figure(self, eq1):
        from repro.core.enumeration import paper_search_space

        assert paper_search_space(eq1) == 3_981_312

    def test_matmul_space(self):
        from repro.core.enumeration import paper_search_space

        # ab-ak-kb: 2 externals, 1 internal -> 4^2 * 2^0 * 6^2 = 576.
        assert paper_search_space(parse("ab-ak-kb", 32)) == 576
