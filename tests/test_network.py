"""Tests for contraction networks (repro.core.network)."""

import numpy as np
import pytest

from repro import Cogent
from repro.core.ir import ContractionError
from repro.core.network import optimal_path, parse_network
from repro.core.pipeline import NetworkPipeline, contract_network

from .oracles import object_optimal_path

#: The production path DP and the per-pair oracle DP; every
#: tie-break, cap and rejection behaviour must match between them.
PATH_DPS = (optimal_path, object_optimal_path)


@pytest.fixture(scope="module")
def gen():
    return Cogent(arch="V100", top_k=2)


class TestParse:
    def test_basic(self):
        spec = parse_network("ab,bc,cd->ad", 8)
        assert len(spec.inputs) == 3
        assert spec.output == ("a", "d")

    def test_sizes_dict(self):
        spec = parse_network("ab,bc->ac", {"a": 2, "b": 3, "c": 4})
        assert spec.sizes["b"] == 3

    def test_missing_arrow_rejected(self):
        with pytest.raises(ContractionError):
            parse_network("ab,bc", 4)

    def test_single_tensor_rejected(self):
        with pytest.raises(ContractionError):
            parse_network("ab->ab", 4)

    def test_unknown_output_index_rejected(self):
        with pytest.raises(ContractionError):
            parse_network("ab,bc->az", 4)


class TestOptimalPath:
    def test_chain_order_respects_sizes(self):
        # With b huge, contracting (A,B) first shrinks the problem.
        spec = parse_network(
            "ab,bc,cd->ad", {"a": 8, "b": 512, "c": 4, "d": 8}
        )
        path = optimal_path(spec)
        first = path.steps[0]
        assert {first.left, first.right} == {0, 1}

    def test_reverse_skew_flips_order(self):
        spec = parse_network(
            "ab,bc,cd->ad", {"a": 8, "b": 4, "c": 512, "d": 8}
        )
        path = optimal_path(spec)
        first = path.steps[0]
        assert {first.left, first.right} == {1, 2}

    def test_total_flops_counts_both_steps(self):
        spec = parse_network(
            "ab,bc,cd->ad", {"a": 4, "b": 4, "c": 4, "d": 4}
        )
        path = optimal_path(spec)
        assert path.total_flops == 2 * (4 ** 3) * 2

    def test_steps_form_valid_contractions(self):
        spec = parse_network("abk,kcl,ld->abcd", 6)
        path = optimal_path(spec)
        for step in path.steps:
            assert step.contraction.flops > 0

    def test_four_tensor_path_length(self):
        spec = parse_network("ab,bc,cd,de->ae", 6)
        assert len(optimal_path(spec).steps) == 3

    def test_disconnected_outer_product_allowed(self):
        # a,b networks with no shared index: steps become outer
        # products, which the binary IR supports.
        spec = parse_network("a,b->ab", {"a": 4, "b": 5})
        path = optimal_path(spec)
        assert len(path.steps) == 1
        assert path.steps[0].contraction.internal_indices == ()


class TestOptimalPathDegenerate:
    """Degenerate inputs now feeding the dedup partitioner: the path
    (and hence the class partition) must be deterministic."""

    def test_repeated_identical_operands_dedup_to_one_class(self):
        # A square chain: both pairwise steps are the same matmul
        # shape, so the workload compiler searches once.
        spec = parse_network("ab,bc,cd->ad", 24)
        nc = NetworkPipeline(Cogent(arch="V100", top_k=2)).compile(spec)
        assert nc.program.stats.classes == 1
        assert nc.program.stats.dedup_hits == 1
        rng = np.random.default_rng(7)
        m = rng.random((24, 24))
        # The same operand value used three times.
        assert np.allclose(nc.execute(m, m, m), m @ m @ m)

    def test_repeated_identical_operands_path_deterministic(self):
        spec = parse_network("ab,bc,cd->ad", 16)
        first = optimal_path(spec)
        second = optimal_path(spec)
        assert [
            (s.left, s.right, s.result) for s in first.steps
        ] == [(s.left, s.right, s.result) for s in second.steps]
        assert first.total_flops == second.total_flops
        assert first.peak_intermediate == second.peak_intermediate

    def test_all_contracted_scalar_output_rejected_deterministically(
        self,
    ):
        # ab,ab-> sums everything away; the binary kernel template has
        # no scalar output, and the error must be stable call-to-call.
        spec = parse_network("ab,ab->", {"a": 4, "b": 5})
        with pytest.raises(ContractionError, match="scalar"):
            optimal_path(spec)
        with pytest.raises(ContractionError, match="scalar"):
            optimal_path(spec)

    def test_scalar_intermediate_rejected(self):
        # The full inner product of a 3-chain forces a scalar only at
        # the very last step.
        spec = parse_network("ab,bc,ca->", 4)
        with pytest.raises(ContractionError, match="scalar"):
            optimal_path(spec)

    def test_flop_tie_breaks_on_largest_intermediate(self):
        # Brute-forced example: with these extents the 168-FLOP optimum
        # is attained by plans with peak intermediates 9 and 12; the
        # tie-breaker must choose 9.
        spec = parse_network(
            "ab,bc,cd,de->ae",
            {"a": 2, "b": 2, "c": 3, "d": 6, "e": 3},
        )
        path = optimal_path(spec)
        assert path.total_flops == 168
        assert path.peak_intermediate == 9

    def test_flop_tie_execution_still_correct(self, gen):
        sizes = {"a": 2, "b": 2, "c": 3, "d": 6, "e": 3}
        rng = np.random.default_rng(11)
        ops = [
            rng.random((sizes["a"], sizes["b"])),
            rng.random((sizes["b"], sizes["c"])),
            rng.random((sizes["c"], sizes["d"])),
            rng.random((sizes["d"], sizes["e"])),
        ]
        got = contract_network(
            "ab,bc,cd,de->ae", *ops, sizes=sizes, generator=gen
        )
        assert np.allclose(got, ops[0] @ ops[1] @ ops[2] @ ops[3])


class TestExecution:
    def test_chain_matmul(self, gen):
        rng = np.random.default_rng(0)
        a = rng.random((6, 9))
        b = rng.random((9, 4))
        c = rng.random((4, 7))
        got = contract_network("ab,bc,cd->ad", a, b, c, generator=gen)
        assert np.allclose(got, a @ b @ c)

    def test_output_permutation_applied(self, gen):
        rng = np.random.default_rng(1)
        a = rng.random((5, 6))
        b = rng.random((6, 4))
        got = contract_network("ab,bc->ca", a, b, generator=gen)
        assert np.allclose(got, (a @ b).T)

    def test_higher_order_network(self, gen):
        rng = np.random.default_rng(2)
        x = rng.random((5, 4, 6))
        y = rng.random((6, 3, 7))
        z = rng.random((7, 4))
        got = contract_network("abk,kcl,ld->abcd", x, y, z,
                               generator=gen)
        want = np.einsum("abk,kcl,ld->abcd", x, y, z)
        assert np.allclose(got, want)

    def test_four_tensors(self, gen):
        rng = np.random.default_rng(3)
        ops = [rng.random((5, 6)), rng.random((6, 7)),
               rng.random((7, 4)), rng.random((4, 8))]
        got = contract_network("ab,bc,cd,de->ae", *ops, generator=gen)
        want = ops[0] @ ops[1] @ ops[2] @ ops[3]
        assert np.allclose(got, want)

    def test_reference_matches_execute(self, gen):
        spec = parse_network("ab,bc,cd->ad",
                             {"a": 5, "b": 6, "c": 4, "d": 7})
        nc = NetworkPipeline(gen).compile(spec)
        rng = np.random.default_rng(4)
        ops = [rng.random((5, 6)), rng.random((6, 4)),
               rng.random((4, 7))]
        assert np.allclose(nc.execute(*ops), nc.reference(*ops))

    def test_wrong_operand_count_rejected(self, gen):
        spec = parse_network("ab,bc->ac", 4)
        nc = NetworkPipeline(gen).compile(spec)
        with pytest.raises(ValueError):
            nc.execute(np.zeros((4, 4)))

    def test_predicted_time_positive(self, gen):
        spec = parse_network("ab,bc,cd->ad", 64)
        nc = NetworkPipeline(gen).compile(spec)
        assert nc.predicted_time_s() > 0
        assert "network" in nc.summary()


def _path_key(path):
    return (
        path.total_flops,
        path.peak_intermediate,
        tuple(
            (s.left, s.right, s.result, s.contraction.c.indices)
            for s in path.steps
        ),
    )


class TestPathEngineParity:
    """The vectorized bitmask DP must be bit-identical to the per-pair
    oracle DP in :mod:`tests.oracles`."""

    NETWORKS = [
        ("ab,bc,cd->ad", {"a": 8, "b": 512, "c": 4, "d": 8}),
        ("ab,bc,cd->ad", {"a": 8, "b": 4, "c": 512, "d": 8}),
        ("ab,bc,cd,de->ae", {"a": 2, "b": 2, "c": 3, "d": 6, "e": 3}),
        ("ab,bc,cd,de->ae", {"a": 16, "b": 512, "c": 8, "d": 256,
                             "e": 16}),
        ("abk,kcl,ld->abcd", 6),
        ("a,b->ab", {"a": 4, "b": 5}),
        ("ab,bc,cd,de,ef,fg->ag", {"a": 128, "b": 16, "c": 32,
                                   "d": 64, "e": 128, "f": 256,
                                   "g": 2}),
        # Tucker-style core + factor matrices.
        ("abc,ai,bj,ck->ijk", {"a": 6, "b": 7, "c": 8, "i": 3,
                               "j": 4, "k": 5}),
        # All-equal extents: every split ties on FLOPs.
        ("ab,bc,cd,de,ef->af", 4),
    ]

    @pytest.mark.parametrize("expr,sizes", NETWORKS)
    def test_engines_bit_identical(self, expr, sizes):
        spec = parse_network(expr, sizes)
        vec = optimal_path(spec)
        obj = object_optimal_path(spec)
        assert _path_key(vec) == _path_key(obj)

    def test_randomized_parity_battery(self):
        import random

        random.seed(20260808)
        checked = 0
        for trial in range(40):
            n = random.randint(2, 7)
            letters = [chr(ord("a") + i) for i in range(n + 1)]
            expr = ",".join(
                letters[i] + letters[i + 1] for i in range(n)
            ) + f"->{letters[0]}{letters[n]}"
            sizes = {l: random.randint(2, 9) for l in letters}
            spec = parse_network(expr, sizes)
            try:
                obj = object_optimal_path(spec)
            except ContractionError:
                with pytest.raises(ContractionError):
                    optimal_path(spec)
                continue
            vec = optimal_path(spec)
            assert _path_key(vec) == _path_key(obj)
            checked += 1
        assert checked >= 20

    def test_unknown_engine_rejected(self):
        # One path DP per network size; no engine knob is accepted.
        spec = parse_network("ab,bc->ac", 4)
        with pytest.raises(TypeError, match="engine"):
            optimal_path(spec, engine="object")

    def test_tie_break_pinned(self):
        # Fully specified tie-breaking: among (flops, peak)-tied splits
        # both DPs take the numerically smallest canonical left-half
        # bitmask.  An all-equal-extent chain ties everywhere; the
        # resulting step sequence is pinned here so any future change
        # to the rule is a visible, deliberate one.
        # The smallest canonical left half of the full set is {0}, so
        # the tree splits {0} | {1,2,3} and recursion emits the right
        # subtree innermost-first.
        spec = parse_network("ab,bc,cd,de->ae", 4)
        for dp in PATH_DPS:
            path = dp(spec)
            assert [
                (s.left, s.right, s.result) for s in path.steps
            ] == [(2, 3, 4), (1, 4, 5), (0, 5, 6)]


class TestMemoryCap:
    SIZES = {"a": 16, "b": 512, "c": 8, "d": 256, "e": 16}

    def test_cap_at_peak_keeps_path(self):
        spec = parse_network("ab,bc,cd,de->ae", self.SIZES)
        base = optimal_path(spec)
        capped = optimal_path(spec, memory_cap=base.peak_intermediate)
        assert _path_key(capped) == _path_key(base)

    def test_cap_below_feasible_raises(self):
        spec = parse_network("ab,bc,cd,de->ae", self.SIZES)
        base = optimal_path(spec)
        for dp in PATH_DPS:
            with pytest.raises(ContractionError, match="memory cap"):
                dp(spec, memory_cap=base.peak_intermediate - 1)

    def test_cap_steers_to_smaller_peak_path(self):
        # The 7200-FLOP optimum contracts (ab,bc) first, peaking at
        # a*c = 100 elements; a 10296-FLOP plan contracting (bc,cd)
        # first peaks at b*d = 99.  Capping at 99 must find it,
        # identically per DP.
        sizes = {"a": 2, "b": 33, "c": 50, "d": 3}
        spec = parse_network("ab,bc,cd->ad", sizes)
        base = optimal_path(spec)
        assert base.total_flops == 7200
        assert base.peak_intermediate == 100
        capped_vec = optimal_path(spec, memory_cap=99)
        capped_obj = object_optimal_path(spec, memory_cap=99)
        assert _path_key(capped_vec) == _path_key(capped_obj)
        assert capped_vec.peak_intermediate == 99
        assert capped_vec.total_flops == 10296

    def test_capped_path_still_executes_correctly(self, gen):
        sizes = {"a": 2, "b": 33, "c": 50, "d": 3}
        spec = parse_network("ab,bc,cd->ad", sizes)
        nc = NetworkPipeline(gen, memory_cap=99).compile(spec)
        assert nc.path.peak_intermediate == 99
        rng = np.random.default_rng(5)
        ops = [
            rng.random((2, 33)), rng.random((33, 50)),
            rng.random((50, 3)),
        ]
        assert np.allclose(nc.execute(*ops), ops[0] @ ops[1] @ ops[2])


class TestDegenerateNetworks:
    def test_hyperedge_index_rejected_as_batch(self):
        # An index shared by >= 3 tensors survives every pairwise step
        # it touches, so some step sees it in all three tensors — a
        # batch dimension the binary kernel template rejects.  Both
        # DPs must agree.
        spec = parse_network("ab,ac,ad->bcd", 4)
        for dp in PATH_DPS:
            with pytest.raises(ContractionError, match="batch"):
                dp(spec)

    def test_disconnected_index_rejected(self):
        # 'c'/'d' appear once and not in the output: no valid
        # contraction structure, rejected identically by both DPs.
        spec = parse_network("ab,cd->ab", 4)
        for dp in PATH_DPS:
            with pytest.raises(ContractionError, match="exactly two"):
                dp(spec)

    def test_planned_peak_recorded_on_path(self, gen):
        spec = parse_network("ab,bc,cd->ad", 8)
        nc = NetworkPipeline(gen).compile(spec)
        assert nc.path.planned_peak_bytes is not None
        assert nc.path.planned_peak_bytes >= 0
        assert (
            nc.path.planned_peak_bytes
            == nc.memory_plan.planned_peak_bytes
        )
