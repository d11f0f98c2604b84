"""Tests for the batched-contraction extension (repro.core.batched)."""

import numpy as np
import pytest

from repro import Cogent
from repro.core.batched import (
    BatchedContraction,
    detect_batch_indices,
    generate_batched,
    parse_batched,
)
from repro.core.ir import ContractionError, TensorRef


@pytest.fixture
def batched_gemm():
    # C[m,n,b] = A[m,k,b] * B[k,n,b] — batched matmul, batch trailing.
    return parse_batched(
        "mnb-mkb-knb", {"m": 8, "n": 6, "k": 5, "b": 4}
    )


class TestDetection:
    def test_batch_index_found(self):
        assert detect_batch_indices("mnb", "mkb", "knb") == ("b",)

    def test_no_batch(self):
        assert detect_batch_indices("mn", "mk", "kn") == ()

    def test_multiple_batches(self):
        assert detect_batch_indices("mnbc", "mkbc", "knbc") == ("b", "c")


class TestValidation:
    def test_plain_contraction_rejected(self):
        with pytest.raises(ContractionError):
            parse_batched("mn-mk-kn", 4)

    def test_batch_must_be_trailing(self):
        with pytest.raises(ContractionError):
            parse_batched("bmn-mkb-knb", {"m": 4, "n": 4, "k": 4, "b": 2})

    def test_inner_contraction(self, batched_gemm):
        inner = batched_gemm.inner
        assert inner.c.indices == ("m", "n")
        assert inner.internal_indices == ("k",)

    def test_batch_count_and_flops(self, batched_gemm):
        assert batched_gemm.batch_count == 4
        assert batched_gemm.flops == 4 * 2 * 8 * 6 * 5

    def test_str(self, batched_gemm):
        assert "batch over b" in str(batched_gemm)


class TestExecution:
    def test_matches_einsum(self, batched_gemm):
        kernel = generate_batched(
            batched_gemm, generator=Cogent(arch="V100")
        )
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 5, 4))
        b = rng.standard_normal((5, 6, 4))
        got = kernel.execute(a, b)
        want = np.einsum("mkb,knb->mnb", a, b)
        assert np.allclose(got, want)

    def test_two_batch_indices(self):
        batched = parse_batched(
            "mnbc-mkbc-knbc",
            {"m": 4, "n": 3, "k": 5, "b": 2, "c": 3},
        )
        kernel = generate_batched(batched, generator=Cogent(arch="V100"))
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 5, 2, 3))
        b = rng.standard_normal((5, 3, 2, 3))
        got = kernel.execute(a, b)
        want = np.einsum("mkbc,knbc->mnbc", a, b)
        assert np.allclose(got, want)

    def test_wrong_shape_rejected(self, batched_gemm):
        kernel = generate_batched(
            batched_gemm, generator=Cogent(arch="V100")
        )
        with pytest.raises(ValueError):
            kernel.execute(np.zeros((8, 5, 5)), np.zeros((5, 6, 4)))

    def test_ttm_batched(self):
        # 4D contraction with one batch dim (tensor-times-matrix per
        # batch element).
        batched = parse_batched(
            "xyzb-xwzb-wyb",
            {"x": 6, "y": 5, "z": 4, "w": 3, "b": 2},
        )
        kernel = generate_batched(batched, generator=Cogent(arch="V100"))
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 3, 4, 2))
        b = rng.standard_normal((3, 5, 2))
        got = kernel.execute(a, b)
        want = np.einsum("xwzb,wyb->xyzb", a, b)
        assert np.allclose(got, want)


class TestPerformance:
    def test_predict_scales_with_batch(self):
        gen = Cogent(arch="V100")
        small = generate_batched(
            parse_batched("mnb-mkb-knb",
                          {"m": 256, "n": 256, "k": 256, "b": 2}),
            generator=gen,
        )
        big = generate_batched(
            parse_batched("mnb-mkb-knb",
                          {"m": 256, "n": 256, "k": 256, "b": 16}),
            generator=gen,
        )
        t_small = small.predict(gen).time_s
        t_big = big.predict(gen).time_s
        assert t_big > t_small
        assert t_big < t_small * 16  # launch overhead amortised

    def test_gflops_consistent(self, batched_gemm):
        gen = Cogent(arch="V100")
        kernel = generate_batched(batched_gemm, generator=gen)
        sim = kernel.predict(gen)
        assert sim.gflops == pytest.approx(
            batched_gemm.flops / sim.time_s / 1e9
        )


class TestEmission:
    def test_driver_contains_pointer_offsets(self, batched_gemm):
        kernel = generate_batched(
            batched_gemm, generator=Cogent(arch="V100")
        )
        src = kernel.batched_driver_source()
        assert "slice_C" in src and "slice_A" in src
        assert "for (long batch" in src
        assert src.count("{") == src.count("}")


class TestParseRetry:
    """Batched expressions fail the plain parser with a
    ``ContractionError`` and are retried as batched; any other error
    from ``parse`` propagates."""

    @staticmethod
    def cli_args(expr):
        import argparse

        return argparse.Namespace(expr=expr, sizes="4")

    @staticmethod
    def broken_parse(*args, **kwargs):
        raise RuntimeError("parser bug")

    def test_cli_retries_batched(self):
        from repro.cli import _resolve_contraction

        got = _resolve_contraction(
            self.cli_args("qkh-qdh-kdh"), allow_batched=True
        )
        assert isinstance(got, BatchedContraction)

    def test_cli_propagates_other_errors(self, monkeypatch):
        from repro import cli

        monkeypatch.setattr(cli, "parse", self.broken_parse)
        with pytest.raises(RuntimeError, match="parser bug"):
            cli._resolve_contraction(
                self.cli_args("qkh-qdh-kdh"), allow_batched=True
            )

    def test_select_strategy_retries_batched(self):
        choice = Cogent().select_strategy("qkh-qdh-kdh", 4)
        assert choice.selected

    def test_select_strategy_propagates_other_errors(self, monkeypatch):
        from repro.core import parser

        monkeypatch.setattr(parser, "parse", self.broken_parse)
        with pytest.raises(RuntimeError, match="parser bug"):
            Cogent().select_strategy("qkh-qdh-kdh", 4)
