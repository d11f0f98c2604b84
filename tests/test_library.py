"""Tests for multi-size kernel libraries (repro.core.library)."""

import numpy as np
import pytest

from repro import Cogent, obs, parse
from repro.core.codegen import chost
from repro.core.library import KernelLibrary, clamp_config
from repro.core.mapping import config_from_spec
from repro.gpu.executor import (
    integer_operands,
    random_operands,
    reference_contract,
)

from .conftest import requires_cc


@pytest.fixture(scope="module")
def library():
    return KernelLibrary(
        "abcd-aebf-dfce", [16, 48],
        generator=Cogent(arch="V100", top_k=8),
    )


class TestBuild:
    def test_one_entry_per_size(self, library):
        assert len(library) == 2

    def test_distinct_kernel_names(self, library):
        names = {e.kernel.kernel_name for e in library.entries}
        assert names == {"tc_kernel_v0", "tc_kernel_v1"}

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            KernelLibrary("ab-ak-kb", [])

    def test_mixed_size_specs(self):
        lib = KernelLibrary(
            "ab-ak-kb",
            [{"a": 64, "b": 64, "k": 64}, 256],
            generator=Cogent(arch="V100", top_k=4),
        )
        assert lib.entries[0].sizes["a"] == 64
        assert lib.entries[1].sizes["a"] == 256


class TestSelect:
    def test_nearest_by_log_distance(self, library):
        assert library.select(16).sizes["a"] == 16
        assert library.select(48).sizes["a"] == 48
        assert library.select(20).sizes["a"] == 16
        assert library.select(40).sizes["a"] == 48

    def test_per_index_sizes(self, library):
        mixed = {"a": 48, "b": 48, "c": 48, "d": 48, "e": 16, "f": 16}
        entry = library.select(mixed)
        assert entry.sizes["a"] == 48


class TestDispatch:
    def test_sizes_from_operands(self, library):
        c = parse("abcd-aebf-dfce",
                  {"a": 5, "b": 4, "c": 3, "d": 6, "e": 2, "f": 3})
        a, b = random_operands(c)
        sizes = library.sizes_from_operands(a, b)
        assert sizes == c.sizes

    def test_inconsistent_shapes_rejected(self, library):
        a = np.zeros((5, 2, 4, 3))
        b = np.zeros((6, 9, 3, 2))  # f extent disagrees (3 vs 9)
        with pytest.raises(ValueError):
            library.sizes_from_operands(a, b)

    def test_wrong_rank_rejected(self, library):
        with pytest.raises(ValueError):
            library.sizes_from_operands(np.zeros((5, 2)), np.zeros((2,) * 4))

    def test_dispatch_matches_einsum_near_small(self, library):
        c = parse("abcd-aebf-dfce",
                  {"a": 10, "b": 9, "c": 8, "d": 11, "e": 5, "f": 6})
        a, b = random_operands(c, seed=2)
        got = library.dispatch(a, b)
        assert np.allclose(got, reference_contract(c, a, b))

    def test_dispatch_matches_einsum_near_large(self, library):
        c = parse("abcd-aebf-dfce",
                  {"a": 40, "b": 13, "c": 11, "d": 37, "e": 7, "f": 9})
        a, b = random_operands(c, seed=3)
        got = library.dispatch(a, b)
        assert np.allclose(got, reference_contract(c, a, b))

    def test_dispatch_with_tiny_actual_sizes_clamps_tiles(self, library):
        c = parse("abcd-aebf-dfce", 3)
        a, b = random_operands(c, seed=4)
        got = library.dispatch(a, b)
        assert np.allclose(got, reference_contract(c, a, b))

    def test_rebind_fallback_regenerates_and_counts(self):
        # The version tuned at 24 splits 'a' by 4; at 23 that split no
        # longer applies, so the kernel is generated at 23, once.
        lib = KernelLibrary("ab-ak-kb", [24], Cogent(top_k=4))
        assert lib.entries[0].kernel.split_specs
        rng = np.random.default_rng(6)
        a = rng.random((24, 24))
        b = rng.random((24, 24))
        with obs.tracing() as session:
            for _ in range(2):
                got = lib.dispatch(a[:23], b)
                assert np.allclose(got, a[:23] @ b)
        assert session.metrics.counter("library.rebind_fallbacks") == 1
        assert session.metrics.counter("generate.contractions") == 1

    def test_rebind_bug_propagates(self, monkeypatch):
        from repro.core import library as library_mod

        def broken(kernel, contraction, *args, **kwargs):
            raise TypeError("bug in rebind")

        lib = KernelLibrary("ab-ak-kb", [16], Cogent(top_k=4))
        monkeypatch.setattr(library_mod, "_rebind_kernel", broken)
        rng = np.random.default_rng(7)
        with pytest.raises(TypeError, match="bug in rebind"):
            lib.dispatch(rng.random((17, 8)), rng.random((8, 16)))


@requires_cc
def test_dispatch_memoizes_rebinds_and_runs_natively(monkeypatch):
    monkeypatch.setattr(chost, "_LIBRARIES", {})
    lib = KernelLibrary(
        "ab-ak-kb", [32], generator=Cogent(top_k=4, allow_split=False)
    )
    builds = 0
    # Even extents above every tile: one structure at all three sizes.
    for extent in (32, 34, 36):
        c = parse("ab-ak-kb", extent)
        a, b = integer_operands(c, seed=extent)
        want = reference_contract(c, a, b).tobytes()
        for native_calls in (0, 1):
            with obs.tracing() as session:
                got = lib.dispatch(a, b)
            counters = session.metrics
            assert counters.counter("execute.native_calls") == native_calls
            builds += counters.counter("chost.builds")
            assert got.tobytes() == want
    assert builds == 1


@requires_cc
@pytest.mark.parametrize("sizes", [
    {"a": 8, "b": 4, "c": 16, "k": 8},  # merged extents swapped
    {"a": 2, "b": 8, "c": 16, "k": 8},  # merged low extent shrunk
])
def test_dispatch_replays_merge_at_actual_sizes(sizes):
    # The version merges a and b at a=4, b=8; a dispatch at other
    # extents must re-merge at those extents, not split the output by
    # the representative's stale low extent.
    lib = KernelLibrary(
        "abc-abk-kc", [{"a": 4, "b": 8, "c": 16, "k": 8}],
        generator=Cogent(top_k=2, allow_merge=True, allow_split=False),
    )
    assert lib.entries[0].kernel.merge_specs
    c = parse("abc-abk-kc", sizes)
    a, b = integer_operands(c, seed=1)
    want = reference_contract(c, a, b)
    for native_calls in (0, 1):
        with obs.tracing() as session:
            got = lib.dispatch(a, b)
        assert session.metrics.counter("execute.native_calls") \
            == native_calls
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestClampConfig:
    def test_tiles_clamped_to_extents(self):
        c = parse("ab-ak-kb", {"a": 4, "b": 4, "k": 4})
        big = parse("ab-ak-kb", {"a": 64, "b": 64, "k": 64})
        cfg = config_from_spec(
            big, tb_x=[("a", 16)], tb_y=[("b", 16)], tb_k=[("k", 16)]
        )
        clamped = clamp_config(cfg, c)
        clamped.validate_for(c)
        assert clamped.tile("a") == 4


class TestEmission:
    def test_library_source_contains_every_version(self, library):
        src = library.cuda_library_source()
        assert src.count("__global__") == 2
        assert "tc_kernel_v0" in src and "tc_kernel_v1" in src

    def test_dispatcher_present_and_balanced(self, library):
        src = library.cuda_library_source()
        assert "select_version(" in src
        assert src.count("{") == src.count("}")
