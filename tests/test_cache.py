"""Tests for kernel caching and the contract() API (repro.core.cache)."""

import numpy as np
import pytest

from repro import Cogent, obs, parse
from repro.core.cache import KernelCache, contract


@pytest.fixture
def cache():
    return KernelCache(Cogent(arch="V100", top_k=4))


class TestKernelCache:
    def test_miss_then_hit(self, cache):
        c = parse("ab-ak-kb", 64)
        k1 = cache.get(c)
        k2 = cache.get(c)
        assert k1 is k2
        assert cache.hits == 1 and cache.misses == 1

    def test_len(self, cache):
        cache.get(parse("ab-ak-kb", 64))
        cache.get(parse("ab-ak-kb", 256))
        assert len(cache) == 2


class TestContract:
    def test_matmul(self):
        a = np.random.default_rng(0).random((12, 7))
        b = np.random.default_rng(1).random((7, 9))
        assert np.allclose(contract("ab-ak-kb", a, b), a @ b)

    def test_einsum_syntax(self):
        rng = np.random.default_rng(2)
        a = rng.random((4, 3, 5))
        b = rng.random((3, 6))
        got = contract("adc,db->abc", a, b)
        assert np.allclose(got, np.einsum("adc,db->abc", a, b))

    def test_eq1(self, cache):
        rng = np.random.default_rng(3)
        a = rng.random((6, 3, 5, 4))
        b = rng.random((7, 4, 6, 3))
        got = contract("abcd-aebf-dfce", a, b, cache=cache)
        want = np.einsum("aebf,dfce->abcd", a, b)
        assert np.allclose(got, want)

    def test_bucket_reuse_still_correct(self, cache):
        rng = np.random.default_rng(4)
        for m, n, k in ((17, 15, 6), (15, 18, 7), (14, 16, 7)):
            a = rng.random((m, k))
            b = rng.random((k, n))
            assert np.allclose(
                contract("ab-ak-kb", a, b, cache=cache), a @ b
            )
        # Extents are memoized exactly: three shapes, three kernels.
        assert cache.misses == 3
        assert cache.hits == 0

    def test_warm_call_parses_once(self, cache):
        rng = np.random.default_rng(8)
        a, b = rng.random((9, 6)), rng.random((6, 7))
        first = contract("ab-ak-kb", a, b, cache=cache)
        c = parse("ab-ak-kb", {"a": 9, "b": 7, "k": 6})
        kernel = cache.lookup(c)
        assert kernel is not None
        with obs.tracing() as session:
            again = contract("ab-ak-kb", a, b, cache=cache)
        counter = session.metrics.counter
        assert counter("parse.expressions") == 1
        assert counter("generate.contractions") == 0
        # The first call's kernel ran again: a fresh kernel object's
        # first call would have been interpreted.
        assert counter("execute.interpreter_calls") == 0
        assert cache.lookup(c) is kernel
        assert np.allclose(first, a @ b) and np.allclose(again, a @ b)

    def test_single_precision(self, cache):
        rng = np.random.default_rng(5)
        a = rng.random((10, 6), dtype=np.float32)
        b = rng.random((6, 8), dtype=np.float32)
        got = contract("ab-ak-kb", a, b)
        assert np.allclose(got, a @ b, rtol=1e-4)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            contract("ab-ak-kb", np.zeros((4, 4, 4)), np.zeros((4, 4)))

    def test_inconsistent_extent_rejected(self):
        with pytest.raises(ValueError):
            contract("ab-ak-kb", np.zeros((4, 5)), np.zeros((6, 4)))


class TestBatchCacheApi:
    def test_lookup_does_not_generate(self, cache):
        c = parse("ab-ak-kb", 64)
        assert cache.lookup(c) is None
        assert cache.misses == 1
        assert len(cache) == 0


class TestEvalCache:
    """Evaluation cells live in the one :class:`KernelStore`."""

    def test_put_then_lookup_roundtrip(self, tmp_path):
        from repro.core.program import STORE_VERSION, KernelStore

        store = KernelStore(tmp_path / "store")
        payload = {"gflops": 123.4, "framework": "cogent"}
        store.put("abc123", payload)
        assert store.lookup("abc123", ("gflops", "framework")) == {
            **payload, "store_version": STORE_VERSION,
        }
        assert store.hits == 1 and store.misses == 0
        assert len(store) == 1

    def test_missing_key_misses(self, tmp_path):
        from repro.core.program import KernelStore

        store = KernelStore(tmp_path / "store")
        assert store.lookup("nothere", ()) is None
        assert store.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        from repro.core.program import KernelStore

        store = KernelStore(tmp_path / "store")
        (store.directory / "bad0.json").write_text("{not json")
        assert store.lookup("bad0", ()) is None
        assert store.misses == 1

    def test_persists_across_instances(self, tmp_path):
        from repro.core.program import KernelStore

        KernelStore(tmp_path / "store").put("k", {"v": 1})
        assert KernelStore(tmp_path / "store").lookup("k", ("v",))["v"] == 1


class TestEvalCacheKey:
    SIZES = {"a": 32, "b": 32, "k": 64}

    def _key(self, **overrides):
        from repro.core.program import eval_cache_key

        base = dict(
            expr="ab-ak-kb", sizes=self.SIZES, arch_name="V100",
            dtype_bytes=8, framework="cogent",
            params={"tc_seed": 0},
        )
        base.update(overrides)
        return eval_cache_key(**base)

    def test_deterministic(self):
        assert self._key() == self._key()

    def test_sensitive_to_every_component(self):
        base = self._key()
        assert self._key(expr="ab-kb-ak") != base
        assert self._key(sizes={"a": 32, "b": 32, "k": 65}) != base
        assert self._key(arch_name="P100") != base
        assert self._key(dtype_bytes=4) != base
        assert self._key(framework="talsh") != base
        assert self._key(params={"tc_seed": 1}) != base

    def test_sensitive_to_code_stamp(self, monkeypatch):
        from repro.core import program

        base = self._key()
        monkeypatch.setattr(program, "_CODE_STAMP", "f" * 16)
        assert self._key() != base

    def test_extents_not_bucketed(self):
        # Unlike cache_key, nearby sizes must NOT share evaluations.
        assert self._key(sizes={"a": 32, "b": 32, "k": 63}) != \
            self._key(sizes={"a": 32, "b": 32, "k": 64})
