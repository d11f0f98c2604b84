"""The native tier behind ``GeneratedKernel.execute``.

A kernel's first execute runs the numpy tile interpreter; every later
one runs the kernel's OpenMP build in-process.  Both tiers must equal
``numpy.einsum`` byte for byte on integer-valued operands, through
every merge/split rewrite, agree to rounding on real-valued ones, and
the interpreter stays the counted fallback whenever native code cannot
run the call.
"""

from __future__ import annotations

import pickle
import subprocess
from dataclasses import replace

import numpy as np
import pytest

from repro import Cogent, obs
from repro.apps.ccsdt import triples_terms
from repro.core.batched import generate_batched
from repro.core.cache import KernelCache, contract
from repro.core.codegen import chost
from repro.core.library import _rebind_kernel
from repro.core.parser import parse
from repro.core.plan import KernelPlan
from repro.core.program import CompilationSession
from repro.gpu.executor import integer_operands, random_operands

from .conftest import requires_cc

pytestmark = requires_cc


@pytest.fixture
def fresh_tier(monkeypatch):
    """A process state in which no source has been built."""
    monkeypatch.setattr(chost, "_LIBRARIES", {})
    monkeypatch.setattr(chost, "_FAILURES", {})
    monkeypatch.setattr(chost, "_MISSING_CC", set())


def einsum(contraction, a, b):
    return np.einsum(contraction.einsum_spec(), a, b)


def counted(fn, *args):
    """``fn(*args)`` and the execute counters it moved."""
    with obs.tracing() as session:
        out = fn(*args)
    counters = {
        name: session.metrics.counter(f"execute.{name}")
        for name in ("native_calls", "interpreter_calls",
                     "interpreter_fallbacks")
    }
    return out, {name: n for name, n in counters.items() if n}


INTERPRETED = {"interpreter_calls": 1}
NATIVE = {"native_calls": 1}


def assert_tiers_exact(kernel, contraction, a, b):
    """Call 1 interprets, call 2 runs natively; both equal einsum."""
    want = einsum(contraction, a, b)
    for tier in (INTERPRETED, NATIVE):
        got, moved = counted(kernel.execute, a, b)
        assert moved == tier
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def triples_kernels():
    contractions = [parse(t.expr, 3) for t in triples_terms()]
    program = CompilationSession(Cogent()).compile(
        contractions, kernel_names=[t.name for t in triples_terms()]
    )
    return list(zip(contractions, program.kernels))


def test_triples_terms_exact_on_both_tiers(triples_kernels, fresh_tier):
    for seed, (contraction, kernel) in enumerate(triples_kernels):
        a, b = integer_operands(contraction, seed=seed)
        assert_tiers_exact(kernel, contraction, a, b)


def test_split_kernel(fresh_tier):
    c = parse("ab-ak-kb", 24)
    kernel = Cogent().generate(c)
    assert kernel.split_specs
    assert_tiers_exact(kernel, c, *integer_operands(c, seed=1))


def test_merge_kernel(fresh_tier):
    c = parse("abcd-abef-efcd",
              {"a": 4, "b": 5, "c": 3, "d": 4, "e": 2, "f": 3})
    kernel = Cogent(allow_merge=True).generate(c)
    assert kernel.merge_specs
    assert_tiers_exact(kernel, c, *integer_operands(c, seed=2))


def test_float32_kernel(fresh_tier):
    c = parse("abc-acd-db", {"a": 9, "b": 7, "c": 5, "d": 6})
    kernel = Cogent(dtype_bytes=4).generate(c)
    a, b = integer_operands(c, seed=3, dtype=np.float32)
    assert_tiers_exact(kernel, c, a, b)


def test_non_contiguous_views(fresh_tier):
    c = parse("abc-acd-db", {"a": 9, "b": 7, "c": 5, "d": 6})
    kernel = Cogent().generate(c)
    rng = np.random.default_rng(4)
    big_a = rng.integers(-4, 5, size=(18, 7, 5)).astype(np.float64)
    big_b = rng.integers(-4, 5, size=(7, 6)).astype(np.float64)
    a = big_a[::2, 1:, :].transpose(0, 2, 1)
    b = big_b.T
    assert not a.flags.c_contiguous and not a.flags.f_contiguous
    assert_tiers_exact(kernel, c, a, b)


def test_integer_operands_fall_back_and_keep_dtype(fresh_tier):
    c = parse("ab-ak-kb", {"a": 6, "b": 5, "k": 7})
    kernel = Cogent().generate(c)
    a, b = integer_operands(c, seed=5, dtype=np.int64)
    for _ in range(2):
        got, moved = counted(kernel.execute, a, b)
        assert moved == {"interpreter_fallbacks": 1}
        assert got.dtype == np.int64
        assert np.array_equal(got, a @ b)


def test_real_operands_agree_across_tiers(fresh_tier):
    # The interpreter adds each step tile's einsum to C, the native
    # kernel sums the k loop element by element, so the two may round
    # differently, but each only within the usual bound on a sum of
    # n_k products: n_k * eps * sum |a * b| per element.
    c = parse("abcd-aebf-dfce", 6)
    kernel = Cogent().generate(c)
    a, b = random_operands(c, seed=11)
    n_k = np.prod([c.extent(i) for i in c.internal_indices])
    bound = n_k * np.finfo(np.float64).eps * einsum(c, abs(a), abs(b))
    want = einsum(c, a, b)
    first, moved = counted(kernel.execute, a, b)
    assert moved == INTERPRETED
    second, moved = counted(kernel.execute, a, b)
    assert moved == NATIVE
    assert np.all(abs(first - want) <= bound)
    assert np.all(abs(second - want) <= bound)
    assert np.all(abs(second - first) <= bound)


def test_batched_first_call_interprets_every_slice(fresh_tier):
    kernel = generate_batched(
        "mnb-mkb-knb", {"m": 6, "n": 5, "k": 4, "b": 3}
    )
    contraction = kernel.batched
    rng = np.random.default_rng(12)
    a = rng.integers(-4, 5, size=(6, 4, 3)).astype(np.float64)
    b = rng.integers(-4, 5, size=(4, 5, 3)).astype(np.float64)
    want = np.einsum("mkb,knb->mnb", a, b)
    for tier, builds in ((INTERPRETED, 0), (NATIVE, 1)):
        with obs.tracing() as session:
            got = kernel.execute(a, b)
        assert session.metrics.counter("chost.builds") == builds
        moved = {
            name: session.metrics.counter(f"execute.{name}")
            for name in ("native_calls", "interpreter_calls")
        }
        assert {k: v for k, v in moved.items() if v} == {
            k: v * contraction.sizes["b"] for k, v in tier.items()
        }
        assert got.tobytes() == want.tobytes()


def test_neighbouring_extent_rebind_runs_natively(fresh_tier):
    # The memo generates one kernel at 16 and one at 20; both stage with
    # vector width 2, so the two kernels share one program.
    cache = KernelCache(Cogent(allow_split=False))
    rng = np.random.default_rng(6)
    a = rng.integers(-4, 5, size=(20, 20)).astype(np.float64)
    b = rng.integers(-4, 5, size=(20, 20)).astype(np.float64)
    small = (a[:16, :16], b[:16, :16])
    for operands, tier, builds in (
        (small, INTERPRETED, 0),
        ((a, b), INTERPRETED, 0),
        ((a, b), NATIVE, 1),
        (small, NATIVE, 0),
    ):
        with obs.tracing() as session:
            got = contract("ab-ak-kb", *operands, cache=cache)
        assert session.metrics.counter("chost.builds") == builds
        moved = {
            name: session.metrics.counter(f"execute.{name}")
            for name in ("native_calls", "interpreter_calls")
        }
        assert {k: v for k, v in moved.items() if v} == tier
        assert got.tobytes() == (operands[0] @ operands[1]).tobytes()
    # Each kernel is memoized: the 16 and 20 kernels bound one library
    # between them.
    assert session.metrics.counter("chost.build_hits") == 1


def test_missing_compiler_falls_back_without_retrying(
    fresh_tier, monkeypatch, tmp_path
):
    monkeypatch.setenv("PATH", str(tmp_path))
    spawned = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        spawned.append(args[0])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(chost.subprocess, "run", counting_run)
    c = parse("ab-ak-kb", {"a": 6, "b": 5, "k": 7})
    kernel = Cogent().generate(c)
    a, b = integer_operands(c, seed=7)
    _, moved = counted(kernel.execute, a, b)
    assert moved == INTERPRETED
    got, moved = counted(kernel.execute, a, b)
    assert moved == {"interpreter_fallbacks": 1}
    assert len(spawned) == 1
    assert got.tobytes() == (a @ b).tobytes()
    # Neither this kernel nor another source tries the compiler again.
    other = Cogent().generate(parse("ab-ak-kb", {"a": 9, "b": 5, "k": 7}))
    x, y = integer_operands(other.contraction, seed=8)
    kernel.execute(a, b)
    other.execute(x, y)
    other.execute(x, y)
    assert len(spawned) == 1


def test_pickle_and_replace_carry_no_library(fresh_tier):
    c = parse("ab-ak-kb", {"a": 6, "b": 5, "k": 7})
    kernel = Cogent(allow_split=False).generate(c)
    a, b = integer_operands(c, seed=9)
    want = kernel.execute(a, b)
    kernel.execute(a, b)
    assert kernel._native is not None
    clone = pickle.loads(pickle.dumps(kernel))
    assert clone._native is None
    got, moved = counted(clone.execute, a, b)
    assert moved == NATIVE
    assert got.tobytes() == want.tobytes()
    plan = KernelPlan(c, kernel.config, kernel.plan.dtype_bytes)
    replaced = replace(kernel, plan=plan)
    assert replaced._native is None and not replaced._warm
    rebound = _rebind_kernel(kernel, parse("ab-ak-kb", {"a": 7, "b": 5,
                                                        "k": 7}))
    assert rebound._native is None and not rebound._warm


def test_interpret_never_builds(fresh_tier):
    c = parse("ab-ak-kb", {"a": 6, "b": 5, "k": 7})
    kernel = Cogent().generate(c)
    a, b = integer_operands(c, seed=10)
    with obs.tracing() as session:
        for _ in range(3):
            got = kernel.interpret(a, b)
    assert session.metrics.counter("chost.builds") == 0
    assert not session.metrics.counter("execute.native_calls")
    assert got.flags.c_contiguous
    assert got.tobytes() == (a @ b).tobytes()
