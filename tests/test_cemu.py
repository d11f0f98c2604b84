"""End-to-end tests of the C-emulation backend: the emitted C program is
compiled with the system compiler, executed on real data, and compared
against numpy.einsum.  This validates the *generated source text* —
index arithmetic, staging layout, bounds handling — not just the plan
semantics."""

import numpy as np
import pytest

from repro.core.codegen import get_target
from repro.core.codegen.cemu import EmulationError, compile_and_run
from repro.core.mapping import config_from_spec
from repro.core.parser import parse
from repro.core.plan import KernelPlan
from repro.gpu.executor import random_operands, reference_contract

from .conftest import requires_cc


def generate_c_emulation(plan, kernel_name="tc_kernel_emu"):
    return get_target("cemu").emit_kernel(plan, kernel_name[:-len("_emu")])


def make_plan(c, dtype_bytes=8, **spec):
    return KernelPlan(c, config_from_spec(c, **spec), dtype_bytes)


def check(plan, seed=0, rtol=1e-10):
    c = plan.contraction
    dtype = np.float64 if plan.dtype_bytes == 8 else np.float32
    if plan.dtype_bytes == 4:
        rtol = 1e-4
    a, b = random_operands(c, dtype, seed)
    got = compile_and_run(plan, a, b)
    want = reference_contract(c, a, b)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=rtol, atol=rtol)


class TestSourceShape:
    def test_contains_main_and_kernel(self, eq1_small):
        plan = make_plan(eq1_small, tb_x=[("a", 4)], tb_k=[("e", 2)])
        src = generate_c_emulation(plan)
        assert "int main(" in src
        assert "\nint tc_kernel_emu(" in src
        assert src.count("{") == src.count("}")

    def test_no_cuda_constructs(self, eq1_small):
        plan = make_plan(eq1_small, tb_x=[("a", 4)])
        src = generate_c_emulation(plan)
        assert "__global__" not in src
        assert "__shared__" not in src
        assert "__syncthreads" not in src


@requires_cc
class TestCompileAndRun:
    def test_matmul(self):
        c = parse("ab-ak-kb", {"a": 8, "b": 8, "k": 8})
        check(make_plan(
            c, tb_x=[("a", 4)], tb_y=[("b", 4)], tb_k=[("k", 4)]
        ))

    def test_matmul_partial_tiles(self):
        c = parse("ab-ak-kb", {"a": 7, "b": 9, "k": 5})
        check(make_plan(
            c, tb_x=[("a", 4)], tb_y=[("b", 4)], tb_k=[("k", 4)]
        ))

    def test_eq1_register_tiles(self, eq1_small):
        check(make_plan(
            eq1_small,
            tb_x=[("a", 4)], tb_y=[("d", 2)],
            reg_x=[("b", 2)], reg_y=[("c", 3)],
            tb_k=[("e", 2), ("f", 2)],
        ))

    def test_eq1_multi_index_tb(self, eq1_small):
        check(make_plan(
            eq1_small,
            tb_x=[("a", 4), ("b", 2)], tb_y=[("d", 2), ("c", 2)],
            tb_k=[("f", 3), ("e", 2)],
        ))

    def test_grid_heavy_mapping(self, eq1_small):
        check(make_plan(
            eq1_small, tb_x=[("a", 4)], tb_k=[("e", 3)],
        ))

    def test_single_precision(self):
        c = parse("ab-ak-kb", {"a": 8, "b": 8, "k": 8})
        check(make_plan(
            c, 4, tb_x=[("a", 8)], tb_y=[("b", 4)], tb_k=[("k", 4)]
        ))

    def test_ccsdt_shape(self):
        c = parse("abcdef-gdab-efgc", 4)
        check(make_plan(
            c,
            tb_x=[("a", 4)], tb_y=[("e", 4)],
            reg_x=[("b", 2)], reg_y=[("c", 2)],
            tb_k=[("g", 2)],
        ))

    def test_outer_product(self):
        c = parse("ab-a-b", {"a": 5, "b": 6})
        check(make_plan(c, tb_x=[("a", 3)], tb_y=[("b", 2)]))

    def test_ttm(self):
        c = parse("abc-adc-bd", {"a": 6, "b": 5, "c": 4, "d": 7})
        check(make_plan(
            c, tb_x=[("a", 4)], tb_y=[("b", 4)], tb_k=[("d", 3)]
        ))

    def test_bad_compiler_raises(self, eq1_small):
        plan = make_plan(eq1_small, tb_x=[("a", 4)])
        a, b = random_operands(eq1_small)
        with pytest.raises((EmulationError, FileNotFoundError)):
            compile_and_run(plan, a, b, cc="definitely-not-a-compiler")
