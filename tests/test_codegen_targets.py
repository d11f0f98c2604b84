"""Tests for the pluggable codegen target registry.

Covers the registry contract, golden-file snapshots of every registered
target, differential execution of every runnable target against
``numpy.einsum`` (and pairwise), the in-process build/run harness of the
runnable targets, the deprecation shims over the legacy per-backend
API, per-target caching/store-key behaviour, and the
``codegen.target.*`` observability counters.
"""

import itertools
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

from repro import Cogent, obs
from repro.core.codegen import (
    CodegenTarget,
    TargetCapabilityError,
    get_target,
    list_targets,
    register_target,
    runnable_targets,
)
from repro.core.codegen import chost, openmp
from repro.core.codegen import registry as registry_mod
from repro.core.codegen.chost import EmulationError, OperandShapeError
from repro.core.mapping import config_from_spec
from repro.core.parser import parse
from repro.core.plan import KernelPlan
from repro.gpu.executor import integer_operands, reference_contract

from .conftest import requires_cc
from .golden_cases import GOLDEN_CASES, golden_plan

BUILTIN_TARGETS = ("cemu", "clemu", "cuda", "opencl", "openmp")


@pytest.fixture
def plan(eq1_small):
    cfg = config_from_spec(
        eq1_small,
        tb_x=[("a", 4)], tb_y=[("d", 2)],
        reg_x=[("b", 2)], reg_y=[("c", 3)],
        tb_k=[("e", 2), ("f", 2)],
    )
    return KernelPlan(eq1_small, cfg)


class TestRegistryContract:
    def test_builtins_registered(self):
        names = list_targets()
        assert len(names) >= 5
        for name in BUILTIN_TARGETS:
            assert name in names

    def test_list_targets_sorted(self):
        names = list_targets()
        assert names == sorted(names)

    def test_runnable_subset(self):
        runnable = runnable_targets()
        assert set(runnable) <= set(list_targets())
        for name in ("cemu", "clemu", "openmp"):
            assert name in runnable
        assert "cuda" not in runnable
        assert "opencl" not in runnable

    def test_unknown_target_error_lists_registered(self):
        with pytest.raises(ValueError) as exc:
            get_target("fortran")
        msg = str(exc.value)
        assert "fortran" in msg
        for name in BUILTIN_TARGETS:
            assert name in msg

    def test_get_target_returns_singleton(self):
        assert get_target("cuda") is get_target("cuda")

    def test_target_names_match_keys(self):
        for name in list_targets():
            assert get_target(name).name == name

    def test_register_custom_target(self):
        @register_target
        class EchoTarget(CodegenTarget):
            name = "echo-test"
            source_suffix = ".txt"

            def emit_kernel(self, plan, kernel_name="tc_kernel"):
                return f"echo {kernel_name}"

        try:
            assert "echo-test" in list_targets()
            assert get_target("echo-test").emit_kernel(None) == \
                "echo tc_kernel"
        finally:
            del registry_mod._REGISTRY["echo-test"]
        assert "echo-test" not in list_targets()

    def test_register_rejects_missing_name(self):
        with pytest.raises(ValueError):
            @register_target
            class Nameless(CodegenTarget):
                def emit_kernel(self, plan, kernel_name="tc_kernel"):
                    return ""

    def test_non_executable_target_cannot_run(self, plan):
        with pytest.raises(TargetCapabilityError) as exc:
            get_target("cuda").compile_and_run(plan, None, None)
        msg = str(exc.value)
        assert "cuda" in msg
        for name in runnable_targets():
            assert name in msg

    def test_emulation_targets_have_no_driver(self, plan):
        for name in ("cemu", "clemu", "openmp"):
            with pytest.raises(TargetCapabilityError):
                get_target(name).emit_driver(plan)

    def test_cuda_has_driver_and_launch(self, plan):
        target = get_target("cuda")
        assert "int main(" in target.emit_driver(plan)
        assert "<<<" in target.launch_snippet(plan)

    def test_opencl_driver_is_harness(self, plan):
        assert "pthread_barrier_wait" in get_target("opencl").emit_driver(plan)


class TestGoldens:
    @pytest.mark.parametrize(
        "case,target_name",
        list(itertools.product(GOLDEN_CASES, BUILTIN_TARGETS)),
    )
    def test_emitted_source_matches_golden(
        self, case, target_name, goldens_dir
    ):
        target = get_target(target_name)
        path = goldens_dir / f"{case}__{target_name}{target.source_suffix}"
        assert path.is_file(), (
            f"missing golden {path.name}; regenerate with "
            "PYTHONPATH=src python tools/update_goldens.py"
        )
        got = target.emit_kernel(golden_plan(case))
        assert got == path.read_text(), (
            f"{target_name} emission drifted from {path.name}; if the "
            "change is intentional rerun tools/update_goldens.py"
        )

    @pytest.fixture(scope="class")
    def goldens_dir(self):
        from pathlib import Path

        return Path(__file__).resolve().parent / "goldens"


@requires_cc
class TestDifferentialExecution:
    """Every runnable target must reproduce numpy.einsum bit-for-bit on
    integer-valued operands (any summation order is exact)."""

    SLICE = (
        ("abcd-aebf-dfce",
         {"a": 7, "b": 5, "c": 6, "d": 4, "e": 3, "f": 5},
         dict(tb_x=[("a", 4)], tb_y=[("d", 2)],
              reg_x=[("b", 2)], reg_y=[("c", 3)],
              tb_k=[("e", 2), ("f", 2)])),
        ("ab-ak-kb",
         {"a": 9, "b": 7, "k": 5},
         dict(tb_x=[("a", 4)], tb_y=[("b", 4)], tb_k=[("k", 4)])),
        ("abc-adc-bd",
         {"a": 6, "b": 5, "c": 4, "d": 7},
         dict(tb_x=[("a", 4)], tb_y=[("b", 4)], tb_k=[("d", 3)])),
        # The output FVI is in B: B is staged into the x-side buffer.
        ("abcdef-gfec-abdg",
         {"a": 5, "b": 3, "c": 4, "d": 3, "e": 3, "f": 4, "g": 5},
         dict(tb_x=[("a", 4)], tb_y=[("f", 2)],
              reg_x=[("b", 2)], reg_y=[("c", 2)],
              tb_k=[("g", 3)])),
    )

    @pytest.fixture(scope="class", params=range(len(SLICE)))
    def case_results(self, request):
        expr, sizes, spec = self.SLICE[request.param]
        c = parse(expr, sizes)
        p = KernelPlan(c, config_from_spec(c, **spec))
        a, b = integer_operands(c, seed=request.param)
        want = reference_contract(c, a, b)
        got = {
            name: get_target(name).compile_and_run(p, a, b)
            for name in runnable_targets()
        }
        return want, got

    def test_bit_exact_vs_einsum(self, case_results):
        want, got = case_results
        for name, out in got.items():
            assert out.tobytes() == want.tobytes(), \
                f"{name} diverged from numpy.einsum"

    def test_targets_agree_pairwise(self, case_results):
        _, got = case_results
        for x, y in itertools.combinations(sorted(got), 2):
            assert got[x].tobytes() == got[y].tobytes(), \
                f"{x} and {y} disagree"


class TestDeprecatedShims:
    """Legacy entry points still work, warn, and emit byte-identical
    source to the registry path."""

    def test_generate_cuda_kernel(self, plan):
        from repro.core.codegen.cuda import generate_cuda_kernel

        with pytest.warns(DeprecationWarning, match="generate_cuda_kernel"):
            old = generate_cuda_kernel(plan)
        assert old == get_target("cuda").emit_kernel(plan)

    def test_generate_cuda_driver(self, plan):
        from repro.core.codegen.driver import generate_cuda_driver

        with pytest.warns(DeprecationWarning, match="generate_cuda_driver"):
            old = generate_cuda_driver(plan)
        assert old == get_target("cuda").emit_driver(plan)

    def test_generate_opencl_kernel(self, plan):
        from repro.core.codegen.opencl import generate_opencl_kernel

        with pytest.warns(DeprecationWarning,
                          match="generate_opencl_kernel"):
            old = generate_opencl_kernel(plan)
        assert old == get_target("opencl").emit_kernel(plan)

    def test_generate_c_emulation(self, plan):
        from repro.core.codegen.cemu import generate_c_emulation

        with pytest.warns(DeprecationWarning, match="generate_c_emulation"):
            old = generate_c_emulation(plan)
        assert old == get_target("cemu").emit_kernel(plan)

    def test_package_getattr_forwards_lazily(self, plan):
        import repro.core.codegen as codegen

        fn = codegen.generate_cuda_kernel
        with pytest.warns(DeprecationWarning):
            assert fn(plan) == get_target("cuda").emit_kernel(plan)
        with pytest.raises(AttributeError):
            codegen.generate_fortran_kernel

    def test_kernel_shims(self, cogent_v100, eq1_repr):
        kernel = cogent_v100.generate(eq1_repr)
        with pytest.warns(DeprecationWarning, match="cuda_source"):
            assert kernel.cuda_source == kernel.source("cuda")
        with pytest.warns(DeprecationWarning, match="cuda_driver_source"):
            assert kernel.cuda_driver_source() == \
                kernel.driver_source("cuda")
        with pytest.warns(DeprecationWarning, match="c_emulation_source"):
            assert kernel.c_emulation_source() == kernel.source("cemu")
        with pytest.warns(DeprecationWarning, match="opencl_source"):
            assert kernel.opencl_source() == kernel.source("opencl")


class TestKernelTargetPlumbing:
    def test_source_cached_per_target(self, cogent_v100, eq1_repr):
        kernel = cogent_v100.generate(eq1_repr)
        assert kernel.source("cuda") is kernel.source("cuda")
        assert kernel.source("cemu") is kernel.source("cemu")
        assert kernel.source("cuda") != kernel.source("cemu")

    def test_unknown_source_target_raises(self, cogent_v100, eq1_repr):
        kernel = cogent_v100.generate(eq1_repr)
        with pytest.raises(ValueError, match="registered targets"):
            kernel.source("fortran")

    def test_cogent_target_threaded_through(self, eq1_repr):
        kernel = Cogent(arch="V100", target="cemu").generate(eq1_repr)
        assert kernel.target == "cemu"
        assert kernel.source() == kernel.source("cemu")

    def test_cogent_rejects_unknown_target(self):
        with pytest.raises(ValueError, match="unknown codegen target"):
            Cogent(arch="V100", target="fortran")

    def test_search_signature_includes_target(self, eq1_repr):
        sig_cuda = Cogent(arch="V100").search_signature()
        sig_cemu = Cogent(arch="V100", target="cemu").search_signature()
        assert "target=cuda" in sig_cuda
        assert "target=cemu" in sig_cemu
        assert sig_cuda != sig_cemu

    def test_api_options_target(self):
        from repro.api import Options

        assert Options().target == "cuda"
        assert Options(target="openmp").target == "openmp"
        with pytest.raises(ValueError, match="target"):
            Options(target="fortran")


class TestObsCounters:
    def test_lookup_and_emit_counters(self, cogent_v100, eq1_repr):
        with obs.tracing() as sess:
            get_target("cuda")
            kernel = cogent_v100.generate(eq1_repr)
            kernel.source("cemu")
            kernel.source("cemu")  # cached: must not double count
        counters = sess.metrics.counters
        assert counters["codegen.target.cuda.lookups"] >= 1
        assert counters["codegen.target.cemu.emitted"] == 1

    @requires_cc
    def test_run_counter(self, plan, eq1_small):
        a, b = integer_operands(eq1_small, seed=9)
        with obs.tracing() as sess:
            get_target("cemu").compile_and_run(plan, a, b)
        assert sess.metrics.counter("codegen.target.cemu.runs") == 1


class TestInProcessHarness:
    """The runnable targets are built once as shared objects and called
    in-process through their exported entry points."""

    @pytest.mark.parametrize(
        "case,target_name",
        list(itertools.product(GOLDEN_CASES, ("cemu", "clemu", "openmp"))),
    )
    def test_emitted_code_never_exits(self, case, target_name):
        source = get_target(target_name).emit_kernel(golden_plan(case))
        assert "exit(" not in source

    @requires_cc
    def test_second_call_reuses_the_build(
        self, plan, eq1_small, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(chost, "_LIBRARIES", {})
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        a, b = integer_operands(eq1_small, seed=4)
        with obs.tracing() as cold:
            want = get_target("openmp").compile_and_run(plan, a, b)
        assert cold.metrics.counter("chost.builds") == 1
        assert cold.metrics.counter("chost.build_hits") == 0
        assert list(tmp_path.iterdir()) == []

        def no_cc(*args, **kwargs):
            raise AssertionError("the C compiler ran on a cached build")

        monkeypatch.setattr(chost.subprocess, "run", no_cc)
        with obs.tracing() as warm:
            got = get_target("openmp").compile_and_run(plan, a, b)
        assert warm.metrics.counter("chost.builds") == 0
        assert warm.metrics.counter("chost.build_hits") == 1
        assert list(tmp_path.iterdir()) == []
        assert got.tobytes() == want.tobytes()

    @requires_cc
    def test_concurrent_calls_build_once_and_stay_exact(self, monkeypatch):
        # clemu keeps its work-group state in statics, so unserialized
        # calls into one library would corrupt each other's results.
        c = parse("ab-ak-kb", {"a": 9, "b": 7, "k": 5})
        p = KernelPlan(c, config_from_spec(
            c, tb_x=[("a", 4)], tb_y=[("b", 4)], tb_k=[("k", 4)]
        ))
        a, b = integer_operands(c, seed=8)
        want = reference_contract(c, a, b).tobytes()
        monkeypatch.setattr(chost, "_LIBRARIES", {})
        compiles = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            compiles.append(args[0])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(chost.subprocess, "run", counting_run)
        results = []

        def call():
            for _ in range(3):
                out = get_target("clemu").compile_and_run(p, a, b)
                results.append(out.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=call, daemon=True) for _ in range(6)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(compiles) == 1
        assert results == [want] * 18

    @requires_cc
    @pytest.mark.parametrize("target_name", ["cemu", "clemu", "openmp"])
    def test_misshaped_operand_raises(self, target_name, plan, eq1_small):
        a, b = integer_operands(eq1_small, seed=5)
        target = get_target(target_name)
        with pytest.raises(OperandShapeError, match="operand A"):
            target.compile_and_run(plan, a[:-1], b)
        with pytest.raises(OperandShapeError, match="operand B"):
            target.compile_and_run(plan, a, b.reshape(b.shape[::-1]))

    @requires_cc
    def test_nonzero_status_raises(self):
        c = parse("ab-ak-kb", {"a": 3, "b": 2, "k": 4})
        p = KernelPlan(c, config_from_spec(
            c, tb_x=[("a", 2)], tb_y=[("b", 2)], tb_k=[("k", 2)]
        ))
        lib = chost.build_executable(
            "int failing_(double* c, const double* a, const double* b,"
            " int n_a, int n_b, int n_k) { return 2; }\n",
            "failing_",
        )
        a, b = integer_operands(c, seed=6)
        with pytest.raises(EmulationError, match="status 2"):
            chost.run_executable(lib, p, a, b)

    @requires_cc
    def test_gen_openmp_program_runs_standalone(self, tmp_path):
        from repro.cli import main

        sizes = {"a": 6, "b": 5, "c": 4, "d": 7}
        path = tmp_path / "kernel.c"
        assert main([
            "gen", "abc-adc-bd", "--sizes", "a=6,b=5,c=4,d=7",
            "--target", "openmp", "-o", str(path),
        ]) == 0
        kernel = Cogent(arch="V100", target="openmp").generate(
            parse("abc-adc-bd", sizes)
        )
        assert path.read_text() == kernel.source("openmp")
        exe = tmp_path / "kernel"
        subprocess.run(
            ["cc", *openmp.CFLAGS_PORTABLE, "-o", str(exe), str(path)],
            check=True,
        )
        c = kernel.plan.contraction
        a, b = integer_operands(c, seed=7)
        np.asfortranarray(a).ravel(order="K").tofile(tmp_path / "A.bin")
        np.asfortranarray(b).ravel(order="K").tofile(tmp_path / "B.bin")
        subprocess.run(
            [str(exe), *(str(c.extent(i)) for i in c.all_indices),
             *(str(tmp_path / f"{t}.bin") for t in "ABC")],
            check=True,
        )
        out = np.fromfile(tmp_path / "C.bin").reshape(
            c.extents_of(c.c), order="F"
        )
        assert out.tobytes() == reference_contract(c, a, b).tobytes()


@requires_cc
class TestValidateOpenmpCheck:
    def test_validate_kernel_openmp(self, cogent_v100, eq1_small):
        from repro.core.validate import validate_kernel

        kernel = cogent_v100.generate(eq1_small)
        report = validate_kernel(kernel, checks=("plan", "openmp"))
        assert report.passed, report.summary()
