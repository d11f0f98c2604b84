"""OpenMP-C CPU target vs ``numpy.einsum(optimize=True)`` and vs cemu.

Two measurements land in ``BENCH_cpu_target.json`` at the repo root,
each naming its baseline:

* **einsum** (the baseline of every native number): a native call
  (:func:`chost.run_executable` on the ``openmp`` build of the kernel,
  which reads the operands at their strides, so C-ordered ones are not
  copied) against ``numpy.einsum(optimize=True)`` on the same
  C-ordered operands, for the six TCCG entries the end-to-end
  benchmark runs natively (``NATIVE_ENTRIES``) at half extents.  Each
  arm is scored on its best call; the file reports every entry's
  ratio native/einsum, their geometric mean, and the geometric mean
  this file held before the entry took strides
  (:data:`PREVIOUS_GEOMEAN`).
* **cemu**: the ``openmp`` target against the serial C emulation of
  the same plan on the paper's Eq. 1 at a mid-size extent.  Both
  produce byte-identical output; the ``openmp`` program packs panels
  and runs a register-blocked GETT micro-kernel where cemu runs the
  CUDA schema thread by thread.  Target: openmp >= 2x faster.

Compilation is timed *separately* from execution — the paper's use
case compiles once and contracts many times.  Every output is checked
byte for byte against ``numpy.einsum`` on integer operands.  The
numbers depend on the thread counts, so the file records
``OMP_NUM_THREADS`` and ``OPENBLAS_NUM_THREADS``; set both to 1 to
compare one core with one core.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np

from repro import api
from repro.core.codegen import chost
from repro.core.codegen import cemu, openmp
from repro.core.mapping import config_from_spec
from repro.core.parser import parse
from repro.core.plan import KernelPlan
from repro.gpu.executor import integer_operands, reference_contract
from repro.tccg import get


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


RESULT_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_cpu_target.json"

#: Eq. 1 from the paper at a mid-size extent (quick mode shrinks it).
EXPR = "abcd-aebf-dfce"
SIZE = 32
SIZE_QUICK = 24
REPEATS = 5
REPEATS_QUICK = 3

#: The TCCG entries ``benchmarks/e2e`` runs natively, at half extents.
NATIVE_ENTRIES = (
    "mo_stage3", "ccsd_eq1", "ccsd_mx1", "ccsd_vt2_2", "sd_t_d1_3",
    "sd_t_d2_5",
)
NATIVE_SCALE = 0.5
NATIVE_REPEATS = 15
NATIVE_REPEATS_QUICK = 5
#: The einsum arm's geomean native/einsum when the operands were copied
#: to Fortran order on every call (``OMP_NUM_THREADS=1``, shared
#: 2-vCPU VM): the previous-value baseline of that arm.
PREVIOUS_GEOMEAN = 2.526321521317403


def _build_cemu(plan: KernelPlan) -> chost.NativeLibrary:
    return chost.build_executable(
        cemu.CemuTarget().emit_kernel(plan), "tc_kernel_emu",
        cflags=("-O2", "-std=c99"),
        n_extents=len(plan.contraction.all_indices),
    )


#: Per-arm build: plan -> loaded library.  The openmp arm is the
#: runtime-tiled program every kernel of the plan's structure shares.
ARMS = {"cemu": _build_cemu, "openmp": openmp.build}


def _best_s(fn, repeats: int):
    """The fastest of ``repeats`` calls of ``fn`` and the last result."""
    best, out = math.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def _plan(size: int) -> KernelPlan:
    c = parse(EXPR, size)
    cfg = config_from_spec(
        c,
        tb_x=[("a", 8)], tb_y=[("d", 8)],
        reg_x=[("b", 4)], reg_y=[("c", 4)],
        tb_k=[("e", 8), ("f", 2)],
    )
    return KernelPlan(c, cfg)


def run_arms(size: int, repeats: int):
    plan = _plan(size)
    a, b = integer_operands(plan.contraction, seed=1)
    want = reference_contract(plan.contraction, a, b)

    rows = {}
    for name, build in ARMS.items():
        t0 = time.perf_counter()
        lib = build(plan)
        compile_s = time.perf_counter() - t0
        runs = []
        out = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = chost.run_executable(lib, plan, a, b)
            runs.append(time.perf_counter() - t0)
        rows[name] = {
            "compile_s": compile_s,
            "run_s": runs,
            "best_run_s": min(runs),
            "bit_exact": bool(out.tobytes() == want.tobytes()),
        }
    return plan, rows


def run_einsum_arm(repeats: int):
    """Native call vs ``numpy.einsum(optimize=True)`` per native entry."""
    program = api.compile_many(
        [get(name).scaled(NATIVE_SCALE) for name in NATIVE_ENTRIES],
        options=api.Options(workers=1),
    )
    rng = np.random.default_rng(1)
    entries = {}
    for name, kernel in zip(NATIVE_ENTRIES, program.kernels):
        plan = kernel.plan
        c = plan.contraction
        a, b = (
            rng.integers(-4, 5, size=c.extents_of(t)).astype(np.float64)
            for t in (c.a, c.b)
        )
        lib = openmp.build(plan)
        native_s, out = _best_s(
            lambda: chost.run_executable(lib, plan, a, b), repeats
        )
        spec = c.einsum_spec()
        einsum_s, want = _best_s(
            lambda: np.einsum(spec, a, b, optimize=True), repeats
        )
        entries[name] = {
            "contraction": str(c),
            "native_best_ms": native_s * 1e3,
            "einsum_best_ms": einsum_s * 1e3,
            "native_over_einsum": native_s / einsum_s,
            "bit_exact": bool(np.array_equal(out, want)),
        }
    geomean = math.exp(
        sum(math.log(e["native_over_einsum"]) for e in entries.values())
        / len(entries)
    )
    return entries, geomean


def test_openmp_target_vs_einsum_and_cemu(benchmark):
    size = SIZE_QUICK if quick_mode() else SIZE
    repeats = REPEATS_QUICK if quick_mode() else REPEATS
    native_repeats = NATIVE_REPEATS_QUICK if quick_mode() else NATIVE_REPEATS
    threshold = 1.3 if quick_mode() else 2.0

    plan, rows = benchmark.pedantic(
        run_arms, args=(size, repeats),
        rounds=1, iterations=1,
    )
    speedup = rows["cemu"]["best_run_s"] / rows["openmp"]["best_run_s"]
    entries, geomean = run_einsum_arm(native_repeats)

    print()
    print(f"native call vs numpy.einsum(optimize=True), "
          f"{len(entries)} TCCG entries at {NATIVE_SCALE} scale, "
          f"best of {native_repeats}:")
    for name, row in entries.items():
        assert row["bit_exact"], f"{name} diverged from numpy.einsum"
        print(f"  {name:<11} native {row['native_best_ms']:7.2f} ms, "
              f"einsum {row['einsum_best_ms']:7.2f} ms, "
              f"ratio {row['native_over_einsum']:.2f}")
    print(f"  geomean native/einsum: {geomean:.2f} "
          f"(previous {PREVIOUS_GEOMEAN:.2f})")
    print(f"{EXPR} @ {size}^6, config {plan.config.describe()}, "
          f"{os.cpu_count()} CPU core(s)")
    for name, row in rows.items():
        assert row["bit_exact"], f"{name} diverged from numpy.einsum"
        print(f"  {name:<7} compile {row['compile_s'] * 1e3:7.1f} ms, "
              f"best of {repeats} runs {row['best_run_s'] * 1e3:8.1f} ms")
    print(f"  openmp speedup over cemu: {speedup:.2f}x "
          f"(target >= {threshold:.1f}x)")

    payload = {
        "baseline": "numpy.einsum(optimize=True), same operands, same "
                    "process",
        "cpu_count": os.cpu_count(),
        "threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
        },
        "quick_mode": quick_mode(),
        "einsum": {
            "scale": NATIVE_SCALE,
            "repeats": native_repeats,
            "entries": entries,
            "native_over_einsum_geomean": geomean,
            "previous_native_over_einsum_geomean": PREVIOUS_GEOMEAN,
        },
        "cemu": {
            "baseline": "cemu, the serial C emulation of the same plan",
            "expr": EXPR,
            "size": size,
            "config": plan.config.describe(),
            "repeats": repeats,
            "arms": rows,
            "speedup_run_only": speedup,
            "threshold": threshold,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {RESULT_PATH}")

    assert speedup >= threshold, (
        f"openmp target must be >= {threshold}x faster than serial cemu "
        f"run-to-run, got {speedup:.2f}x"
    )
