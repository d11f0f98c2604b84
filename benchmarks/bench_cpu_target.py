"""OpenMP-C CPU target vs the serial C emulation backend.

Both backends execute the *same* four-phase tiled schedule (staged
tiles, register blocking, outer-product accumulation), so this measures
what the ``openmp`` target's emission style buys on a real CPU: a
collapsed, unit-stride block-tile accumulator that the compiler can
vectorize, ``restrict``-qualified tile pointers, ``-O3 -march=native``,
and an OpenMP parallel-for over thread-block tiles when cores are
available.

Compilation and execution are timed *separately* — the paper's use case
compiles once and contracts many times, and folding a one-off ``cc``
invocation into the run time would swamp the kernel-level signal.  Each
arm is built once as a shared object via :func:`chost.build_executable`,
called ``REPEATS`` times in-process via :func:`chost.run_executable`,
and scored on its best run.  ``run_s`` is the foreign call plus operand
layout conversion: no process spawn and no file IO.  Results (plus a
bit-exactness check of both arms against ``numpy.einsum`` on integer
operands) land in ``BENCH_cpu_target.json`` at the repo root.
Target: openmp >= 2x faster than cemu on the mid-size Eq. 1
contraction.
"""

import json
import os
import time
from pathlib import Path

from repro.core.codegen import chost
from repro.core.codegen import cemu, openmp
from repro.core.mapping import config_from_spec
from repro.core.parser import parse
from repro.core.plan import KernelPlan
from repro.gpu.executor import integer_operands, reference_contract


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

#: Per-arm toolchain: (emitter, entry point, cflags, fallback cflags).
ARMS = {
    "cemu": (cemu.CemuTarget().emit_kernel, "tc_kernel_emu",
             ("-O2", "-std=c99"), None),
    "openmp": (openmp.OpenmpTarget().emit_kernel, "tc_kernel_omp",
               openmp.CFLAGS, openmp.CFLAGS_PORTABLE),
}


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
    for name, (emit, entry, cflags, fallback) in ARMS.items():
        t0 = time.perf_counter()
        lib = chost.build_executable(
            emit(plan), entry, cflags=cflags, fallback_cflags=fallback,
        )
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


def test_openmp_target_beats_cemu(benchmark):
    size = SIZE_QUICK if quick_mode() else SIZE
    repeats = REPEATS_QUICK if quick_mode() else REPEATS
    threshold = 1.3 if quick_mode() else 2.0

    plan, rows = benchmark.pedantic(
        run_arms, args=(size, repeats),
        rounds=1, iterations=1,
    )
    speedup = rows["cemu"]["best_run_s"] / rows["openmp"]["best_run_s"]

    print()
    print(f"{EXPR} @ {size}^6, config {plan.config.describe()}, "
          f"{os.cpu_count()} CPU core(s)")
    for name, row in rows.items():
        assert row["bit_exact"], f"{name} diverged from numpy.einsum"
        print(f"  {name:<7} compile {row['compile_s'] * 1e3:7.1f} ms, "
              f"best of {repeats} runs {row['best_run_s'] * 1e3:8.1f} ms")
    print(f"  openmp speedup over cemu: {speedup:.2f}x "
          f"(target >= {threshold:.1f}x)")

    payload = {
        "expr": EXPR,
        "size": size,
        "config": plan.config.describe(),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "quick_mode": quick_mode(),
        "arms": rows,
        "speedup_run_only": speedup,
        "threshold": threshold,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {RESULT_PATH}")

    assert speedup >= threshold, (
        f"openmp target must be >= {threshold}x faster than serial cemu "
        f"run-to-run, got {speedup:.2f}x"
    )
