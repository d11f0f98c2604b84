"""OpenMP-C CPU target vs the serial C emulation backend.

Both backends execute the *same* four-phase tiled schedule (staged
tiles, register blocking, outer-product accumulation) and produce
byte-identical output, so this measures what the ``openmp`` target's
emission style buys on a real CPU: the paper's register tile as an
``MR x NR`` register-blocked micro-tile held in named scalars across
each step's ``kk_`` loop, staging and store loops free of per-element
``%``/``/``, and an OpenMP parallel-for over thread-block tiles when
cores are available.  The OpenMP program takes its tile sizes at run
time (one build per kernel structure), while cemu bakes them in.

Compilation and execution are timed *separately* — the paper's use case
compiles once and contracts many times, and folding a one-off ``cc``
invocation into the run time would swamp the kernel-level signal.  Each
arm is built once as a shared object via :func:`chost.build_executable`
(the openmp arm through :func:`openmp.build`), called ``REPEATS``
times in-process via :func:`chost.run_executable`, and scored on its
best run.  ``run_s`` is the foreign call plus operand
layout conversion: no process spawn and no file IO.  Results (plus a
bit-exactness check of both arms against ``numpy.einsum`` on integer
operands) land in ``BENCH_cpu_target.json`` at the repo root; the
``baseline`` entry carries the openmp arm of the file's previous run
at the same size, so each run names the value it replaces.
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

def _build_cemu(plan: KernelPlan) -> chost.NativeLibrary:
    return chost.build_executable(
        cemu.CemuTarget().emit_kernel(plan), "tc_kernel_emu",
        cflags=("-O2", "-std=c99"),
        n_extents=len(plan.contraction.all_indices),
    )


#: Per-arm build: plan -> loaded library.  The openmp arm is the
#: runtime-tiled program every kernel of the plan's structure shares.
ARMS = {"cemu": _build_cemu, "openmp": openmp.build}


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


def previous_openmp(size: int):
    """The openmp arm of the previous result file, if it ran at ``size``."""
    try:
        previous = json.loads(RESULT_PATH.read_text())
    except (OSError, ValueError):
        return None
    if previous.get("expr") != EXPR or previous.get("size") != size:
        return None
    arm = previous["arms"]["openmp"]
    return {
        "source": "previous BENCH_cpu_target.json",
        "best_run_s": arm["best_run_s"],
        "compile_s": arm["compile_s"],
        "speedup_run_only": previous["speedup_run_only"],
    }


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
    baseline = previous_openmp(size)
    if baseline is not None:
        print(f"  openmp best run vs previous BENCH value: "
              f"{rows['openmp']['best_run_s'] * 1e3:.1f} ms vs "
              f"{baseline['best_run_s'] * 1e3:.1f} ms")

    payload = {
        "baseline": baseline,
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
