"""Whole-network compilation: path-DP speedup, memory planning, dedup.

Three measurements over the staged pipeline
(parse -> path -> schedule -> memory -> dedup -> codegen):

* **path optimizer** — the vectorized bitmask DP vs the per-pair
  oracle DP (``tests/oracles``) on an n=10 varied-extent chain.
  Bit-identical paths are asserted; target >= 10x.
* **memory planner** — liveness-based arena footprint vs
  allocate-per-step on three networks (the asymmetric MPS-like chain,
  a CCSD-style two-term residual network, a Tucker decomposition);
  execution is asserted ``allclose`` to one big einsum.
* **workload wall time** — cold vs warm compile of the CCSD diagram
  set through one :class:`~repro.core.program.CompilationSession`
  against a persistent store (warm must search zero times).

Numbers land in ``BENCH_network_compile.json`` at the repo root.  Run
from the repository root so ``tests.oracles`` is importable.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.apps.ccsd import DIAGRAMS
from repro.core.generator import Cogent
from repro.core.network import optimal_path, parse_network
from repro.core.parser import parse_compact
from repro.core.pipeline import NetworkPipeline
from repro.core.program import CompilationSession
from tests.oracles import object_optimal_path


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

ARCH = "V100"
TOP_K = 8

RESULT_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_network_compile.json"

#: n=10 chain with varied extents — large enough that the Θ(3^n) DP
#: dominates, small enough for the object oracle to finish quickly.
DP_CHAIN_EXTENTS = (23, 7, 61, 13, 37, 5, 47, 11, 29, 17, 41)

#: Memory-planning showcases: (name, expression, sizes).
PLAN_NETWORKS = (
    (
        "mps_chain",
        "ab,bc,cd,de,ef,fg->ag",
        {"a": 128, "b": 16, "c": 32, "d": 64, "e": 128,
         "f": 256, "g": 2},
    ),
    (
        "ccsd_term",
        "acik,ckdl,dlem,embj,ij->ab",
        {"a": 16, "b": 16, "c": 16, "d": 16, "e": 16,
         "i": 8, "j": 8, "k": 8, "l": 8, "m": 8},
    ),
    (
        "tucker",
        "abc,ai,bj,ck->ijk",
        {"a": 24, "b": 28, "c": 32, "i": 6, "j": 7, "k": 8},
    ),
)


def _chain(n, extents):
    letters = [chr(ord("a") + i) for i in range(n + 1)]
    expr = ",".join(
        letters[i] + letters[i + 1] for i in range(n)
    ) + f"->{letters[0]}{letters[n]}"
    sizes = {letter: extent for letter, extent in zip(letters, extents)}
    return parse_network(expr, sizes)


def _time_dp(spec, dp, repeats):
    best = float("inf")
    path = None
    for _ in range(repeats):
        start = time.perf_counter()
        path = dp(spec)
        best = min(best, time.perf_counter() - start)
    return best, path


def run_path_optimizer(repeats):
    spec = _chain(10, DP_CHAIN_EXTENTS)
    object_s, object_path = _time_dp(spec, object_optimal_path, repeats)
    vector_s, vector_path = _time_dp(spec, optimal_path, repeats)
    assert vector_path.total_flops == object_path.total_flops
    assert vector_path.peak_intermediate == object_path.peak_intermediate
    assert [
        (s.left, s.right, s.result) for s in vector_path.steps
    ] == [(s.left, s.right, s.result) for s in object_path.steps], \
        "both DPs must emit bit-identical paths"
    return {
        "tensors": 10,
        "object_s": object_s,
        "vectorized_s": vector_s,
        "speedup": object_s / vector_s,
        "total_flops": vector_path.total_flops,
    }


def run_memory_planner(pipeline):
    rows = []
    rng = np.random.default_rng(0)
    for name, expr, sizes in PLAN_NETWORKS:
        net = pipeline.compile(expr, sizes)
        plan = net.memory_plan
        operands = [
            rng.random(tuple(sizes[i] for i in subscript))
            for subscript in net.spec.inputs
        ]
        assert np.allclose(net.execute(*operands),
                           net.reference(*operands)), \
            f"{name}: planned execution diverged from einsum"
        rows.append({
            "network": name,
            "expression": expr,
            "steps": len(net.dag.steps),
            "levels": net.schedule.depth,
            "planned_peak_bytes": plan.planned_peak_bytes,
            "naive_peak_bytes": plan.naive_peak_bytes,
            "reduction": plan.reduction,
            "arena_buffers": len(plan.buffer_bytes),
        })
    return rows


def run_workload(store_dir):
    sizes = {"a": 16, "b": 16, "c": 16, "d": 16,
             "i": 8, "j": 8, "k": 8, "l": 8}
    contractions = [
        parse_compact(expr, sizes) for _, expr in DIAGRAMS
    ]
    names = [name for name, _ in DIAGRAMS]

    start = time.perf_counter()
    cold = CompilationSession(
        Cogent(arch=ARCH, top_k=TOP_K), store=store_dir
    ).compile(contractions, kernel_names=names)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = CompilationSession(
        Cogent(arch=ARCH, top_k=TOP_K), store=store_dir
    ).compile(contractions, kernel_names=names)
    warm_s = time.perf_counter() - start

    assert warm.stats.searches == 0, "warm-store run must not search"
    for kernel_cold, kernel_warm in zip(cold.kernels, warm.kernels):
        assert (kernel_cold.config.describe()
                == kernel_warm.config.describe())
    return {
        "contractions": cold.stats.contractions,
        "classes": cold.stats.classes,
        "dedup_hits": cold.stats.dedup_hits,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_searches": cold.stats.searches,
        "warm_searches": warm.stats.searches,
    }


def run_all(repeats, store_dir):
    pipeline = NetworkPipeline(Cogent(arch=ARCH, top_k=TOP_K))
    return {
        "path_optimizer": run_path_optimizer(repeats),
        "memory_planner": run_memory_planner(pipeline),
        "workload": run_workload(store_dir),
    }


def test_network_compile(benchmark, tmp_path):
    repeats = 1 if quick_mode() else 3
    rows = benchmark.pedantic(
        run_all, args=(repeats, tmp_path / "store"),
        rounds=1, iterations=1,
    )
    dp = rows["path_optimizer"]
    workload = rows["workload"]
    print()
    print(f"whole-network compilation, {ARCH}, top_k={TOP_K}")
    print(f"  path DP (n={dp['tensors']}) : object "
          f"{dp['object_s'] * 1e3:8.1f} ms, vectorized "
          f"{dp['vectorized_s'] * 1e3:8.1f} ms  "
          f"{dp['speedup']:5.1f}x (bit-identical paths)")
    for row in rows["memory_planner"]:
        print(f"  memory {row['network']:<10}: "
              f"{row['planned_peak_bytes']:>10} B arena vs "
              f"{row['naive_peak_bytes']:>10} B per-step "
              f"({row['reduction']:.2f}x, "
              f"{row['arena_buffers']} buffer(s))")
    print(f"  CCSD workload     : cold {workload['cold_s'] * 1e3:8.1f} ms "
          f"({workload['cold_searches']} searches, "
          f"{workload['classes']} classes), warm "
          f"{workload['warm_s'] * 1e3:8.1f} ms "
          f"({workload['warm_searches']} searches)")

    payload = {"arch": ARCH, "top_k": TOP_K}
    payload.update(rows)
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {RESULT_PATH}")

    assert dp["speedup"] >= 10.0, (
        f"vectorized path DP must be >= 10x faster at n=10, "
        f"got {dp['speedup']:.1f}x"
    )
    for row in rows["memory_planner"][:2]:  # chain and CCSD showcases
        assert row["reduction"] > 1.0, (
            f"memory planner must reduce peak bytes on {row['network']}"
        )
    assert workload["warm_searches"] == 0
