"""Evaluation-pipeline performance claims (this reproduction's harness).

Two arms:

1. Exact transaction replay: the vectorized equivalence-class replay
   (`repro.gpu.memory.VectorizedReplay`) against the per-(block, step)
   loop oracle (`count_transactions_reference` in `tests/oracles`) on
   a mid-size TCCG contraction.  The target is >=50x with bit-for-bit
   identical counts.
2. Suite evaluation: `SuiteRunner.compare` serial vs `workers=2`
   (identical rows required) and cold vs warm evaluation cache (the
   warm run must perform zero framework re-evaluations).

Set ``REPRO_BENCH_JSON=path.json`` to dump both comparisons as JSON
(sections are merged into the file, same env-var convention as
``bench_codegen_time.py``).  Run from the repository root so
``tests.oracles`` is importable.
"""

import json
import os
import time

import pytest

from repro import Cogent
from repro.evaluation import SuiteRunner
from repro.gpu.memory import VectorizedReplay, count_transactions
from repro.tccg import by_group, get
from tests.oracles import count_transactions_reference

#: Mid-size TCCG contraction for the replay throughput comparison: the
#: AO-to-MO transform stage at half its representative extents keeps
#: the loop oracle's one-shot run in low seconds while the full-extent
#: problem stays loop-infeasible.
REPLAY_BENCH = "mo_stage1"
REPLAY_SCALE = 0.5

#: Worker count for the parallel compare arm.
COMPARE_WORKERS = min(2, os.cpu_count() or 1)


def _merge_json_dump(section: str, payload: dict) -> None:
    """Merge one section into the REPRO_BENCH_JSON file, if requested."""
    json_path = os.environ.get("REPRO_BENCH_JSON", "")
    if not json_path:
        return
    merged = {}
    if os.path.exists(json_path):
        try:
            with open(json_path) as fh:
                merged = json.load(fh)
        except ValueError:
            merged = {}
    merged[section] = payload
    with open(json_path, "w") as fh:
        json.dump(merged, fh, indent=2)
    print(f"  wrote section {section!r} to {json_path}")


def test_replay_loop_vs_vectorized(benchmark):
    """Tentpole claim: vectorized exact replay matches the loop oracle
    bit-for-bit and runs >=50x faster on a mid-size TCCG contraction."""
    contraction = get(REPLAY_BENCH).scaled(REPLAY_SCALE)
    kernel = Cogent(arch="V100").generate(contraction)
    plan = kernel.plan

    t0 = time.perf_counter()
    loop = count_transactions_reference(plan)
    loop_s = time.perf_counter() - t0

    vectorized = benchmark(lambda: VectorizedReplay(plan).count())
    t0 = time.perf_counter()
    VectorizedReplay(plan).count()
    vec_s = time.perf_counter() - t0

    speedup = loop_s / max(vec_s, 1e-9)
    print(f"\n{REPLAY_BENCH} x{REPLAY_SCALE}: loop {loop_s * 1e3:.1f} ms, "
          f"vectorized {vec_s * 1e3:.2f} ms ({speedup:.0f}x), "
          f"{loop.total} transactions")
    assert vectorized == loop  # bit-for-bit
    assert speedup >= 50.0

    _merge_json_dump("replay", {
        "benchmark": REPLAY_BENCH,
        "scale": REPLAY_SCALE,
        "loop_s": loop_s,
        "vectorized_s": vec_s,
        "speedup": speedup,
        "load_a": loop.load_a,
        "load_b": loop.load_b,
        "store_c": loop.store_c,
    })


def test_replay_full_size_feasible():
    """Exact counting is now feasible at full TCCG extents (the loop
    oracle would need minutes-to-hours here)."""
    plan = Cogent(arch="V100").generate(get(REPLAY_BENCH).contraction()).plan
    t0 = time.perf_counter()
    measured = count_transactions(plan, exact=True)
    full_s = time.perf_counter() - t0
    print(f"\n{REPLAY_BENCH} full extents: exact replay {full_s * 1e3:.1f} ms"
          f", {measured.total} transactions")
    assert measured.total > 0
    assert full_s < 10.0


def _flatten(rows):
    return [
        (row.benchmark.name, framework,
         result.gflops, result.time_s, result.detail)
        for row in rows
        for framework, result in row.results.items()
    ]


def test_compare_serial_vs_parallel_and_cache(benchmark, tmp_path):
    """`compare(workers=2)` returns rows identical to serial; a warm
    evaluation cache re-run performs zero framework re-evaluations."""
    benches = by_group("mo")
    frameworks = ("cogent", "nwchem", "talsh")

    serial = SuiteRunner(arch="V100")
    t0 = time.perf_counter()
    serial_rows = serial.compare(benches, frameworks)
    serial_s = time.perf_counter() - t0

    parallel = SuiteRunner(arch="V100")
    parallel_rows = benchmark.pedantic(
        parallel.compare, args=(benches, frameworks),
        kwargs={"workers": COMPARE_WORKERS}, rounds=1, iterations=1,
    )
    parallel_s = parallel.last_stats.total_s
    assert _flatten(parallel_rows) == _flatten(serial_rows)  # determinism

    store_dir = tmp_path / "store"
    cold = SuiteRunner(arch="V100", store_dir=store_dir)
    cold_rows = cold.compare(benches, frameworks, workers=COMPARE_WORKERS)
    warm = SuiteRunner(arch="V100", store_dir=store_dir)
    t0 = time.perf_counter()
    warm_rows = warm.compare(benches, frameworks, workers=COMPARE_WORKERS)
    warm_s = time.perf_counter() - t0
    assert warm.last_stats.evaluated == 0  # zero re-evaluations
    assert warm.last_stats.cache_hits == len(benches) * len(frameworks)
    assert _flatten(warm_rows) == _flatten(cold_rows)

    print(f"\ncompare {len(benches)}x{len(frameworks)} cells: "
          f"serial {serial_s:.2f} s, parallel(x{COMPARE_WORKERS}) "
          f"{parallel_s:.2f} s, warm cache {warm_s * 1e3:.0f} ms")
    print(f"  serial  : {serial.last_stats.summary()}")
    print(f"  parallel: {parallel.last_stats.summary()}")
    print(f"  warm    : {warm.last_stats.summary()}")

    _merge_json_dump("compare", {
        "benchmarks": [bench.name for bench in benches],
        "frameworks": list(frameworks),
        "workers": COMPARE_WORKERS,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "warm_cache_s": warm_s,
        "serial_stats": serial.last_stats.as_dict(),
        "parallel_stats": parallel.last_stats.as_dict(),
        "warm_stats": warm.last_stats.as_dict(),
    })
