"""Columnar search vs the per-plan oracle: wall time across the TCCG suite.

Runs the same prune-and-rank search (Algorithm 2 + 3) through the
columnar :meth:`Enumerator.search` and the per-plan object search in
``tests/oracles`` at ``workers=1`` on every selected benchmark, asserts
bit-identical top-k results (cost and canonical config key), and
reports the per-contraction and median speedups.  The target is a
>= 10x median speedup for the full-space search.  Run from the
repository root (``python -m pytest benchmarks/bench_search_engines.py``)
so ``tests.oracles`` is importable.
"""

import statistics
import time

from repro.core.enumeration import Enumerator
from repro.gpu.arch import VOLTA_V100
from tests.oracles import object_search

KEEP = 16


def _ranked(result):
    return list(zip(result.costs, [c.describe() for c in result.configs]))


def _timed_search(contraction, search):
    enumerator = Enumerator(contraction, VOLTA_V100)
    start = time.perf_counter()
    result = search(enumerator)
    return time.perf_counter() - start, result


def _columnar(enumerator):
    return enumerator.search(keep=KEEP)


def _object(enumerator):
    return object_search(enumerator, keep=KEEP)


def run_engine_comparison(selection):
    rows = []
    for bench in selection:
        contraction = bench.contraction()
        t_obj, res_obj = _timed_search(contraction, _object)
        t_col, res_col = _timed_search(contraction, _columnar)
        assert _ranked(res_col) == _ranked(res_obj), (
            f"top-k mismatch between columnar and oracle on {bench.name}"
        )
        assert res_col.stats == res_obj.stats, (
            f"pruning-stats mismatch between columnar and oracle on "
            f"{bench.name}"
        )
        rows.append((bench, res_col.stats, t_obj, t_col))
    return rows


def test_search_engine_speedup(benchmark, selection):
    rows = benchmark.pedantic(
        run_engine_comparison, args=(selection,), rounds=1, iterations=1
    )
    print()
    print(f"columnar search vs per-plan oracle, V100 DP, workers=1, "
          f"keep={KEEP} (identical top-k asserted)")
    print(f"{'#':>3} {'benchmark':<14} {'raw':>8} {'object':>10} "
          f"{'columnar':>10} {'speedup':>8}")
    speedups = []
    for bench, stats, t_obj, t_col in rows:
        speedup = t_obj / t_col if t_col else float("inf")
        speedups.append(speedup)
        print(f"{bench.id:>3} {bench.name:<14} {stats.raw_combinations:>8} "
              f"{t_obj * 1e3:>8.1f}ms {t_col * 1e3:>8.1f}ms "
              f"{speedup:>7.1f}x")
    median = statistics.median(speedups)
    print(f"median speedup {median:.1f}x "
          f"(min {min(speedups):.1f}x, max {max(speedups):.1f}x)")
    assert median >= 10.0, (
        f"columnar search must be >= 10x faster at the median, "
        f"got {median:.1f}x"
    )
