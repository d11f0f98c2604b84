"""Section IV-A claim: "around 97% of the configurations were pruned".

Reproduces the enumeration-pruning statistics across the TCCG suite:
raw enumerated combinations, hardware-pruned, performance-pruned, and
the surviving fraction, per benchmark group and overall — plus the
per-rule pruned counts as reported by the columnar search and by the
per-plan object search in ``tests/oracles`` on the paper's Eq. 1.  Run
from the repository root so ``tests.oracles`` is importable.
"""

from repro.core.constraints import HARDWARE_RULES, PERFORMANCE_RULES
from repro.core.enumeration import Enumerator, paper_search_space
from repro.core.parser import parse
from repro.gpu.arch import VOLTA_V100
from tests.oracles import AdaptiveChecker, object_search

SEARCHES = ("columnar", "object")


def run_pruning_stats(selection):
    rows = []
    for bench in selection:
        contraction = bench.contraction()
        result = Enumerator(contraction, VOLTA_V100).search(keep=1)
        rows.append((bench, result.stats, paper_search_space(contraction)))
    return rows


def test_pruning_statistics(benchmark, selection):
    rows = benchmark.pedantic(
        run_pruning_stats, args=(selection,), rounds=1, iterations=1
    )
    print()
    print("Section IV-A - configuration pruning statistics (V100, DP)")
    print(f"{'#':>3} {'benchmark':<14} {'space':>12} {'walked':>8} "
          f"{'hw-cut':>7} {'perf-cut':>9} {'kept':>7} {'pruned%':>8}")
    total_space = total_kept = 0
    for bench, stats, space in rows:
        pruned = 1 - stats.accepted / space
        print(f"{bench.id:>3} {bench.name:<14} {space:>12} "
              f"{stats.raw_combinations:>8} {stats.hardware_pruned:>7} "
              f"{stats.performance_pruned:>9} {stats.accepted:>7} "
              f"{pruned * 100:>7.2f}%")
        total_space += space
        total_kept += stats.accepted
    overall = 1 - total_kept / total_space
    print(f"overall pruned fraction of the naive search space: "
          f"{overall * 100:.2f}% (paper: ~97%)")
    assert overall > 0.90
    for _bench, stats, _space in rows:
        assert stats.accepted > 0


def run_rule_pruning_eq1():
    """Per-rule pruned counts from both searches on the paper's Eq. 1."""
    eq1 = parse("abcd-aebf-dfce", 24)
    enumerator = Enumerator(eq1, VOLTA_V100)
    columnar = enumerator.search(keep=1)
    checker = AdaptiveChecker(VOLTA_V100)
    oracle = object_search(Enumerator(eq1, VOLTA_V100), keep=1,
                           checker=checker)
    outcomes = {
        "columnar": (columnar, enumerator.checker.rule_stats),
        "object": (oracle, checker.rule_stats),
    }
    return eq1, outcomes


def test_rule_pruning_both_engines(benchmark):
    eq1, outcomes = benchmark.pedantic(
        run_rule_pruning_eq1, rounds=1, iterations=1
    )
    print()
    print("Eq. 1 per-rule pruned counts, columnar search vs object oracle")
    print(f"{'rule':<22} {'col rej':>9} {'obj rej':>9} "
          f"{'col chk':>9} {'obj chk':>9}")
    col_stats = outcomes["columnar"][1]
    obj_stats = outcomes["object"][1]
    for rule in HARDWARE_RULES + PERFORMANCE_RULES:
        print(f"{rule:<22} {col_stats[rule].rejections:>9} "
              f"{obj_stats[rule].rejections:>9} "
              f"{col_stats[rule].checks:>9} {obj_stats[rule].checks:>9}")
    space = paper_search_space(eq1)
    for search in SEARCHES:
        result, rule_stats = outcomes[search]
        stats = result.stats
        # every pruned row is charged to exactly one rule
        total = sum(s.rejections for s in rule_stats.values())
        assert total == stats.hardware_pruned + stats.performance_pruned
        pruned = 1 - stats.accepted / space
        print(f"{search:>8}: {stats.accepted} survivors of a "
              f"{space}-point naive space -> {pruned * 100:.2f}% pruned")
        # Section IV-A: "around 97% of the configurations were pruned"
        assert pruned > 0.95
    # both searches agree on the family totals
    assert outcomes["columnar"][0].stats == outcomes["object"][0].stats
