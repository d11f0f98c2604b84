#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one verdict per workload and metric.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each file is a set of runs written by ``run.py --out FILE`` (every
invocation appends one run).  Run *i* of one set is paired with run *i*
of the other, so make them alternately, parent first and change first
in turn, with the same seeds.  For every end-to-end metric of
``BENCHMARK.json`` on every workload the verdict is:

* ``improved``: the change wins at least nine tenths of the pairs (ties
  count for neither side) and its median is better than the parent's by
  more than the parent's interquartile range;
* ``failing``: it would be ``improved``, but the change fails more
  calls on the workload than the parent, or one of its runs reads
  ``correct: false``; a gain does not count then;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's tolerance;
* ``unresolved``: the interquartile range of either side is wider than
  the tolerance at its median, and not every change run reads better
  than every parent run;
* ``unchanged``: otherwise.

The tolerance at a median is ``bound`` (a share of the median) times
the median, but at least the metric's absolute floor in ``FLOORS``.

Each workload also gets a ``failed`` row: the failed calls per run of
both sides, ``worse`` when the change fails more calls than the parent
or one of its runs reads ``correct: false``.

Exits with code 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Absolute tolerance floors, in the metric's unit.  Set-up takes a few
#: tenths of a second on most workloads, where a share of the median is
#: shorter than the scheduling noise of starting a process.
FLOORS = {"setup_s": 0.05}


def load_runs(path: str) -> List[Dict]:
    return json.loads(Path(path).read_text())["runs"]


def results(runs: List[Dict], workload: str) -> List[Dict]:
    return [run["results"][workload] for run in runs
            if workload in run["results"]]


def values(runs: List[Dict], workload: str, metric: str) -> List[float]:
    return [r["metrics"][metric]["value"] for r in results(runs, workload)]


def fails_more(parent: List[Dict], change: List[Dict]) -> bool:
    """Whether the change's runs of a workload fail more calls per run
    than the parent's, or any of them reads ``correct: false``."""
    def per_run(side: List[Dict]) -> float:
        return sum(r["failed"] for r in side) / len(side)

    return (per_run(change) > per_run(parent)
            or not all(r["correct"] for r in change))


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def cell(samples: Sequence[float]) -> str:
    return "/".join(f"{v:.4g}" for v in quartiles(samples))


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    floor: float = 0.0,
    failing: bool = False,
) -> Tuple[str, int, int]:
    """``(verdict, pairs won by the change, pairs)``.

    ``failing`` says that the change fails more calls than the parent
    (:func:`fails_more`); it turns ``improved`` into ``failing``.
    """
    sign = 1.0 if better == "higher" else -1.0

    def gain(old: float, new: float) -> float:
        """How much better ``new`` reads than ``old`` (> 0: better)."""
        return sign * (new - old)

    def tolerance(median: float) -> float:
        return max(bound * abs(median), floor)

    q1a, median_a, q3a = quartiles(parent)
    q1b, median_b, q3b = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if gain(old, new) > 0)
    if wins >= 0.9 * len(pairs) and gain(median_a, median_b) > q3a - q1a:
        return ("failing" if failing else "improved"), wins, len(pairs)
    if -gain(median_a, median_b) > tolerance(median_a):
        return "worse", wins, len(pairs)
    wide = (q3a - q1a > tolerance(median_a)
            or q3b - q1b > tolerance(median_b))
    every_run_better = all(
        gain(old, new) > 0 for old in parent for new in change
    )
    if wide and not every_run_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip())
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    rows = [("workload", "metric", "parent q1/median/q3",
             "change q1/median/q3", "won", "verdict")]
    worse = False
    for workload in (w["name"] for w in spec["workloads"]):
        old_runs = results(parent, workload)
        new_runs = results(change, workload)
        if not old_runs or not new_runs:
            continue
        failing = fails_more(old_runs, new_runs)
        worse |= failing
        rows.append((
            workload,
            "failed [calls/run]",
            cell([r["failed"] for r in old_runs]),
            cell([r["failed"] for r in new_runs]),
            "-",
            "worse" if failing else "unchanged",
        ))
        for metric in spec["end_to_end"]:
            old = values(parent, workload, metric["name"])
            new = values(change, workload, metric["name"])
            result, wins, pairs = verdict(
                old, new, metric["better"], metric["bound"],
                floor=FLOORS.get(metric["name"], 0.0), failing=failing,
            )
            worse |= result == "worse"
            rows.append((
                workload,
                f"{metric['name']} [{metric['unit']}]",
                cell(old),
                cell(new),
                f"{wins}/{pairs}",
                result,
            ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(text.ljust(w) for text, w in zip(row, widths)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
