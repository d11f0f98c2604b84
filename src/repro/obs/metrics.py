"""Central metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per observability session unifies every
counter the pipeline previously kept in ad-hoc stat objects —
``SearchStats`` (enumeration), ``RuleStats`` (constraint pruning),
cost-model memo hits/misses, kernel-store hits/misses,
``CompareStats`` and ``FrameworkResult`` stage timings (evaluation) —
under one dotted naming scheme:

* ``search.*``      — configuration search (Algorithm 2 + 3 streaming)
* ``constraints.*`` — per-rule pruning behaviour
* ``costmodel.*``   — DRAM-transaction model memoisation
* ``cache.kernel.*`` — the in-process kernel memo
* ``store.*``       — :class:`repro.core.program.KernelStore` lookups
  (class winners and evaluation cells alike)
* ``cache.eval.*``  — evaluation cells replayed from the store
* ``library.*``     — multi-version kernel dispatch
* ``compare.*``     — framework comparison grid
* ``replay.*``      — address-trace transaction replay
* ``tune.*``        — TC-style autotuning
* ``chost.*``       — in-process builds and runs of emitted C programs
  (``builds``, ``build_hits``, ``operand_copies``)

The legacy stat objects still exist (they are cheap and locally
useful); the registry *absorbs* them via the ``absorb_*`` methods so
every run exports one schema.  Merging registries is commutative
addition, so per-worker registries fold back deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional


@dataclass
class Histogram:
    """Streaming summary of an observed distribution."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def as_dict(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Counters, gauges and histograms keyed by dotted metric names."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- primitives ------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (counters add, gauges overwrite)."""
        for name, value in other.counters.items():
            self.inc(name, value)
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = Histogram(
                    hist.count, hist.total, hist.min, hist.max
                )
            else:
                mine.merge(hist)

    # -- legacy stat-object absorption ----------------------------------

    def absorb_search_stats(self, stats) -> None:
        """Fold one ``SearchStats`` (enumeration search) in."""
        self.inc("search.searches")
        self.inc("search.configs_checked", stats.configs_checked)
        self.inc("search.configs_ranked", stats.configs_ranked)
        self.inc("search.kept", stats.kept)
        self.inc("search.simulated", stats.simulated)
        self.observe("search.total_s", stats.total_s)
        self.observe("search.enumeration_s", stats.enumeration_s)
        self.observe("search.pruning_s", stats.pruning_s)
        self.observe("search.ranking_s", stats.ranking_s)
        self.observe("search.simulation_s", stats.simulation_s)
        self.gauge("search.workers", stats.workers)

    def absorb_enumeration_stats(self, stats) -> None:
        """Fold one ``EnumerationStats`` (pruning breakdown) in."""
        self.inc("search.raw_combinations", stats.raw_combinations)
        self.inc("search.hardware_pruned", stats.hardware_pruned)
        self.inc("search.performance_pruned", stats.performance_pruned)
        self.inc("search.accepted", stats.accepted)

    def absorb_rule_stats(self, rule_stats: Mapping[str, object]) -> None:
        """Fold a ``ConstraintChecker.rule_stats`` mapping in."""
        for name, stats in rule_stats.items():
            if not getattr(stats, "checks", 0):
                continue
            self.inc(f"constraints.{name}.checks", stats.checks)
            self.inc(f"constraints.{name}.rejections", stats.rejections)
            self.inc(f"constraints.{name}.time_s", stats.time_s)

    def absorb_compare_stats(self, stats) -> None:
        """Fold one ``CompareStats`` (SuiteRunner.compare) in."""
        self.inc("compare.cells", stats.cells)
        self.inc("compare.evaluated", stats.evaluated)
        self.inc("cache.eval.hits", stats.cache_hits)
        self.inc("cache.eval.misses", stats.cache_misses)
        self.observe("compare.total_s", stats.total_s)
        self.observe("compare.setup_s", stats.setup_s)
        self.observe("compare.search_s", stats.search_s)
        self.observe("compare.simulate_s", stats.simulate_s)
        self.gauge("compare.workers", stats.workers)

    def absorb_framework_result(self, result) -> None:
        """Fold one ``FrameworkResult``'s stage timings in."""
        prefix = f"compare.{result.framework}"
        self.inc(f"{prefix}.cells")
        if result.cached:
            self.inc(f"{prefix}.cached")
            return
        self.observe(f"{prefix}.setup_s", result.setup_time_s)
        self.observe(f"{prefix}.search_s", result.search_time_s)
        self.observe(f"{prefix}.simulate_s", result.simulate_time_s)

    # -- serialisation ---------------------------------------------------

    def as_dict(self) -> Dict[str, Dict]:
        return {
            "counters": {
                k: self.counters[k] for k in sorted(self.counters)
            },
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].as_dict()
                for k in sorted(self.histograms)
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsRegistry":
        registry = cls()
        registry.counters.update(payload.get("counters", {}))
        registry.gauges.update(payload.get("gauges", {}))
        for name, hist in payload.get("histograms", {}).items():
            registry.histograms[name] = Histogram(
                count=int(hist.get("count", 0)),
                total=float(hist.get("total", 0.0)),
                min=float(hist.get("min", 0.0)),
                max=float(hist.get("max", 0.0)),
            )
        return registry

    def summary(self, prefix: Optional[str] = None) -> str:
        """One-line-per-counter text summary (optionally filtered)."""
        lines = []
        for name in sorted(self.counters):
            if prefix and not name.startswith(prefix):
                continue
            value = self.counters[name]
            shown = int(value) if float(value).is_integer() else value
            lines.append(f"{name} = {shown}")
        return "\n".join(lines)
