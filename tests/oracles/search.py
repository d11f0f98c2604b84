"""The per-plan configuration search: Algorithms 2 and 3, one at a time.

:meth:`repro.core.enumeration.Enumerator.search` evaluates the pruning
rules and the Algorithm-3 cost as batched column predicates.  This
oracle walks the same capped Cartesian product one configuration at a
time: it builds each :class:`KernelPlan`, classifies it with the
``_rule_*`` methods of :class:`ConstraintChecker`, scores survivors with
:class:`CostModel` and keeps a bounded :class:`TopK`.  Its ranked head,
pruning counters and fallback rejects must equal the columnar search's
exactly.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional, Set, Tuple

from repro.core.constraints import (
    HARDWARE_RULES,
    PERFORMANCE_RULES,
    ConstraintChecker,
)
from repro.core.costmodel import CostModel
from repro.core.enumeration import (
    EnumerationResult,
    EnumerationStats,
    Enumerator,
    SearchStats,
    TopK,
    _ShardOutcome,
    _merge_outcomes,
)
from repro.core.mapping import canonical_key, config_from_spec
from repro.core.plan import KernelPlan


class AdaptiveChecker(ConstraintChecker):
    """A checker with a short-circuiting, self-reordering fast verdict.

    :meth:`classify` stops each rule family at its first violation and
    periodically re-sorts the rules by measured rejections per second,
    so the cheapest, most selective rules run first.  Rule order only
    changes wall time, never the verdict: both families are pure
    conjunctions.
    """

    #: Re-derive the adaptive rule order every this many classifications.
    REORDER_INTERVAL = 512

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._classified = 0
        self._hw_order: Tuple[str, ...] = HARDWARE_RULES
        self._perf_order: Tuple[str, ...] = PERFORMANCE_RULES

    def classify(self, plan: KernelPlan) -> str:
        """``"accepted"``, ``"hardware"`` or ``"performance"``.

        The verdict is identical to :meth:`check`'s; only the wall time
        differs.
        """
        self._classified += 1
        if self._classified % self.REORDER_INTERVAL == 0:
            self._reorder()
        if self._run_family(self._hw_order, plan):
            return "hardware"
        if self._run_family(self._perf_order, plan):
            return "performance"
        return "accepted"

    def rule_order(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Current adaptive (hardware, performance) rule orders."""
        return self._hw_order, self._perf_order

    def _run_family(
        self, order: Tuple[str, ...], plan: KernelPlan
    ) -> bool:
        """Run one rule family, short-circuiting; returns True on reject."""
        for name in order:
            stats = self.rule_stats[name]
            start = time.perf_counter()
            violation = self._rule(name)(plan)
            stats.time_s += time.perf_counter() - start
            stats.checks += 1
            if violation is not None:
                stats.rejections += 1
                return True
        return False

    def _reorder(self) -> None:
        """Sort each family by measured rejections/second, descending.

        Ties (including the all-zero cold start) fall back to the
        canonical declaration order, keeping behaviour deterministic.
        """
        def order(names: Tuple[str, ...]) -> Tuple[str, ...]:
            return tuple(sorted(
                names,
                key=lambda n: (-self.rule_stats[n].efficiency,
                               names.index(n)),
            ))

        self._hw_order = order(HARDWARE_RULES)
        self._perf_order = order(PERFORMANCE_RULES)


def object_search(
    enumerator: Enumerator,
    keep: int = 64,
    checker: Optional[AdaptiveChecker] = None,
) -> EnumerationResult:
    """Serial per-plan search over ``enumerator``'s space.

    Pass ``checker`` to read its per-rule ``rule_stats`` afterwards; by
    default a fresh :class:`AdaptiveChecker` with the enumerator's
    policy is used.
    """
    start = time.perf_counter()
    if checker is None:
        checker = AdaptiveChecker(
            enumerator.arch, enumerator.dtype_bytes,
            enumerator.checker.policy,
        )
    cost_model = CostModel(
        enumerator.dtype_bytes, enumerator.arch.transaction_bytes
    )
    contraction = enumerator.contraction
    stats = EnumerationStats()
    search = SearchStats()
    seen: Set[Tuple] = set()
    top = TopK(keep)
    fallback = TopK(keep)
    prune_s = 0.0
    rank_s = 0.0

    combos = itertools.islice(
        itertools.product(
            enumerator.enumerate_x_side(),
            enumerator.enumerate_y_side(),
            enumerator.enumerate_tb_k(),
        ),
        enumerator.max_configs,
    )
    for xp, yp, kp in combos:
        stats.raw_combinations += 1
        key = (xp.tb, xp.reg, yp.tb, yp.reg, kp)
        # The three families are sets, so their product never repeats.
        assert key not in seen, f"repeated product key {key}"
        seen.add(key)
        config = config_from_spec(
            contraction,
            tb_x=xp.tb,
            tb_y=yp.tb,
            reg_x=xp.reg,
            reg_y=yp.reg,
            tb_k=kp,
            fill_defaults=True,
        )
        plan = KernelPlan(contraction, config, enumerator.dtype_bytes)
        t0 = time.perf_counter()
        verdict = checker.classify(plan)
        prune_s += time.perf_counter() - t0
        search.configs_checked += 1
        if verdict == "hardware":
            stats.hardware_pruned += 1
            continue
        if verdict == "performance":
            stats.performance_pruned += 1
            # Rejects only feed the tiny-problem fallback, which is
            # consulted only when *nothing* is accepted: stop scoring
            # them once a real survivor has been seen.
            if len(top) == 0:
                t0 = time.perf_counter()
                cost = cost_model.cost(plan)
                fallback.push(cost, canonical_key(config), config)
                rank_s += time.perf_counter() - t0
                search.configs_ranked += 1
            continue
        stats.accepted += 1
        t0 = time.perf_counter()
        cost = cost_model.cost(plan)
        top.push(cost, canonical_key(config), config)
        rank_s += time.perf_counter() - t0
        search.configs_ranked += 1

    total = time.perf_counter() - start
    search.pruning_s = prune_s
    search.ranking_s = rank_s
    search.enumeration_s = max(total - prune_s - rank_s, 0.0)
    outcome = _ShardOutcome(top.items(), fallback.items(), stats, search)
    result = _merge_outcomes([outcome], keep)
    result.search_stats.total_s = total
    return result
