"""Model-driven strategy selection (Algorithm 3 across strategies).

:class:`StrategySelector` ranks the execution strategies for one
contraction — or, columnar-style, for a whole suite at once — on the
packing-aware DRAM-traffic model in :mod:`repro.core.costmodel`, and
instantiates the winner.  Selection is fully deterministic: ties break
on :data:`~repro.core.costmodel.STRATEGY_NAMES` order, and the scalar
path is the columnar arithmetic at batch size one, so per-shape and
suite-wide answers can never disagree (nor can parallel workers, which
share nothing but the model's pure integer arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.costmodel import (
    STRATEGY_NAMES,
    StrategyCostModel,
    StrategyTraffic,
    TransactionEstimate,
    strategy_descriptor,
)
from .base import ExecutionStrategy, StrategyError


def get_strategy(name: str, *args, **kwargs) -> ExecutionStrategy:
    """Instantiate one strategy by name."""
    from .batched import BatchedGemmStrategy
    from .direct import DirectStrategy
    from .gett import GettStrategy
    from .ttgt import TtgtStrategy

    classes = {
        "direct": DirectStrategy,
        "ttgt": TtgtStrategy,
        "gett": GettStrategy,
        "batched": BatchedGemmStrategy,
    }
    if name not in classes:
        raise StrategyError(
            f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}"
        )
    return classes[name](*args, **kwargs)


@dataclass(frozen=True)
class StrategyChoice:
    """The ranked outcome of strategy selection for one contraction."""

    selected: str
    #: All considered strategies, cheapest first (inapplicable last).
    ranking: Tuple[Tuple[str, StrategyTraffic], ...]

    @property
    def traffic(self) -> StrategyTraffic:
        return dict(self.ranking)[self.selected]

    def as_dict(self) -> dict:
        return {
            "selected": self.selected,
            "ranking": [
                {
                    "strategy": name,
                    "applicable": t.applicable,
                    "macro": int(t.macro) if t.applicable else None,
                    "pack": int(t.pack) if t.applicable else None,
                    "unpack": int(t.unpack) if t.applicable else None,
                    "total": int(t.total) if t.applicable else None,
                }
                for name, t in self.ranking
            ],
        }


@dataclass(frozen=True)
class SimulatedStrategyChoice:
    """Strategy ranking on *simulated* macro-kernel time.

    ``times`` holds seconds per applicable strategy (``None`` when the
    representative macro-kernel could not be planned — such strategies
    fall back to their modeled-traffic position at the end of the
    ranking).  ``modeled`` is the plain transaction-count choice for
    comparison.
    """

    selected: str
    #: Considered strategies, fastest simulated first; un-simulatable
    #: ones follow in modeled-traffic order.
    ranking: Tuple[str, ...]
    times: Dict[str, Optional[float]]
    modeled: StrategyChoice

    @property
    def agrees_with_model(self) -> bool:
        return self.selected == self.modeled.selected

    def as_dict(self) -> dict:
        return {
            "selected": self.selected,
            "ranking": list(self.ranking),
            "times_s": {
                name: time for name, time in self.times.items()
            },
            "modeled_selected": self.modeled.selected,
            "agrees_with_model": self.agrees_with_model,
        }


@dataclass(frozen=True)
class SuiteSelection:
    """Vectorized selection over a whole suite of contractions."""

    labels: Tuple[str, ...]
    strategies: Tuple[str, ...]
    #: ``(n_contractions, n_strategies)`` modeled total transactions.
    matrix: np.ndarray
    winners: Tuple[str, ...]

    @property
    def winner_counts(self) -> Dict[str, int]:
        counts = {name: 0 for name in self.strategies}
        for winner in self.winners:
            counts[winner] += 1
        return counts

    @property
    def auto_total(self) -> int:
        return int(self.matrix.min(axis=1).sum())

    @property
    def direct_total(self) -> int:
        col = self.strategies.index("direct")
        return int(self.matrix[:, col].sum())

    @property
    def improved_fraction(self) -> float:
        """Fraction of shapes where auto beats always-direct."""
        col = self.strategies.index("direct")
        beat = self.matrix.min(axis=1) < self.matrix[:, col]
        return float(beat.mean()) if len(self.labels) else 0.0

    @property
    def traffic_uplift(self) -> float:
        """Modeled suite-traffic reduction of auto vs always-direct."""
        direct = self.direct_total
        return 1.0 - self.auto_total / direct if direct else 0.0

    def as_dict(self) -> dict:
        col = self.strategies.index("direct")
        return {
            "strategies": list(self.strategies),
            "shapes": [
                {
                    "label": label,
                    "winner": winner,
                    "totals": {
                        name: int(self.matrix[i, j])
                        for j, name in enumerate(self.strategies)
                        if self.matrix[i, j] < int(2) ** 62
                    },
                    "direct_total": int(self.matrix[i, col]),
                }
                for i, (label, winner) in enumerate(
                    zip(self.labels, self.winners)
                )
            ],
            "winner_counts": self.winner_counts,
            "auto_total": self.auto_total,
            "direct_total": self.direct_total,
            "improved_fraction": self.improved_fraction,
            "traffic_uplift": self.traffic_uplift,
        }


class StrategySelector:
    """Rank and pick execution strategies on modeled DRAM traffic."""

    def __init__(
        self,
        arch: str = "V100",
        dtype_bytes: int = 8,
        strategies: Sequence[str] = STRATEGY_NAMES,
        cost_model: Optional[StrategyCostModel] = None,
    ) -> None:
        unknown = [s for s in strategies if s not in STRATEGY_NAMES]
        if unknown:
            raise StrategyError(
                f"unknown strategies {unknown}; choose from "
                f"{STRATEGY_NAMES}"
            )
        self.arch = arch
        self.dtype_bytes = dtype_bytes
        # Keep canonical (tie-break) order regardless of caller order.
        self.strategies = tuple(
            s for s in STRATEGY_NAMES if s in set(strategies)
        )
        self.cost_model = cost_model or StrategyCostModel(dtype_bytes)
        # Per-shape macro-kernel plans and the simulator are built
        # lazily: plain modeled ranking never pays for them.
        self._plan_cache: Dict[Tuple, Optional[object]] = {}
        self._sim = None

    # -- single contraction ------------------------------------------------

    def rank(self, contraction) -> StrategyChoice:
        """Rank the considered strategies for one contraction."""
        traffic = self.cost_model.traffic(contraction)
        order = sorted(
            self.strategies,
            key=lambda name: (
                traffic[name].total, STRATEGY_NAMES.index(name)
            ),
        )
        applicable = [n for n in order if traffic[n].applicable]
        if not applicable:
            raise StrategyError(
                f"no applicable strategy among {self.strategies} for "
                f"{contraction}"
            )
        return StrategyChoice(
            selected=applicable[0],
            ranking=tuple((name, traffic[name]) for name in order),
        )

    def choose(self, contraction) -> StrategyChoice:
        """Rank and record the winner in the obs counters."""
        with obs.span("strategy.select"):
            choice = self.rank(contraction)
        obs.inc(f"strategy.selected.{choice.selected}")
        return choice

    # -- simulated ranking -------------------------------------------------

    def _macro_plan(self, contraction, name, descriptor):
        """A representative macro-kernel plan for one strategy.

        ``direct`` searches the contraction itself (the inner
        contraction for batched inputs); the pack-based strategies
        search their macro GEMM — TTGT/GETT the ``m×n×k`` matricised
        product, StridedBatchedGEMM the per-batch ``bm×bn×bk`` GEMM
        with the batch count folded into the rows.  Search results are
        cached per shape, so ranking a suite plans each distinct GEMM
        once.
        """
        from ..core.generator import Cogent
        from ..core.plan import KernelPlan

        if name == "direct":
            core = getattr(contraction, "inner", None) or contraction
            key = ("direct", str(core), tuple(sorted(core.sizes.items())))
        else:
            if name == "batched":
                if descriptor.b_count == 0:
                    return None
                m, n, k = (
                    descriptor.bm * descriptor.b_count,
                    descriptor.bn,
                    descriptor.bk,
                )
            else:
                m, n, k = descriptor.m, descriptor.n, descriptor.k
            if min(m, n, k) < 2:
                return None
            key = ("gemm", m, n, k)
        cached = self._plan_cache.get(key)
        if cached is not None or key in self._plan_cache:
            return cached
        if name == "direct":
            target = getattr(contraction, "inner", None) or contraction
        else:
            from ..core.parser import parse

            m, n, k = key[1:]
            target = parse("ab-ac-cb", {"a": m, "b": n, "c": k})
        generator = Cogent(
            arch=self.arch, dtype_bytes=self.dtype_bytes,
            allow_split=False,
        )
        plan = None
        for config, _cost in generator.rank_configs(target)[:8]:
            try:
                candidate = KernelPlan(target, config, self.dtype_bytes)
                self._simulator().simulate(candidate)
            except ValueError:
                continue
            plan = candidate
            break
        self._plan_cache[key] = plan
        return plan

    def _simulator(self):
        from ..gpu.arch import get_arch
        from ..gpu.simulator import GpuSimulator

        if self._sim is None:
            self._sim = GpuSimulator(get_arch(self.arch))
        return self._sim

    def simulate_rank(self, contraction) -> SimulatedStrategyChoice:
        """Rank the applicable strategies on simulated macro-kernel time.

        Each strategy's *full* modeled traffic (pack + macro + unpack
        transactions) is charged to the simulator through the measured-
        traffic override while the representative macro-kernel plan
        supplies occupancy and compute/smem cycles — so the ranking
        folds in the roofline terms raw transaction counts cannot see.
        Strategies whose macro-kernel cannot be planned keep their
        modeled-traffic order after every simulated one.
        """
        modeled = self.rank(contraction)
        descriptor = strategy_descriptor(contraction)
        traffic = dict(modeled.ranking)
        times: Dict[str, Optional[float]] = {}
        with obs.span("strategy.simulate"):
            for name in self.strategies:
                t = traffic[name]
                if not t.applicable:
                    continue
                plan = self._macro_plan(contraction, name, descriptor)
                if plan is None:
                    times[name] = None
                    continue
                try:
                    result = self._simulator().simulate(
                        plan,
                        traffic=TransactionEstimate(
                            load_a=int(t.macro),
                            load_b=int(t.pack),
                            store_c=int(t.unpack),
                            transaction_bytes=self._simulator()
                            .arch.transaction_bytes,
                        ),
                    )
                except ValueError:
                    times[name] = None
                    continue
                times[name] = result.time_s
                obs.inc(f"strategy.simulated.{name}")
        simulated = sorted(
            (n for n, v in times.items() if v is not None),
            key=lambda n: (times[n], STRATEGY_NAMES.index(n)),
        )
        fallback = [
            n for n, _ in modeled.ranking
            if traffic[n].applicable and times.get(n) is None
        ]
        inapplicable = [
            n for n, _ in modeled.ranking if not traffic[n].applicable
        ]
        ranking = tuple(simulated + fallback + inapplicable)
        selected = (simulated + fallback)[0]
        return SimulatedStrategyChoice(
            selected=selected,
            ranking=ranking,
            times=times,
            modeled=modeled,
        )

    def choose_simulated(self, contraction) -> SimulatedStrategyChoice:
        """Simulated ranking, recorded in the obs counters."""
        choice = self.simulate_rank(contraction)
        obs.inc(f"strategy.selected.{choice.selected}")
        return choice

    # -- whole suite (columnar) -------------------------------------------

    def rank_suite(
        self,
        contractions: Sequence,
        labels: Optional[Sequence[str]] = None,
    ) -> SuiteSelection:
        """Rank every contraction in one vectorized evaluation.

        Descriptor encoding is a cheap per-contraction Python pass;
        all per-strategy traffic is then int64 column arithmetic, so a
        48-entry suite ranks in milliseconds.
        """
        if labels is None:
            labels = [str(c) for c in contractions]
        descriptors = [strategy_descriptor(c) for c in contractions]
        full = self.cost_model.traffic_matrix(descriptors)
        cols = [STRATEGY_NAMES.index(name) for name in self.strategies]
        matrix = full[:, cols]
        winner_idx = np.argmin(matrix, axis=1)
        winners = tuple(self.strategies[j] for j in winner_idx)
        for winner in winners:
            obs.inc(f"strategy.selected.{winner}")
        return SuiteSelection(
            labels=tuple(labels),
            strategies=self.strategies,
            matrix=matrix,
            winners=winners,
        )
