"""Common infrastructure for empirical autotuners.

Every strategy consumes an :class:`Evaluator` (fitness = simulated
GFLOPS of a configuration, with hardware-infeasible configurations
scoring zero) and produces a :class:`TuneTrace` whose ``curve`` records
best-so-far performance per evaluated configuration — the axis the
paper's Fig. 8 is drawn on.  The evaluator caches repeat evaluations
but still counts them, mirroring an empirical tuner that would rerun
the kernel.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.constraints import ConstraintChecker
from ..core.ir import Contraction
from ..core.mapping import ConfigError, KernelConfig
from ..core.plan import KernelPlan
from ..gpu.arch import GpuArch
from ..gpu.simulator import GpuSimulator


class Evaluator:
    """Counts and caches configuration fitness evaluations."""

    def __init__(
        self,
        contraction: Contraction,
        arch: GpuArch,
        dtype_bytes: int = 8,
    ) -> None:
        self.contraction = contraction
        self.dtype_bytes = dtype_bytes
        self.checker = ConstraintChecker(arch, dtype_bytes)
        self.simulator = GpuSimulator(arch)
        self.evaluations = 0
        self._cache: Dict[str, float] = {}

    def _simulate(self, plan: KernelPlan):
        """The measurement backing one evaluation (override to change
        what 'running the kernel' means)."""
        return self.simulator.simulate(plan)

    def fitness(self, config: KernelConfig) -> float:
        """Simulated GFLOPS; zero for unrunnable configurations."""
        self.evaluations += 1
        key = config.describe()
        if key in self._cache:
            return self._cache[key]
        try:
            report = self.checker.check_config(self.contraction, config)
            if not report.feasible:
                value = 0.0
            else:
                plan = KernelPlan(
                    self.contraction, config, self.dtype_bytes
                )
                value = self._simulate(plan).gflops
        except (ConfigError, ValueError):
            value = 0.0
        self._cache[key] = value
        return value


class ReplayEvaluator(Evaluator):
    """Fitness measured with exact-replay DRAM traffic.

    The plain :class:`Evaluator` charges the analytic transaction
    estimate — fine for comparing search strategies, but circular for
    judging the cost model itself.  This variant replays every evaluated
    configuration's addresses (:func:`repro.gpu.memory.\
    count_transactions` with ``exact=True``) and feeds the measured
    counts to the simulator: the reproduction's closest stand-in for
    actually running the kernel, and the measurement the model-guided
    loop (:class:`~repro.autotune.strategies.\
    ModelGuidedStrategy`) spends its budget on.
    """

    def _simulate(self, plan: KernelPlan):
        from ..core.costmodel import TransactionEstimate
        from ..gpu.memory import count_transactions

        measured = count_transactions(plan, exact=True)
        return self.simulator.simulate(
            plan,
            traffic=TransactionEstimate(
                load_a=measured.load_a,
                load_b=measured.load_b,
                store_c=measured.store_c,
                transaction_bytes=self.simulator.arch.transaction_bytes,
            ),
        )


@dataclass
class TuneTrace:
    """Search trajectory of one tuning run."""

    strategy: str
    best_config: Optional[KernelConfig]
    best_gflops: float
    curve: List[float] = field(default_factory=list)

    @property
    def evaluations(self) -> int:
        return len(self.curve)

    def evaluations_to_reach(self, target_gflops: float) -> Optional[int]:
        """First evaluation index (1-based) reaching ``target``."""
        for pos, value in enumerate(self.curve, start=1):
            if value >= target_gflops:
                return pos
        return None


class Tuner(abc.ABC):
    """Base class for search strategies over the raw config space."""

    name = "tuner"

    def __init__(self, budget: int = 200, seed: int = 0) -> None:
        self.budget = budget
        self.seed = seed

    @abc.abstractmethod
    def tune(self, evaluator: Evaluator) -> TuneTrace:
        """Search up to ``self.budget`` evaluations."""

    def _trace(self) -> TuneTrace:
        return TuneTrace(self.name, None, 0.0)

    @staticmethod
    def _record(
        trace: TuneTrace, config: KernelConfig, gflops: float
    ) -> None:
        if gflops > trace.best_gflops:
            trace.best_gflops = gflops
            trace.best_config = config
        trace.curve.append(trace.best_gflops)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)
