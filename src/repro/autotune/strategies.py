"""Search strategies over the raw configuration space.

Four empirical strategies (random search, hill climbing, simulated
annealing, a genetic algorithm) plus the model-driven approach wrapped
in the same interface, so the cost of each route to a fast kernel can
be compared on a common best-so-far-per-evaluation axis.  The paper's
position (Section VI) is that model-driven selection *complements*
search: the model reaches near-optimal configurations with zero or few
empirical evaluations, while search needs hundreds to thousands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..core.costmodel import TRANSACTION_BYTES, CostModel, contiguous_run
from ..core.generator import Cogent
from ..core.mapping import KernelConfig
from ..core.plan import KernelPlan
from ..gpu.arch import GpuArch
from ..gpu.occupancy import compute_occupancy
from ..gpu.simulator import GpuSimulator
from .base import Evaluator, Tuner, TuneTrace
from .space import ConfigSpace


class RandomSearch(Tuner):
    """Uniform random sampling of the raw space."""

    name = "random"

    def tune(self, evaluator: Evaluator) -> TuneTrace:
        rng = self.rng()
        space = ConfigSpace(evaluator.contraction)
        trace = self._trace()
        trace.strategy = self.name
        for _ in range(self.budget):
            config = space.random_config(rng)
            self._record(trace, config, evaluator.fitness(config))
        return trace


class HillClimb(Tuner):
    """Greedy local search with random restarts."""

    name = "hill-climb"

    def __init__(self, budget: int = 200, seed: int = 0,
                 patience: int = 12) -> None:
        super().__init__(budget, seed)
        self.patience = patience

    def tune(self, evaluator: Evaluator) -> TuneTrace:
        rng = self.rng()
        space = ConfigSpace(evaluator.contraction)
        trace = self._trace()
        trace.strategy = self.name
        current = space.random_config(rng)
        current_fit = evaluator.fitness(current)
        self._record(trace, current, current_fit)
        stale = 0
        while trace.evaluations < self.budget:
            candidate = space.neighbor(current, rng)
            fit = evaluator.fitness(candidate)
            self._record(trace, candidate, fit)
            if fit > current_fit:
                current, current_fit = candidate, fit
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    current = space.random_config(rng)
                    current_fit = evaluator.fitness(current)
                    if trace.evaluations < self.budget:
                        self._record(trace, current, current_fit)
                    stale = 0
        return trace


class SimulatedAnnealing(Tuner):
    """Metropolis acceptance over single-index perturbations."""

    name = "annealing"

    def __init__(
        self,
        budget: int = 200,
        seed: int = 0,
        initial_temperature: float = 0.4,
    ) -> None:
        super().__init__(budget, seed)
        self.initial_temperature = initial_temperature

    def tune(self, evaluator: Evaluator) -> TuneTrace:
        rng = self.rng()
        space = ConfigSpace(evaluator.contraction)
        trace = self._trace()
        trace.strategy = self.name
        current = space.random_config(rng)
        current_fit = evaluator.fitness(current)
        self._record(trace, current, current_fit)
        while trace.evaluations < self.budget:
            progress = trace.evaluations / self.budget
            temperature = self.initial_temperature * (1 - progress) + 1e-6
            candidate = space.neighbor(current, rng)
            fit = evaluator.fitness(candidate)
            self._record(trace, candidate, fit)
            if fit >= current_fit:
                accept = True
            else:
                # Relative-degradation Metropolis rule.
                scale = max(current_fit, 1e-9)
                accept = rng.random() < math.exp(
                    -(current_fit - fit) / (scale * temperature)
                )
            if accept:
                current, current_fit = candidate, fit
        return trace


class GeneticSearch(Tuner):
    """Tournament-selection GA (the TC baseline's algorithm, applied to
    the COGENT-quality template)."""

    name = "genetic"

    def __init__(
        self,
        budget: int = 200,
        seed: int = 0,
        population: int = 20,
        elite_fraction: float = 0.1,
        mutation_rate: float = 0.2,
        tournament: int = 3,
    ) -> None:
        super().__init__(budget, seed)
        self.population = population
        self.elite_fraction = elite_fraction
        self.mutation_rate = mutation_rate
        self.tournament = tournament

    def tune(self, evaluator: Evaluator) -> TuneTrace:
        rng = self.rng()
        space = ConfigSpace(evaluator.contraction)
        trace = self._trace()
        trace.strategy = self.name
        population = [
            space.random_config(rng) for _ in range(self.population)
        ]
        while trace.evaluations < self.budget:
            scored: List[Tuple[float, KernelConfig]] = []
            for config in population:
                if trace.evaluations >= self.budget:
                    break
                fit = evaluator.fitness(config)
                self._record(trace, config, fit)
                scored.append((fit, config))
            if not scored:
                break
            scored.sort(key=lambda pair: pair[0], reverse=True)
            n_elite = max(1, int(self.elite_fraction * self.population))
            next_pop = [config for _, config in scored[:n_elite]]
            while len(next_pop) < self.population:
                parents = []
                for _ in range(2):
                    picks = rng.integers(len(scored),
                                         size=self.tournament)
                    parents.append(scored[int(picks.min())][1])
                child = space.crossover(parents[0], parents[1], rng)
                child = space.mutate(child, rng, self.mutation_rate)
                next_pop.append(child)
            population = next_pop
        return trace


class ModelDriven(Tuner):
    """COGENT wrapped in the tuner interface.

    The cost model needs no empirical evaluations; the optional top-k
    micro-benchmark charges k evaluations, so traces are comparable.
    """

    name = "model-driven"

    def __init__(self, generator: Optional[Cogent] = None,
                 budget: int = 0, seed: int = 0) -> None:
        super().__init__(budget, seed)
        self.generator = generator

    def tune(self, evaluator: Evaluator) -> TuneTrace:
        generator = self.generator or Cogent(
            arch=evaluator.simulator.arch,
            dtype_bytes=evaluator.dtype_bytes,
            allow_split=False,
        )
        kernel = generator.generate(evaluator.contraction)
        trace = self._trace()
        trace.strategy = self.name
        charged = min(
            generator.top_k, max(1, len(kernel.candidates))
        )
        for cand in kernel.candidates[:charged]:
            self._record(
                trace, cand.config, evaluator.fitness(cand.config)
            )
        return trace


# -- the guided loop's online correction -------------------------------------

#: Log-space feature vector, one weight per name and regime.  The
#: intercept absorbs the constant bias; the transaction columns carry
#: Algorithm 3's per-tensor estimates; occupancy and the cycle
#: estimates expose the simulator terms the pure transaction count
#: cannot see.
FEATURE_NAMES = (
    "intercept",
    "log_load_a",
    "log_load_b",
    "log_store_c",
    "occupancy",
    "log_fma_cycles",
    "log_smem_cycles",
    "log_waves",
)

#: Contiguity regimes the correction is fitted per.  A configuration is
#: ``coalesced`` when both staged input tiles cover at least one full
#: DRAM transaction along their fastest-varying index, ``strided``
#: otherwise — the boundary where the analytic segment arithmetic
#: changes error character.
REGIMES = ("coalesced", "strided")


def contiguity_regime(plan: KernelPlan) -> str:
    """The contiguity regime of one plan (see :data:`REGIMES`)."""
    contraction = plan.contraction
    txn = TRANSACTION_BYTES
    run_a = contiguous_run(plan, contraction.a)
    run_b = contiguous_run(plan, contraction.b)
    coalesced = (
        run_a * plan.dtype_bytes >= txn and run_b * plan.dtype_bytes >= txn
    )
    return "coalesced" if coalesced else "strided"


def plan_features(
    plan: KernelPlan,
    arch: GpuArch,
    simulator: Optional[GpuSimulator] = None,
) -> Tuple[float, ...]:
    """The :data:`FEATURE_NAMES` vector of one plan, in log space.

    Raises :class:`ValueError` when the plan cannot run on ``arch`` at
    all (zero occupancy) — such configurations carry no signal.
    """
    simulator = simulator or GpuSimulator(arch)
    estimate = CostModel(plan.dtype_bytes, arch.transaction_bytes).estimate(
        plan, clipped=True
    )
    occ = compute_occupancy(
        arch,
        plan.threads_per_block,
        plan.smem_bytes,
        plan.config.registers_per_thread(plan.dtype_bytes),
    )
    if occ.blocks_per_sm == 0:
        raise ValueError(
            f"plan cannot run on {arch.name}: blocked by {occ.limiter}"
        )
    fma_cycles = simulator._fma_cycles(plan, occ)
    smem_cycles = simulator._smem_cycles(plan)
    blocks_per_wave = occ.blocks_per_sm * arch.num_sms
    waves = max(1, -(-plan.num_blocks // blocks_per_wave))
    return (
        1.0,
        math.log1p(estimate.load_a),
        math.log1p(estimate.load_b),
        math.log1p(estimate.store_c),
        occ.fraction,
        math.log1p(fma_cycles),
        math.log1p(smem_cycles),
        math.log1p(waves),
    )


#: Ridge penalty on the non-intercept weights (scaled by the row
#: count).  An unregularised solve overfits the handful of measured
#: rows; shrinking toward the intercept-only correction (a constant
#: shift, which is rank-preserving) keeps the corrected ranking no
#: worse than analytic when the features carry no transferable signal.
RIDGE_LAMBDA = 0.1


def fit_head(
    features: np.ndarray, residuals: np.ndarray
) -> Tuple[float, ...]:
    """Ridge-regularised least-squares weights for one regime.

    With fewer rows than features the fit falls back to intercept-only
    (the mean residual) — the regression would be underdetermined and
    even the regularised completion is noise.  The intercept itself is
    never penalised: a constant log-space shift is rank-preserving and
    free to absorb the mean bias.
    """
    if len(residuals) == 0:
        return (0.0,) * len(FEATURE_NAMES)
    if len(residuals) < features.shape[1]:
        coeffs = [float(np.mean(residuals))]
        coeffs += [0.0] * (len(FEATURE_NAMES) - 1)
        return tuple(coeffs)
    n, d = features.shape
    penalty = RIDGE_LAMBDA * np.eye(d)
    penalty[0, 0] = 0.0
    solution = np.linalg.solve(
        features.T @ features + n * penalty,
        features.T @ residuals,
    )
    return tuple(float(c) for c in solution)


@dataclass
class _Candidate:
    """One shortlist member of the guided loop."""

    config: KernelConfig
    cost: int
    features: Tuple[float, ...]
    regime: str
    analytic_time: float
    measured_time: Optional[float] = None
    measured_gflops: float = 0.0


@dataclass
class GuidedReport:
    """Loop accounting of one :class:`ModelGuidedStrategy` run."""

    shortlist: int = 0
    rounds: int = 0
    measurements: int = 0
    stabilized: bool = False
    online_refits: int = 0
    predicted_best: str = ""

    def as_dict(self) -> Dict:
        return {
            "shortlist": self.shortlist,
            "rounds": self.rounds,
            "measurements": self.measurements,
            "stabilized": self.stabilized,
            "online_refits": self.online_refits,
            "predicted_best": self.predicted_best,
        }


class ModelGuidedStrategy(Tuner):
    """Model-guided measurement loop (the Fig. 8 claim).

    The columnar engine ranks the pruned space by the analytic model;
    the simulator *measures* the top few candidates by predicted time;
    an online correction (:func:`fit_head` on :func:`plan_features`)
    refits on every measurement and re-ranks the rest; and the loop
    stops as soon as the predicted-best configuration stabilises.  A
    handful of simulated measurements (``budget`` defaults to the
    paper's ≤8) reaches within a few percent of exhaustively measuring
    the space.

    Deterministic end to end: the shortlist order, feature arithmetic,
    least-squares refits and the stop rule contain no randomness (the
    inherited ``seed`` is unused).
    """

    name = "model-guided"

    def __init__(
        self,
        budget: int = 8,
        seed: int = 0,
        shortlist: int = 64,
        batch: int = 2,
        stable_rounds: int = 2,
        generator: Optional[Cogent] = None,
    ) -> None:
        super().__init__(budget, seed)
        self.shortlist = max(1, shortlist)
        self.batch = max(1, batch)
        self.stable_rounds = max(1, stable_rounds)
        self.generator = generator
        self.last_report: GuidedReport = GuidedReport()

    # -- internals -------------------------------------------------------

    def _shortlist(self, evaluator: Evaluator) -> List[_Candidate]:
        generator = self.generator or Cogent(
            arch=evaluator.simulator.arch,
            dtype_bytes=evaluator.dtype_bytes,
            allow_split=False,
        )
        ranked = generator.rank_configs(evaluator.contraction)
        candidates: List[_Candidate] = []
        arch = evaluator.simulator.arch
        for config, cost in ranked:
            if len(candidates) >= self.shortlist:
                break
            try:
                plan = KernelPlan(
                    evaluator.contraction, config, evaluator.dtype_bytes
                )
                features = plan_features(plan, arch, evaluator.simulator)
                analytic = evaluator.simulator.simulate(plan).time_s
            except ValueError:
                continue
            candidates.append(
                _Candidate(
                    config=config,
                    cost=cost,
                    features=features,
                    regime=contiguity_regime(plan),
                    analytic_time=analytic,
                )
            )
        return candidates

    @staticmethod
    def _online_coefficients(
        candidates: List[_Candidate],
    ) -> Dict[str, Tuple[float, ...]]:
        """Per-regime log-time correction fitted on measurements."""
        coefficients: Dict[str, Tuple[float, ...]] = {}
        for regime in {c.regime for c in candidates}:
            rows = [
                c for c in candidates
                if c.regime == regime
                and c.measured_time is not None
                and c.measured_time > 0
                and math.isfinite(c.measured_time)
            ]
            if not rows:
                continue
            matrix = np.array(
                [r.features for r in rows], dtype=np.float64
            )
            targets = np.array(
                [
                    math.log(r.measured_time) - math.log(r.analytic_time)
                    for r in rows
                ],
                dtype=np.float64,
            )
            coefficients[regime] = fit_head(matrix, targets)
        return coefficients

    @staticmethod
    def _predicted_time(
        candidate: _Candidate,
        online: Dict[str, Tuple[float, ...]],
    ) -> float:
        if candidate.measured_time is not None:
            return candidate.measured_time
        correction = 0.0
        coeffs = online.get(candidate.regime)
        if coeffs is not None:
            correction += sum(
                c * f for c, f in zip(coeffs, candidate.features)
            )
        return candidate.analytic_time * math.exp(correction)

    def _best_key(
        self,
        candidates: List[_Candidate],
        online: Dict[str, Tuple[float, ...]],
    ) -> str:
        best = min(
            candidates,
            key=lambda c: (
                self._predicted_time(c, online),
                c.cost,
                c.config.describe(),
            ),
        )
        return best.config.describe()

    # -- the loop --------------------------------------------------------

    def tune(self, evaluator: Evaluator) -> TuneTrace:
        trace = self._trace()
        trace.strategy = self.name
        report = GuidedReport()
        self.last_report = report
        with obs.span("tune.guided"):
            candidates = self._shortlist(evaluator)
            report.shortlist = len(candidates)
            if not candidates:
                return trace
            online: Dict[str, Tuple[float, ...]] = {}
            stable = 0
            last_best = self._best_key(candidates, online)
            while trace.evaluations < self.budget:
                pending = [
                    c for c in candidates if c.measured_time is None
                ]
                if not pending:
                    break
                pending.sort(
                    key=lambda c: (
                        self._predicted_time(c, online),
                        c.cost,
                        c.config.describe(),
                    ),
                )
                room = self.budget - trace.evaluations
                for candidate in pending[: min(self.batch, room)]:
                    gflops = evaluator.fitness(candidate.config)
                    self._record(trace, candidate.config, gflops)
                    candidate.measured_gflops = gflops
                    candidate.measured_time = (
                        evaluator.contraction.flops / (gflops * 1e9)
                        if gflops > 0
                        else float("inf")
                    )
                    report.measurements += 1
                    obs.inc("autotune.guided.measurements")
                online = self._online_coefficients(candidates)
                report.online_refits += 1
                obs.inc("autotune.guided.online_refits")
                report.rounds += 1
                best = self._best_key(candidates, online)
                if best == last_best:
                    stable += 1
                else:
                    stable = 0
                    last_best = best
                measured_best = any(
                    c.measured_time is not None
                    and c.config.describe() == best
                    for c in candidates
                )
                if stable >= self.stable_rounds and measured_best:
                    report.stabilized = True
                    break
            report.predicted_best = last_best
        return trace


@dataclass
class GuidedTuneResult:
    """What :func:`repro.api.tune` returns for a guided run."""

    trace: TuneTrace
    report: GuidedReport

    @property
    def best_gflops(self) -> float:
        return self.trace.best_gflops

    @property
    def evaluations(self) -> int:
        return self.trace.evaluations

    @property
    def curve(self) -> List[float]:
        return self.trace.curve

    def as_dict(self) -> Dict:
        return {
            "strategy": self.trace.strategy,
            "best_gflops": self.best_gflops,
            "evaluations": self.evaluations,
            "curve": list(self.curve),
            "report": self.report.as_dict(),
        }


ALL_STRATEGIES = (
    RandomSearch,
    HillClimb,
    SimulatedAnnealing,
    GeneticSearch,
)
