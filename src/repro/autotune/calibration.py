"""Calibrated cost model: a fitted correction on top of Algorithm 3.

The analytic model (ROADMAP item 5; Peise & Bientinesi's sampling-based
BLAS performance prediction is the template) ranks well but its absolute
predictions drift from the ground truth in regime-dependent ways: the
segment arithmetic over-counts partially covered boundary tiles, and the
roofline simulator's occupancy/issue corrections bend the
transaction→time mapping differently for coalesced and strided staging.
This module fits a small per-architecture, per-contiguity-regime linear
correction — ordinary least squares on log-space features — mapping

* the analytic :class:`~repro.core.costmodel.CostModel` transaction
  estimate to the **exact** :class:`~repro.gpu.memory.VectorizedReplay`
  count (the ``txn`` head), and
* the analytic simulated time to the simulator time charged with the
  **measured** traffic (the ``time`` head),

cross-validated with held-out TCCG contractions (leave-group-out folds;
the split depends only on sorted benchmark names, never on worker
count).  Fitted models persist as content-addressed entries in the
:class:`~repro.core.program.KernelStore`, keyed on architecture, dtype
and :func:`~repro.core.program.code_version_stamp`, so warm runs skip
fitting entirely and a newer cost model never reuses coefficients fitted
against an older one.

Everything here is deterministic: features are pure arithmetic,
``numpy.linalg.lstsq`` is deterministic for fixed input, and fold
assignment is a round-robin over sorted names.  The
``autotune.calibration.*`` obs counters expose fit/store behaviour.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..core.costmodel import (
    TRANSACTION_BYTES,
    CostModel,
    TransactionEstimate,
    contiguous_run,
)
from ..core.generator import Cogent
from ..core.ir import Contraction
from ..core.plan import KernelPlan
from ..core.program import STORE_VERSION, KernelStore, code_version_stamp
from ..gpu.arch import GpuArch, get_arch
from ..gpu.memory import count_transactions
from ..gpu.occupancy import compute_occupancy
from ..gpu.simulator import GpuSimulator

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

#: Prediction heads: ``txn`` corrects log total transactions toward the
#: exact replay, ``time`` corrects log simulated time toward the
#: measured-traffic simulation.
HEADS = ("txn", "time")

#: Default TCCG slice the convenience fitter samples (one entry per
#: structural family; benchmarks hold these out explicitly when
#: cross-validating).
DEFAULT_FIT_SUITE = (
    "ttm_mode2",
    "mo_stage1",
    "ccsd_eq1",
    "sd_t_d2_1",
    "sd_t_d1_1",
    "ccsd_mx1",
)


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


@dataclass(frozen=True)
class CalibrationSample:
    """One (configuration, ground truth) observation.

    Residuals are what the correction is fitted on:
    ``log_exact_txn - log_analytic_txn`` for the ``txn`` head and
    ``log_true_time - log_analytic_time`` for the ``time`` head.
    """

    benchmark: str
    regime: str
    features: Tuple[float, ...]
    log_analytic_txn: float
    log_exact_txn: float
    log_analytic_time: float
    log_true_time: float

    def residual(self, head: str) -> float:
        if head == "txn":
            return self.log_exact_txn - self.log_analytic_txn
        if head == "time":
            return self.log_true_time - self.log_analytic_time
        raise ValueError(f"unknown head {head!r}; choose from {HEADS}")


def collect_samples(
    contraction: Contraction,
    benchmark: str,
    arch: Union[str, GpuArch] = "V100",
    dtype_bytes: int = 8,
    per_contraction: int = 24,
    generator: Optional[Cogent] = None,
) -> List[CalibrationSample]:
    """Sample ``per_contraction`` configurations with exact ground truth.

    Configurations are taken uniformly across the cost-ranked space (the
    same spread ``bench_costmodel_correlation.py`` uses), replayed with
    the vectorized exact counter, and re-simulated with the measured
    traffic to obtain the time ground truth.
    """
    arch = get_arch(arch) if isinstance(arch, str) else arch
    generator = generator or Cogent(
        arch=arch, dtype_bytes=dtype_bytes, allow_split=False
    )
    simulator = GpuSimulator(arch)
    ranked = generator.rank_configs(contraction)
    take = np.linspace(
        0, len(ranked) - 1, min(len(ranked), per_contraction)
    )
    samples: List[CalibrationSample] = []
    with obs.span("calibration.sample"):
        for i in take:
            config, _cost = ranked[int(i)]
            plan = KernelPlan(contraction, config, dtype_bytes)
            try:
                features = plan_features(plan, arch, simulator)
            except ValueError:
                continue
            analytic = simulator.simulate(plan)
            measured = count_transactions(plan, exact=True)
            true = simulator.simulate(
                plan,
                traffic=TransactionEstimate(
                    load_a=measured.load_a,
                    load_b=measured.load_b,
                    store_c=measured.store_c,
                    transaction_bytes=arch.transaction_bytes,
                ),
            )
            analytic_txn = CostModel(
                dtype_bytes, arch.transaction_bytes
            ).estimate(plan).total
            samples.append(
                CalibrationSample(
                    benchmark=benchmark,
                    regime=contiguity_regime(plan),
                    features=features,
                    log_analytic_txn=math.log1p(analytic_txn),
                    log_exact_txn=math.log1p(measured.total),
                    log_analytic_time=math.log(analytic.time_s),
                    log_true_time=math.log(true.time_s),
                )
            )
    obs.inc("autotune.calibration.samples", len(samples))
    return samples


# -- the fitted model --------------------------------------------------------


@dataclass(frozen=True)
class CalibrationModel:
    """Per-arch, per-regime linear corrections in log space.

    ``coefficients[regime][head]`` is one weight per
    :data:`FEATURE_NAMES` entry; an absent regime predicts a zero
    residual (identity correction), so an unfitted model degrades to the
    plain analytic prediction.
    """

    arch: str
    dtype_bytes: int
    code_stamp: str
    coefficients: Dict[str, Dict[str, Tuple[float, ...]]]
    samples: int

    # -- prediction ------------------------------------------------------

    def residual(
        self, features: Sequence[float], regime: str, head: str
    ) -> float:
        heads = self.coefficients.get(regime)
        if heads is None or head not in heads:
            return 0.0
        coeffs = heads[head]
        return float(
            sum(c * f for c, f in zip(coeffs, features))
        )

    def predict_time(
        self,
        plan: KernelPlan,
        arch: Optional[GpuArch] = None,
        simulator: Optional[GpuSimulator] = None,
    ) -> float:
        """Calibrated predicted execution time (seconds) of ``plan``."""
        arch = arch or get_arch(self.arch)
        simulator = simulator or GpuSimulator(arch)
        features = plan_features(plan, arch, simulator)
        analytic = simulator.simulate(plan).time_s
        correction = self.residual(
            features, contiguity_regime(plan), "time"
        )
        obs.inc("autotune.calibration.predictions")
        return analytic * math.exp(correction)

    def predict_transactions(
        self,
        plan: KernelPlan,
        arch: Optional[GpuArch] = None,
    ) -> float:
        """Calibrated total-transaction prediction of ``plan``."""
        arch = arch or get_arch(self.arch)
        features = plan_features(plan, arch)
        analytic = CostModel(
            plan.dtype_bytes, arch.transaction_bytes
        ).estimate(plan).total
        correction = self.residual(
            features, contiguity_regime(plan), "txn"
        )
        obs.inc("autotune.calibration.predictions")
        return float(analytic) * math.exp(correction)

    # -- serialisation ---------------------------------------------------

    def as_dict(self) -> Dict:
        return {
            "arch": self.arch,
            "dtype_bytes": self.dtype_bytes,
            "code_stamp": self.code_stamp,
            "feature_names": list(FEATURE_NAMES),
            "coefficients": {
                regime: {
                    head: list(coeffs) for head, coeffs in heads.items()
                }
                for regime, heads in self.coefficients.items()
            },
            "samples": self.samples,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "CalibrationModel":
        return cls(
            arch=payload["arch"],
            dtype_bytes=payload["dtype_bytes"],
            code_stamp=payload["code_stamp"],
            coefficients={
                regime: {
                    head: tuple(coeffs) for head, coeffs in heads.items()
                }
                for regime, heads in payload["coefficients"].items()
            },
            samples=payload["samples"],
        )


#: Ridge penalty on the non-intercept weights (scaled by the row
#: count).  An unregularised solve overfits the few hundred calibration
#: rows and can *destroy* an already-excellent analytic ranking on
#: held-out contractions; shrinking toward the intercept-only
#: correction (a constant shift, which is rank-preserving) keeps the
#: calibrated model no worse than analytic when the features carry no
#: transferable signal.  Chosen by leave-group-out cross-validation on
#: the TCCG representatives (``bench_costmodel_correlation.py``).
RIDGE_LAMBDA = 0.1


def fit_head(
    features: np.ndarray, residuals: np.ndarray
) -> Tuple[float, ...]:
    """Ridge-regularised least-squares weights for one (regime, head).

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


def fit_calibration(
    samples: Sequence[CalibrationSample],
    arch: str = "V100",
    dtype_bytes: int = 8,
    stamp: Optional[str] = None,
) -> CalibrationModel:
    """Fit per-regime, per-head corrections on ``samples``.

    Deterministic: identical samples (in any order) produce identical
    coefficients — rows are sorted on every field before the solve, so
    samples that tie on benchmark, regime and features still sum in one
    fixed order.
    """
    with obs.span("calibration.fit"):
        ordered = sorted(
            samples,
            key=lambda s: (
                s.benchmark, s.regime, s.features,
                s.log_analytic_txn, s.log_exact_txn,
                s.log_analytic_time, s.log_true_time,
            ),
        )
        coefficients: Dict[str, Dict[str, Tuple[float, ...]]] = {}
        for regime in REGIMES:
            rows = [s for s in ordered if s.regime == regime]
            if not rows:
                continue
            matrix = np.array(
                [row.features for row in rows], dtype=np.float64
            )
            heads: Dict[str, Tuple[float, ...]] = {}
            for head in HEADS:
                targets = np.array(
                    [row.residual(head) for row in rows],
                    dtype=np.float64,
                )
                heads[head] = fit_head(matrix, targets)
            coefficients[regime] = heads
    obs.inc("autotune.calibration.fits")
    return CalibrationModel(
        arch=arch,
        dtype_bytes=dtype_bytes,
        code_stamp=stamp or code_version_stamp(),
        coefficients=coefficients,
        samples=len(samples),
    )


# -- cross-validation --------------------------------------------------------


def _spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation, NumPy-only (average ranks on ties)."""
    if len(a) < 2:
        return 0.0

    def ranks(values: Sequence[float]) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        order = np.argsort(arr, kind="stable")
        rank = np.empty(len(arr), dtype=np.float64)
        rank[order] = np.arange(len(arr), dtype=np.float64)
        # Average the ranks of tied values.
        for value in np.unique(arr):
            mask = arr == value
            if mask.sum() > 1:
                rank[mask] = rank[mask].mean()
        return rank

    ra, rb = ranks(a), ranks(b)
    sa, sb = ra.std(), rb.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


def fold_assignment(
    benchmarks: Sequence[str], folds: int
) -> Dict[str, int]:
    """Deterministic fold index per benchmark name.

    Round-robin over the *sorted* unique names: the split depends only
    on which benchmarks participate, never on sample order, dict
    insertion order or how many workers evaluate the folds.
    """
    names = sorted(set(benchmarks))
    folds = max(1, min(folds, len(names)))
    return {name: i % folds for i, name in enumerate(names)}


@dataclass(frozen=True)
class FoldResult:
    """Held-out scores of one cross-validation fold."""

    fold: int
    held_out: Tuple[str, ...]
    analytic_rho: float
    calibrated_rho: float

    @property
    def uplift(self) -> float:
        return self.calibrated_rho - self.analytic_rho

    def as_dict(self) -> Dict:
        return {
            "fold": self.fold,
            "held_out": list(self.held_out),
            "analytic_rho": self.analytic_rho,
            "calibrated_rho": self.calibrated_rho,
            "uplift": self.uplift,
        }


@dataclass(frozen=True)
class CrossValidation:
    """Leave-group-out cross-validation of the calibrated model."""

    folds: Tuple[FoldResult, ...]

    @property
    def mean_analytic_rho(self) -> float:
        return float(np.mean([f.analytic_rho for f in self.folds]))

    @property
    def mean_calibrated_rho(self) -> float:
        return float(np.mean([f.calibrated_rho for f in self.folds]))

    @property
    def uplift(self) -> float:
        return self.mean_calibrated_rho - self.mean_analytic_rho

    def as_dict(self) -> Dict:
        return {
            "folds": [f.as_dict() for f in self.folds],
            "mean_analytic_rho": self.mean_analytic_rho,
            "mean_calibrated_rho": self.mean_calibrated_rho,
            "uplift": self.uplift,
        }


def _evaluate_fold(
    payload: Tuple[int, Tuple[str, ...], Tuple[CalibrationSample, ...],
                   Tuple[CalibrationSample, ...], str, int]
) -> FoldResult:
    """Fit on the train split, score rank correlation on the held-out.

    Scores are the mean *within-benchmark* Spearman correlation across
    the held-out contractions: ranking configurations within one
    contraction's space is what the guided loop consumes, and pooling
    across contractions would mostly measure the (easy) cross-problem
    scale separation instead.

    Module-level (not a closure) so cross-validation can fan folds out
    over a process pool; results are merged back in fold order, so the
    parallel path is bit-identical to serial.
    """
    fold, held_out, train, test, arch, dtype_bytes = payload
    model = fit_calibration(train, arch=arch, dtype_bytes=dtype_bytes)
    analytic_rhos, calibrated_rhos = [], []
    for name in sorted({s.benchmark for s in test}):
        group = [s for s in test if s.benchmark == name]
        true_times = [s.log_true_time for s in group]
        analytic = [s.log_analytic_time for s in group]
        calibrated = [
            s.log_analytic_time
            + model.residual(s.features, s.regime, "time")
            for s in group
        ]
        analytic_rhos.append(_spearman(analytic, true_times))
        calibrated_rhos.append(_spearman(calibrated, true_times))
    return FoldResult(
        fold=fold,
        held_out=held_out,
        analytic_rho=float(np.mean(analytic_rhos)),
        calibrated_rho=float(np.mean(calibrated_rhos)),
    )


def cross_validate(
    samples: Sequence[CalibrationSample],
    arch: str = "V100",
    dtype_bytes: int = 8,
    folds: int = 3,
    workers: int = 1,
) -> CrossValidation:
    """Leave-group-out correlation uplift of calibrated vs analytic.

    Each fold holds out whole benchmarks (never individual samples, so
    the test measures generalisation across contractions), fits on the
    rest and compares held-out Spearman rank correlation against the
    true times.  ``workers > 1`` evaluates folds in a process pool;
    fold assignment and results are identical to the serial run.
    """
    assignment = fold_assignment([s.benchmark for s in samples], folds)
    n_folds = max(assignment.values()) + 1 if assignment else 1
    ordered = sorted(
        samples, key=lambda s: (s.benchmark, s.regime, s.features)
    )
    payloads = []
    for fold in range(n_folds):
        held_out = tuple(
            name for name, f in sorted(assignment.items()) if f == fold
        )
        train = tuple(
            s for s in ordered if assignment[s.benchmark] != fold
        )
        test = tuple(
            s for s in ordered if assignment[s.benchmark] == fold
        )
        payloads.append((fold, held_out, train, test, arch, dtype_bytes))

    if workers > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_evaluate_fold, payloads))
    else:
        results = [_evaluate_fold(p) for p in payloads]
    return CrossValidation(folds=tuple(results))


# -- persistence -------------------------------------------------------------


def calibration_key(
    arch: str,
    dtype_bytes: int,
    signature: str = "",
    stamp: Optional[str] = None,
) -> str:
    """Content-addressed store key of one calibration.

    Folds in the :func:`code_version_stamp` exactly like
    :func:`~repro.core.program.workload_key`: upgrading any
    search-deciding module silently invalidates persisted coefficients.
    """
    raw = (
        f"calibration{STORE_VERSION};{stamp or code_version_stamp()};"
        f"{arch};{dtype_bytes};{signature}"
    )
    return "cal-" + hashlib.sha256(raw.encode()).hexdigest()[:24]


def save_calibration(
    store: Union[str, Path, KernelStore], model: CalibrationModel
) -> str:
    """Persist ``model``; returns the store key."""
    if not isinstance(store, KernelStore):
        store = KernelStore(store)
    key = calibration_key(model.arch, model.dtype_bytes,
                          stamp=model.code_stamp)
    payload = {"store_version": STORE_VERSION, "kind": "calibration"}
    payload.update(model.as_dict())
    store.put(key, payload)
    return key


def load_calibration(
    store: Union[str, Path, KernelStore],
    arch: str,
    dtype_bytes: int,
) -> Optional[CalibrationModel]:
    """Load the persisted calibration for (arch, dtype), if current.

    Returns ``None`` (a store miss) when no entry exists, the payload is
    not a calibration, or its code stamp differs from the running
    code's — a newer cost model never reuses stale coefficients.
    """
    if not isinstance(store, KernelStore):
        store = KernelStore(store)
    payload = store.lookup(
        calibration_key(arch, dtype_bytes),
        required=("kind", "arch", "dtype_bytes", "code_stamp",
                  "coefficients", "samples"),
    )
    if payload is None or payload.get("kind") != "calibration":
        obs.inc("autotune.calibration.store_misses")
        return None
    if payload.get("code_stamp") != code_version_stamp():
        obs.inc("autotune.calibration.store_misses")
        return None
    obs.inc("autotune.calibration.store_hits")
    return CalibrationModel.from_dict(payload)


def ensure_calibration(
    arch: Union[str, GpuArch] = "V100",
    dtype_bytes: int = 8,
    store: Optional[Union[str, Path, KernelStore]] = None,
    benchmarks: Sequence[str] = DEFAULT_FIT_SUITE,
    per_contraction: int = 24,
) -> Tuple[CalibrationModel, bool]:
    """The calibration for (arch, dtype): loaded warm or fitted cold.

    Returns ``(model, fitted)``.  With a store, a current persisted
    entry short-circuits the fit entirely (``fitted=False`` — the
    ``autotune.calibration.fits`` counter stays untouched); otherwise
    the :data:`DEFAULT_FIT_SUITE` is sampled, fitted and persisted.
    """
    arch_name = arch if isinstance(arch, str) else arch.name
    if store is not None:
        model = load_calibration(store, arch_name, dtype_bytes)
        if model is not None:
            return model, False
    from ..tccg import get

    samples: List[CalibrationSample] = []
    for name in benchmarks:
        samples.extend(
            collect_samples(
                get(name).contraction(),
                name,
                arch=arch_name,
                dtype_bytes=dtype_bytes,
                per_contraction=per_contraction,
            )
        )
    model = fit_calibration(
        samples, arch=arch_name, dtype_bytes=dtype_bytes
    )
    if store is not None:
        save_calibration(store, model)
    return model, True
