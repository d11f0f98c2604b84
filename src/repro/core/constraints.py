"""Hardware and performance pruning rules (paper Section IV-A).

Configurations are checked against two rule families:

* **Hardware constraints** — the block must be runnable at all: shared
  memory for the two staging buffers within the per-block capacity,
  per-thread registers within the ISA limit, threads within the block
  limit.  Violations are always fatal.
* **Performance constraints** — rules the paper uses to discard
  configurations expected to perform poorly: the output's FVI must lead
  ``TB_x`` (store coalescing), each input's FVI must carry a reasonably
  large tile (load coalescing), enough thread blocks must be launched to
  keep the SMs busy, and achievable occupancy must clear a floor.
  Violations are fatal during normal search, but the generator may relax
  them when nothing survives (tiny problem sizes).

:meth:`ConstraintChecker.check` evaluates **every** rule on one plan
and collects all violations (diagnostics, baselines, tests).  The
configuration search evaluates the same rules as batched predicates
(:mod:`repro.core.columnar`) and folds their per-rule counts into the
checker's :attr:`~ConstraintChecker.rule_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..gpu.arch import GpuArch
from ..gpu.occupancy import compute_occupancy
from .ir import Contraction
from .mapping import Dim, KernelConfig
from .plan import KernelPlan


@dataclass(frozen=True)
class ConstraintPolicy:
    """Tunable thresholds for the performance constraints."""

    #: Minimum thread blocks, as a multiple of the SM count.
    min_blocks_per_sm: float = 1.0
    #: Minimum achievable occupancy fraction.  Register-tiled DP kernels
    #: run well below 25% occupancy (one 256-thread block per SM), so the
    #: floor only rejects configurations that cannot hide any latency.
    min_occupancy: float = 0.12
    #: Minimum tile size on each input tensor's FVI (coalescing).
    min_fvi_tile: int = 4
    #: Minimum threads per block (at least a warp, ideally more).
    min_threads: int = 32
    #: Maximum serial steps blow-up guard (0 disables the rule).
    max_steps: int = 0


@dataclass
class RuleStats:
    """Measured behaviour of one pruning rule."""

    checks: int = 0
    rejections: int = 0
    time_s: float = 0.0

    @property
    def selectivity(self) -> float:
        """Fraction of checked configurations this rule rejected."""
        return self.rejections / self.checks if self.checks else 0.0

    @property
    def cost_s(self) -> float:
        """Mean wall-time of one evaluation of this rule."""
        return self.time_s / self.checks if self.checks else 0.0

    @property
    def efficiency(self) -> float:
        """Rejections per second of checking.

        A rule with zero recorded checks rates neutrally at 0.0, and a
        zero check time must not divide by zero.
        """
        if self.checks == 0:
            return 0.0
        if self.time_s <= 0.0:
            return self.selectivity / 1e-9
        return self.rejections / self.time_s


@dataclass
class ConstraintReport:
    """Outcome of checking one configuration."""

    hardware_violations: List[str] = field(default_factory=list)
    performance_violations: List[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        """Runnable at all (hardware-clean)."""
        return not self.hardware_violations

    @property
    def accepted(self) -> bool:
        """Passes both rule families."""
        return not self.hardware_violations and not self.performance_violations


#: Canonical rule order (declaration order); :meth:`check` reports in
#: this order so violation listings stay stable.
HARDWARE_RULES: Tuple[str, ...] = ("smem", "registers", "max_threads",
                                   "nonempty_block")
PERFORMANCE_RULES: Tuple[str, ...] = (
    "store_coalescing", "load_coalescing", "min_blocks", "min_threads",
    "occupancy", "max_steps",
)


class ConstraintChecker:
    """Applies the paper's pruning rules for a target architecture."""

    def __init__(
        self,
        arch: GpuArch,
        dtype_bytes: int = 8,
        policy: Optional[ConstraintPolicy] = None,
    ) -> None:
        self.arch = arch
        self.dtype_bytes = dtype_bytes
        self.policy = policy or ConstraintPolicy()
        #: Measured per-rule behaviour, accumulated by the search via
        #: :meth:`absorb_batch_counts`.
        self.rule_stats: Dict[str, RuleStats] = {
            name: RuleStats() for name in HARDWARE_RULES + PERFORMANCE_RULES
        }

    # -- public API ------------------------------------------------------

    def check(self, plan: KernelPlan) -> ConstraintReport:
        """Evaluate all rules for ``plan`` and collect every violation."""
        report = ConstraintReport()
        for name in HARDWARE_RULES:
            violation = self._rule(name)(plan)
            if violation is not None:
                report.hardware_violations.append(violation)
        if report.feasible:
            for name in PERFORMANCE_RULES:
                violation = self._rule(name)(plan)
                if violation is not None:
                    report.performance_violations.append(violation)
        return report

    def check_config(
        self, contraction: Contraction, config: KernelConfig
    ) -> ConstraintReport:
        plan = KernelPlan(contraction, config, self.dtype_bytes)
        return self.check(plan)

    def absorb_batch_counts(
        self, counts: Mapping[str, Tuple[int, int, float]]
    ) -> None:
        """Fold vectorized per-rule counts into :attr:`rule_stats`.

        The search evaluates each rule as one batched predicate over
        whole position batches; ``counts`` maps rule name to ``(rows
        reaching the rule, rows newly rejected, predicate seconds)``,
        so each pruned row is charged to exactly one rule — the first
        it violates in canonical order.
        """
        for name, (checks, rejections, time_s) in counts.items():
            stats = self.rule_stats[name]
            stats.checks += checks
            stats.rejections += rejections
            stats.time_s += time_s

    def _rule(self, name: str) -> Callable[[KernelPlan], Optional[str]]:
        return getattr(self, f"_rule_{name}")

    # -- hardware rules -----------------------------------------------------

    def _rule_smem(self, plan: KernelPlan) -> Optional[str]:
        if plan.smem_bytes > self.arch.shared_mem_per_block:
            return (
                f"shared memory {plan.smem_bytes} B exceeds per-block "
                f"capacity {self.arch.shared_mem_per_block} B"
            )
        return None

    def _rule_registers(self, plan: KernelPlan) -> Optional[str]:
        regs = plan.config.registers_per_thread(self.dtype_bytes)
        if regs > self.arch.max_registers_per_thread:
            return (
                f"{regs} registers/thread exceeds limit "
                f"{self.arch.max_registers_per_thread}"
            )
        return None

    def _rule_max_threads(self, plan: KernelPlan) -> Optional[str]:
        threads = plan.threads_per_block
        if threads > self.arch.max_threads_per_block:
            return (
                f"{threads} threads/block exceeds limit "
                f"{self.arch.max_threads_per_block}"
            )
        return None

    def _rule_nonempty_block(self, plan: KernelPlan) -> Optional[str]:
        if plan.threads_per_block < 1:
            return "empty thread block"
        return None

    # -- performance rules ----------------------------------------------------

    def _rule_store_coalescing(self, plan: KernelPlan) -> Optional[str]:
        # Store coalescing: the output FVI must lead TB_x.
        contraction = plan.contraction
        tb_x = plan.config.indices_on(Dim.TB_X)
        if not tb_x or tb_x[0] != contraction.c.fvi:
            return (
                f"output FVI {contraction.c.fvi!r} must be the leading "
                "TBx index for coalesced stores"
            )
        return None

    def _rule_load_coalescing(self, plan: KernelPlan) -> Optional[str]:
        # Load coalescing: each input's FVI needs a sizeable tile.
        contraction = plan.contraction
        for tensor in (contraction.a, contraction.b):
            fvi = tensor.fvi
            tile = plan.config.tile(fvi)
            floor = min(self.policy.min_fvi_tile, contraction.extent(fvi))
            if tile < floor:
                return (
                    f"tile {tile} on {tensor.name}'s FVI {fvi!r} is below "
                    f"the coalescing floor {floor}"
                )
        return None

    def _rule_min_blocks(self, plan: KernelPlan) -> Optional[str]:
        # Parallelism: enough blocks to avoid starving SMs.
        contraction = plan.contraction
        min_blocks = int(self.policy.min_blocks_per_sm * self.arch.num_sms)
        max_possible = self._max_possible_blocks(contraction)
        required = min(min_blocks, max_possible)
        if plan.num_blocks < required:
            return (
                f"{plan.num_blocks} thread blocks is below the load-balance "
                f"threshold {required}"
            )
        return None

    def _rule_min_threads(self, plan: KernelPlan) -> Optional[str]:
        if plan.threads_per_block < min(
            self.policy.min_threads,
            self._max_possible_threads(plan.contraction),
        ):
            return (
                f"{plan.threads_per_block} threads/block is below "
                f"{self.policy.min_threads}"
            )
        return None

    def _rule_occupancy(self, plan: KernelPlan) -> Optional[str]:
        occ = compute_occupancy(
            self.arch,
            plan.threads_per_block,
            plan.smem_bytes,
            plan.config.registers_per_thread(self.dtype_bytes),
        )
        if occ.fraction < self.policy.min_occupancy:
            return (
                f"occupancy {occ.fraction:.2f} below floor "
                f"{self.policy.min_occupancy:.2f} (limited by {occ.limiter})"
            )
        return None

    def _rule_max_steps(self, plan: KernelPlan) -> Optional[str]:
        if self.policy.max_steps and plan.num_steps > self.policy.max_steps:
            return (
                f"{plan.num_steps} serial steps exceeds guard "
                f"{self.policy.max_steps}"
            )
        return None

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _max_possible_blocks(contraction: Contraction) -> int:
        """Upper bound on launchable blocks (all external tiles = 1)."""
        total = 1
        for idx in contraction.external_indices:
            total *= contraction.extent(idx)
        return total

    @staticmethod
    def _max_possible_threads(contraction: Contraction) -> int:
        """Upper bound on threads per block for this problem size."""
        x_ext = contraction.externals_of(contraction.x_input)
        y_ext = contraction.externals_of(contraction.y_input)
        total = 1
        for idx in (*x_ext, *y_ext):
            total *= contraction.extent(idx)
        return total
