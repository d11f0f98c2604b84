"""Analytical GPU performance simulator.

This module substitutes for running generated kernels on real P100/V100
hardware (none is available offline).  It is a mechanistic resource model:
the kernel's demand on each hardware resource is computed from the plan's
geometry, converted to SM cycles, and the slowest resource bounds the
runtime (a roofline over DRAM bandwidth, double/single-precision FMA
issue, and shared-memory bandwidth), with multiplicative corrections for
occupancy-limited latency hiding, warp fill, wave quantisation and a
fixed launch overhead.

The simulator deliberately models *more* than the paper's ranking cost
model (which counts only DRAM transactions): this gap is what makes the
"cost model correlates with actual performance" experiment
(EXPERIMENTS.md) meaningful rather than circular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.costmodel import CostModel, TransactionEstimate
from ..core.plan import KernelPlan, ceil_div
from .arch import GpuArch
from .occupancy import Occupancy, compute_occupancy


@dataclass(frozen=True)
class ModelParams:
    """Calibration constants for the performance simulator."""

    #: Fraction of peak DRAM bandwidth achievable by a tuned kernel.
    bw_efficiency: float = 0.82
    #: Occupancy at which DRAM latency is considered fully hidden.
    occ_saturation_mem: float = 0.25
    #: Occupancy at which arithmetic latency is considered fully hidden
    #: (register-tile ILP lets few warps cover the FMA pipeline).
    occ_saturation_compute: float = 0.12
    #: Issue-slot cost of one shared-memory load relative to one FMA.
    smem_load_weight: float = 0.5
    #: Fixed per-k-iteration issue overhead (loop/address arithmetic).
    loop_overhead: float = 1.0
    #: Serial cycles per step for the two barriers + staging latency.
    sync_cycles_per_step: float = 120.0
    #: Kernel launch overhead in seconds.
    launch_overhead_s: float = 4e-6
    #: Shared-memory bandwidth per SM in bytes/cycle.
    smem_bytes_per_cycle_per_sm: float = 128.0
    #: Model L2 hits for re-read input tiles (off by default: the
    #: paper's cost model and the guided loop's features charge DRAM for
    #: every transaction).  When on, repeat reads of an input hit L2 with a
    #: probability that decays as the tensor outgrows the cache.
    model_l2: bool = False
    #: Maximum fraction of repeat reads served by L2.
    l2_max_hit_rate: float = 0.8


@dataclass(frozen=True)
class SimulationResult:
    """Predicted execution profile of one kernel launch."""

    time_s: float
    gflops: float
    dram_cycles: float
    fma_cycles: float
    smem_cycles: float
    limiter: str
    occupancy: float
    waves: int
    traffic_bytes: int

    def __str__(self) -> str:
        return (
            f"{self.gflops:8.1f} GFLOPS  {self.time_s * 1e6:10.1f} us  "
            f"bound={self.limiter}  occ={self.occupancy:.2f}  "
            f"waves={self.waves}"
        )


class GpuSimulator:
    """Estimates kernel execution time on a :class:`GpuArch`."""

    def __init__(
        self,
        arch: GpuArch,
        params: Optional[ModelParams] = None,
    ) -> None:
        self.arch = arch
        self.params = params or ModelParams()

    def simulate(
        self,
        plan: KernelPlan,
        traffic: Optional[TransactionEstimate] = None,
    ) -> SimulationResult:
        """Predict the runtime and GFLOPS of ``plan`` on this GPU.

        ``traffic`` may carry a pre-computed (or measured) transaction
        estimate; by default the analytic cost model is used.
        """
        arch = self.arch
        params = self.params
        plan_dtype = plan.dtype_bytes
        if traffic is None:
            traffic = CostModel(plan_dtype, arch.transaction_bytes).estimate(
                plan, clipped=True
            )

        occ = compute_occupancy(
            arch,
            plan.threads_per_block,
            plan.smem_bytes,
            plan.config.registers_per_thread(plan_dtype),
        )
        if occ.blocks_per_sm == 0:
            raise ValueError(
                f"plan cannot run on {arch.name}: blocked by {occ.limiter}"
            )

        dram_bytes = self._effective_dram_bytes(plan, traffic)
        dram_cycles = self._dram_cycles(dram_bytes, occ)
        fma_cycles = self._fma_cycles(plan, occ)
        smem_cycles = self._smem_cycles(plan)

        bounds = {
            "dram": dram_cycles,
            "fma": fma_cycles,
            "smem": smem_cycles,
        }
        limiter = max(bounds, key=lambda k: bounds[k])
        parallel_cycles = bounds[limiter]

        blocks_per_wave = occ.blocks_per_sm * arch.num_sms
        waves = max(1, ceil_div(plan.num_blocks, blocks_per_wave))
        utilization = plan.num_blocks / (waves * blocks_per_wave)
        parallel_cycles /= max(utilization, 1e-9)

        # Per-step barrier/staging serialisation along each wave.
        serial_cycles = waves * plan.num_steps * params.sync_cycles_per_step

        total_cycles = parallel_cycles + serial_cycles
        time_s = total_cycles / (arch.clock_ghz * 1e9)
        time_s += params.launch_overhead_s
        gflops = plan.flops / time_s / 1e9
        return SimulationResult(
            time_s=time_s,
            gflops=gflops,
            dram_cycles=dram_cycles,
            fma_cycles=fma_cycles,
            smem_cycles=smem_cycles,
            limiter=limiter,
            occupancy=occ.fraction,
            waves=waves,
            traffic_bytes=traffic.bytes,
        )

    # -- resource demands ----------------------------------------------------

    def _effective_dram_bytes(
        self, plan: KernelPlan, traffic: TransactionEstimate
    ) -> float:
        """DRAM bytes after the optional L2 reuse discount.

        Each input is read cold once; re-reads (the traffic beyond one
        pass over the tensor) hit L2 at a rate that shrinks as the
        tensor outgrows the cache.
        """
        params = self.params
        if not params.model_l2:
            return float(traffic.bytes)
        contraction = plan.contraction
        txn = traffic.transaction_bytes
        total = float(traffic.store_c * txn)
        for tensor, txns in (
            (contraction.a, traffic.load_a),
            (contraction.b, traffic.load_b),
        ):
            load_bytes = float(txns * txn)
            cold_bytes = float(
                contraction.num_elements(tensor) * plan.dtype_bytes
            )
            repeat = max(0.0, load_bytes - cold_bytes)
            hit_rate = params.l2_max_hit_rate * min(
                1.0, self.arch.l2_cache_bytes / max(cold_bytes, 1.0)
            )
            total += min(load_bytes, cold_bytes) + repeat * (1 - hit_rate)
        return total

    def _dram_cycles(self, traffic_bytes: float, occ: Occupancy) -> float:
        arch = self.arch
        params = self.params
        bytes_per_cycle = arch.dram_bandwidth_gbs / arch.clock_ghz
        latency_hiding = min(
            1.0, occ.fraction / params.occ_saturation_mem
        )
        effective = bytes_per_cycle * params.bw_efficiency * latency_hiding
        return traffic_bytes / max(effective, 1e-9)

    def _fma_cycles(self, plan: KernelPlan, occ: Occupancy) -> float:
        arch = self.arch
        params = self.params
        n_fma = plan.flops / 2
        peak = arch.peak_gflops(plan.dtype_bytes)
        # Total machine FMA rate in FMAs/cycle (peak counts 2 flops/FMA).
        fma_per_cycle = peak / (2 * arch.clock_ghz)

        reg_x, reg_y = plan.reg_x, plan.reg_y
        fma_per_iter = reg_x * reg_y
        issue_cost = (
            fma_per_iter
            + params.smem_load_weight * (reg_x + reg_y)
            + params.loop_overhead
        )
        issue_eff = fma_per_iter / issue_cost

        warps = ceil_div(plan.threads_per_block, arch.warp_size)
        warp_fill = plan.threads_per_block / (warps * arch.warp_size)

        latency_hiding = min(
            1.0, occ.fraction / params.occ_saturation_compute
        )
        effective = fma_per_cycle * issue_eff * warp_fill * latency_hiding
        return n_fma / max(effective, 1e-9)

    def _smem_cycles(self, plan: KernelPlan) -> float:
        arch = self.arch
        params = self.params
        per_block_step = (
            # Staging stores into shared memory.
            (plan.smem_x_elements + plan.smem_y_elements)
            # Operand loads: each thread reads REG_x + REG_y elements per
            # contraction-tile iteration.
            + plan.threads_per_block
            * plan.tb_k_tile
            * (plan.reg_x + plan.reg_y)
        )
        total_bytes = (
            per_block_step
            * plan.num_blocks
            * plan.num_steps
            * plan.dtype_bytes
        )
        machine_rate = params.smem_bytes_per_cycle_per_sm * arch.num_sms
        return total_bytes / machine_rate


def simulate_plan(
    plan: KernelPlan, arch: GpuArch, params: Optional[ModelParams] = None
) -> SimulationResult:
    """One-shot convenience wrapper."""
    return GpuSimulator(arch, params).simulate(plan)
