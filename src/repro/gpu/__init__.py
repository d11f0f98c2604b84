"""Simulated GPU substrate: architecture specs, occupancy, memory
transactions, functional execution, and analytical performance modelling."""

from .arch import ARCHS, GpuArch, PASCAL_P100, VOLTA_V100, get_arch
from .executor import execute_plan, reference_contract, verify_plan
from .memory import (
    MeasuredTransactions,
    TransactionCounter,
    VectorizedReplay,
    count_transactions,
    sampled_is_exact,
)
from .metrics import KernelMetrics, collect_metrics, roofline_chart
from .occupancy import Occupancy, compute_occupancy
from .simulator import GpuSimulator, ModelParams, SimulationResult, simulate_plan
from .warpsim import WarpLevelSimulator, WarpSimResult

__all__ = [
    "ARCHS",
    "GpuArch",
    "GpuSimulator",
    "KernelMetrics",
    "MeasuredTransactions",
    "ModelParams",
    "Occupancy",
    "PASCAL_P100",
    "SimulationResult",
    "TransactionCounter",
    "VOLTA_V100",
    "VectorizedReplay",
    "WarpLevelSimulator",
    "WarpSimResult",
    "collect_metrics",
    "compute_occupancy",
    "count_transactions",
    "execute_plan",
    "get_arch",
    "reference_contract",
    "roofline_chart",
    "sampled_is_exact",
    "simulate_plan",
    "verify_plan",
]
