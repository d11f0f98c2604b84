"""The common execution-strategy interface: plan → pack → macro-kernel
→ unpack.

Every strategy turns one contraction (plain or batched) into a
:class:`StrategyPlan`: a sequence of explicit :class:`PackStep` layout
passes around one macro-kernel, with the modeled DRAM traffic of every
pass attached (:class:`repro.core.costmodel.StrategyTraffic`, the same
128-byte-transaction currency as Algorithm 3).  Execution runs the plan
numerically with numpy so each strategy is verified element-wise
against ``numpy.einsum`` through :mod:`repro.gpu.executor`.

Members (see the sibling modules):

* ``direct``  — COGENT's searched single-kernel strategy (the paper's);
* ``ttgt``    — Transpose-Transpose-GEMM-Transpose, absorbing
  :class:`repro.ttgt.pipeline.TtgtPipeline`;
* ``gett``    — GEMM-like macro-kernel over packed panels
  (Springer & Bientinesi);
* ``batched`` — StridedBatchedGEMM over trailing batch dimensions
  (Shi et al.).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..core.costmodel import (
    StrategyCostModel,
    StrategyTraffic,
    pack_transactions,
)
from ..core.ir import Contraction
from ..gpu.arch import GpuArch, get_arch


class StrategyError(ValueError):
    """Raised when a strategy cannot plan the given contraction."""


@dataclass(frozen=True)
class PackStep:
    """One explicit re-layout pass (a transpose/pack or unpack)."""

    tensor: str
    source_order: Tuple[str, ...]
    target_order: Tuple[str, ...]
    elements: int
    #: Modeled 128-byte transactions of this pass (0 for an identity,
    #: which strategies skip entirely).
    transactions: int

    @property
    def identity(self) -> bool:
        return self.source_order == self.target_order

    def __str__(self) -> str:
        arrow = "".join(self.source_order) + "->" \
            + "".join(self.target_order)
        return f"pack {self.tensor} [{arrow}] ({self.transactions} txns)"


@dataclass(frozen=True)
class StrategyPlan:
    """A planned execution of one contraction under one strategy."""

    strategy: str
    contraction: object  #: Contraction or BatchedContraction
    macro: str  #: human-readable macro-kernel description
    pack_steps: Tuple[PackStep, ...]
    unpack_steps: Tuple[PackStep, ...]
    traffic: StrategyTraffic
    workspace_elements: int = 0
    #: Strategy-specific payload (TtgtPlan, GettPlan, GeneratedKernel…).
    details: object = field(default=None, repr=False)

    def summary(self) -> str:
        lines = [f"strategy    : {self.strategy}"]
        for step in self.pack_steps:
            lines.append(f"pack        : {step}")
        lines.append(f"macro       : {self.macro}")
        for step in self.unpack_steps:
            lines.append(f"unpack      : {step}")
        lines.append(f"traffic     : {self.traffic}")
        if self.workspace_elements:
            lines.append(f"workspace   : {self.workspace_elements} elems")
        return "\n".join(lines)


class ExecutionStrategy(ABC):
    """Base class: plan a contraction, then execute the plan with numpy.

    Subclasses implement :meth:`plan` and :meth:`execute_plan`; the
    shared surface provides applicability checks, one-shot
    :meth:`execute`, and einsum-differential :meth:`verify` through
    :mod:`repro.gpu.executor`.
    """

    name: str = "?"

    def __init__(
        self,
        arch: Union[str, GpuArch] = "V100",
        dtype_bytes: int = 8,
        cost_model: Optional[StrategyCostModel] = None,
    ) -> None:
        self.arch = get_arch(arch) if isinstance(arch, str) else arch
        self.dtype_bytes = dtype_bytes
        self.cost_model = cost_model or StrategyCostModel(
            dtype_bytes, self.arch.transaction_bytes
        )

    # -- planning ---------------------------------------------------------

    def applicable(self, contraction) -> bool:
        """Whether this strategy can execute ``contraction``."""
        return True

    @abstractmethod
    def plan(self, contraction) -> StrategyPlan:
        """Plan the packing passes and macro-kernel."""

    def modeled_traffic(self, contraction) -> StrategyTraffic:
        """This strategy's row of the extended cost model."""
        return self.cost_model.traffic(contraction)[self.name]

    # -- execution --------------------------------------------------------

    @abstractmethod
    def execute_plan(
        self, plan: StrategyPlan, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Run the plan numerically (the numpy correctness path)."""

    def execute(self, contraction, a: np.ndarray, b: np.ndarray):
        return self.execute_plan(self.plan(contraction), a, b)

    def verify(self, contraction, seed: int = 0) -> bool:
        """Differential check of this strategy against ``numpy.einsum``.

        Uses integer-valued operands, so the comparison is bit-exact
        regardless of the strategy's summation order.
        """
        from ..gpu.executor import integer_operands, reference_contract

        a, b = integer_operands(contraction, seed=seed)
        got = self.execute(contraction, a, b)
        want = reference_contract(contraction, a, b)
        return bool(np.array_equal(got, want))

    # -- shared helpers ---------------------------------------------------

    def _pack_step(
        self,
        tensor_name: str,
        source_order: Sequence[str],
        target_order: Sequence[str],
        sizes,
    ) -> PackStep:
        """Build a PackStep costed with the shared packing helper."""
        from ..core.costmodel import common_prefix_run

        source = tuple(source_order)
        target = tuple(target_order)
        elements = math.prod(sizes[i] for i in source) or 1
        if source == target:
            txns = 0
        else:
            txns = pack_transactions(
                elements,
                common_prefix_run(source, target, sizes),
                self.dtype_bytes,
                self.cost_model.transaction_bytes,
            )
        return PackStep(
            tensor=tensor_name,
            source_order=source,
            target_order=target,
            elements=elements,
            transactions=txns,
        )


def inner_contraction(contraction) -> Contraction:
    """The per-batch-element contraction (identity for plain ones)."""
    return getattr(contraction, "inner", contraction)
