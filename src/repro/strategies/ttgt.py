"""TTGT strategy: Transpose-Transpose-GEMM-Transpose.

Absorbs :class:`repro.ttgt.pipeline.TtgtPipeline` (the TAL_SH stand-in)
behind the common strategy interface.  The three TransposePlans become
explicit :class:`~repro.strategies.base.PackStep`\\ s — identity
transposes are dropped — around a single coalesced-GEMM macro-kernel.
Batched contractions fall back to a per-batch-element pipeline run.
"""

from __future__ import annotations

import numpy as np

from ..core.batched import execute_per_batch_element
from ..ttgt.pipeline import TtgtPipeline
from .base import (
    ExecutionStrategy,
    StrategyPlan,
    inner_contraction,
)


class TtgtStrategy(ExecutionStrategy):
    """Pack to matrices, run one GEMM, unpack the output."""

    name = "ttgt"

    def __init__(self, *args, pipeline=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pipeline = pipeline or TtgtPipeline(
            self.arch, self.dtype_bytes
        )

    def plan(self, contraction) -> StrategyPlan:
        core = inner_contraction(contraction)
        ttgt = self.pipeline.plan(core)
        sizes = core.sizes

        pack_steps = []
        a_target = ttgt.ext_a_order + ttgt.int_order
        if not ttgt.transpose_a.is_identity:
            pack_steps.append(
                self._pack_step("A", core.a.indices, a_target, sizes)
            )
        b_target = ttgt.int_order + ttgt.ext_b_order
        if not ttgt.transpose_b.is_identity:
            pack_steps.append(
                self._pack_step("B", core.b.indices, b_target, sizes)
            )
        unpack_steps = []
        mc_layout = ttgt.ext_a_order + ttgt.ext_b_order
        if not ttgt.transpose_c.is_identity:
            unpack_steps.append(
                self._pack_step("C", mc_layout, core.c.indices, sizes)
            )

        return StrategyPlan(
            strategy=self.name,
            contraction=contraction,
            macro=f"GEMM M={ttgt.m} N={ttgt.n} K={ttgt.k}",
            pack_steps=tuple(pack_steps),
            unpack_steps=tuple(unpack_steps),
            traffic=self.modeled_traffic(contraction),
            workspace_elements=ttgt.workspace_elements,
            details=ttgt,
        )

    def execute_plan(
        self, plan: StrategyPlan, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        contraction = plan.contraction
        if getattr(contraction, "inner", None) is not None:
            ttgt = plan.details

            def run_inner(ai, bi):
                return self.pipeline.execute(
                    contraction.inner, ai, bi, plan=ttgt
                )

            return execute_per_batch_element(contraction, run_inner, a, b)
        return self.pipeline.execute(contraction, a, b, plan=plan.details)
