"""GETT strategy: GEMM-like Tensor-Tensor contraction.

Springer & Bientinesi's approach: instead of materialising transposed
copies of whole tensors (TTGT), run a blocked GEMM macro-kernel whose
panel-packing reads the operands *in place*, strided, once per
macro-tile wave, and store the output directly in its final layout.
The numpy execution path mirrors that structure: a three-deep macro
loop over (N_c, K_c, M_c) tiles that packs each panel contiguously
(``np.ascontiguousarray``) right before its matmul — there is no
whole-tensor transpose pass and no output unpack pass.

Planning picks, per operand, the GEMM orientation (normal/transposed
matricisation) and contraction-index order that maximise the in-place
gather run, scored with the same segment arithmetic the cost model
uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.batched import execute_per_batch_element
from ..core.costmodel import common_prefix_run, row_transactions
from ..ttgt.pipeline import _unique
from ..ttgt.transpose import permutation_between
from .base import (
    ExecutionStrategy,
    StrategyError,
    StrategyPlan,
    inner_contraction,
)


@dataclass(frozen=True)
class GettPlan:
    """Chosen matricisation orientations and macro-tile sizes."""

    ext_a_order: Tuple[str, ...]
    ext_b_order: Tuple[str, ...]
    int_order: Tuple[str, ...]
    #: "N": operand laid out externals-first (rows contiguous);
    #: "T": contraction-index-first (the macro-kernel transposes panels).
    orient_a: str
    orient_b: str
    m: int
    n: int
    k: int
    mc: int
    nc: int
    kc: int

    @property
    def workspace_elements(self) -> int:
        """Packed panel buffers resident during the macro loop."""
        return self.mc * self.kc + self.kc * self.nc


class GettStrategy(ExecutionStrategy):
    """Blocked GEMM macro-kernel with fused, in-place panel packing."""

    name = "gett"

    def __init__(self, *args, mc: int = 128, nc: int = 128,
                 kc: int = 256, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.mc = mc
        self.nc = nc
        self.kc = kc

    def plan(self, contraction) -> StrategyPlan:
        core = inner_contraction(contraction)
        sizes = core.sizes
        ext_a = core.externals_of(core.a)
        ext_b = core.externals_of(core.b)
        ints = core.internal_indices
        b_ints = tuple(i for i in core.b.indices if i in set(ints))

        m = math.prod(sizes[i] for i in ext_a) or 1
        n = math.prod(sizes[i] for i in ext_b) or 1
        k = math.prod(sizes[i] for i in ints) or 1

        # Both operands must agree on one contraction-index order; try
        # the A-native and B-native orders, each with both per-operand
        # orientations, and keep the cheapest in-place gather traffic.
        # Candidate order is the deterministic tie-break.
        best = None
        for int_order in _unique((ints, b_ints)):
            for orient_a in ("N", "T"):
                a_target = (
                    ext_a + int_order if orient_a == "N"
                    else int_order + ext_a
                )
                run_a = common_prefix_run(core.a.indices, a_target, sizes)
                for orient_b in ("N", "T"):
                    b_target = (
                        int_order + ext_b if orient_b == "N"
                        else ext_b + int_order
                    )
                    run_b = common_prefix_run(
                        core.b.indices, b_target, sizes
                    )
                    cost = (
                        row_transactions(
                            m * k, run_a, self.dtype_bytes,
                            self.cost_model.transaction_bytes,
                        ) * _waves(n, self.nc)
                        + row_transactions(
                            k * n, run_b, self.dtype_bytes,
                            self.cost_model.transaction_bytes,
                        ) * _waves(m, self.mc)
                    )
                    if best is None or cost < best[0]:
                        best = (cost, int_order, orient_a, orient_b)
        assert best is not None
        _, int_order, orient_a, orient_b = best

        details = GettPlan(
            ext_a_order=ext_a,
            ext_b_order=ext_b,
            int_order=int_order,
            orient_a=orient_a,
            orient_b=orient_b,
            m=m, n=n, k=k,
            mc=self.mc, nc=self.nc, kc=self.kc,
        )
        macro = (
            f"GETT macro-kernel M={m} N={n} K={k} "
            f"op(A)={orient_a} op(B)={orient_b} "
            f"tiles {self.mc}x{self.nc}x{self.kc} (packing fused)"
        )
        return StrategyPlan(
            strategy=self.name,
            contraction=contraction,
            macro=macro,
            pack_steps=(),
            unpack_steps=(),
            traffic=self.modeled_traffic(contraction),
            workspace_elements=details.workspace_elements,
            details=details,
        )

    # -- execution --------------------------------------------------------

    def execute_plan(
        self, plan: StrategyPlan, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        contraction = plan.contraction
        if getattr(contraction, "inner", None) is not None:

            def run_inner(ai, bi):
                return self._execute_core(
                    contraction.inner, plan.details, ai, bi
                )

            return execute_per_batch_element(contraction, run_inner, a, b)
        return self._execute_core(contraction, plan.details, a, b)

    def _execute_core(self, core, gp: GettPlan, a, b) -> np.ndarray:
        if tuple(a.shape) != core.extents_of(core.a):
            raise StrategyError(
                f"operand A has shape {tuple(a.shape)}, expected "
                f"{core.extents_of(core.a)}"
            )
        if tuple(b.shape) != core.extents_of(core.b):
            raise StrategyError(
                f"operand B has shape {tuple(b.shape)}, expected "
                f"{core.extents_of(core.b)}"
            )
        # Strided in-place views of the matricised operands; the only
        # copies the macro loop makes are panel-sized packs.
        if gp.orient_a == "N":
            a_mat = _matricise(a, core.a.indices,
                               gp.ext_a_order + gp.int_order, gp.m, gp.k)
        else:
            a_mat = _matricise(a, core.a.indices,
                               gp.int_order + gp.ext_a_order, gp.k, gp.m).T
        if gp.orient_b == "N":
            b_mat = _matricise(b, core.b.indices,
                               gp.int_order + gp.ext_b_order, gp.k, gp.n)
        else:
            b_mat = _matricise(b, core.b.indices,
                               gp.ext_b_order + gp.int_order, gp.n, gp.k).T

        c_mat = np.zeros((gp.m, gp.n), dtype=a.dtype)
        for jc in range(0, gp.n, gp.nc):
            j1 = min(jc + gp.nc, gp.n)
            for pc in range(0, gp.k, gp.kc):
                p1 = min(pc + gp.kc, gp.k)
                b_panel = np.ascontiguousarray(b_mat[pc:p1, jc:j1])
                for ic in range(0, gp.m, gp.mc):
                    i1 = min(ic + gp.mc, gp.m)
                    a_panel = np.ascontiguousarray(a_mat[ic:i1, pc:p1])
                    c_mat[ic:i1, jc:j1] += a_panel @ b_panel

        # Direct store: the output is written straight into C's layout.
        ext_order = gp.ext_a_order + gp.ext_b_order
        shaped = c_mat.reshape(
            tuple(core.sizes[i] for i in ext_order)
        )
        perm = permutation_between(ext_order, core.c.indices)
        return np.ascontiguousarray(shaped.transpose(perm))


def _matricise(array, indices, target_order, rows, cols):
    """A (rows, cols) view of ``array`` re-indexed to ``target_order``.

    ``transpose`` is always a view; the ``reshape`` stays a view when
    the permutation is trivial and otherwise stands in for the strided
    panel reads the macro loop performs.
    """
    perm = permutation_between(indices, target_order)
    return array.transpose(perm).reshape(rows, cols)


def _waves(extent: int, tile: int) -> int:
    return max(1, -(-extent // tile))
