"""OpenMP-C CPU backend.

Where :mod:`repro.core.codegen.cemu` emulates the CUDA execution model
*faithfully* (per-thread register tiles, barrier-delimited phases) to
serve as a correctness oracle, this target maps the same kernel plan to
code that is actually fast on a CPU:

* the grid loop over output thread-block tiles becomes an OpenMP
  ``parallel for`` (one tile per iteration, ``schedule(static)``);
* the per-thread ``REG_X x REG_Y`` register tiles collapse into one
  contiguous ``BLOCK_X x BLOCK_Y`` accumulator per block tile, so the
  innermost update is a unit-stride saxpy row the compiler can
  auto-vectorize (``restrict`` pointers, extents as literals);
* the staged tile loads reuse the exact shared staging loops of the
  emulation (:func:`~repro.core.codegen.chost.serial_stage_loops`), so
  the smem layout — including the vector-lane grouping — stays
  bit-compatible with the GPU schema.

The result is numerically identical to cemu (same additions, reordered
only across the associative ``kk_`` rank) and typically several times
faster even on a single core, because the hot loop vectorizes.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..plan import KernelPlan
from . import indexing as ix
from .chost import (
    compile_and_run_source,
    host_main_function,
    scalar_type,
    serial_stage_loops,
)
from .registry import CodegenTarget, register_target

CFLAGS = ("-O3", "-std=c99", "-fopenmp", "-march=native")
#: Retried when the compiler does not understand ``-march=native``.
CFLAGS_PORTABLE = ("-O3", "-std=c99", "-fopenmp")


def _kernel_function(plan: KernelPlan, name: str) -> List[str]:
    scalar = scalar_type(plan.dtype_bytes)
    contraction = plan.contraction
    c, a, b = contraction.c, contraction.a, contraction.b
    btx = plan.config.block_tile_x
    bty = plan.config.block_tile_y

    params = [
        f"{scalar}* g_{c.name}",
        f"const {scalar}* g_{a.name}",
        f"const {scalar}* g_{b.name}",
    ]
    params += [f"int {ix.extent_param(i)}" for i in contraction.all_indices]

    body: List[str] = []
    body += ix.stride_definitions(c)
    body += ix.stride_definitions(a)
    body += ix.stride_definitions(b)
    body += ix.tile_count_definitions(plan.block_axes)
    body += ix.tile_count_definitions(plan.step_axes)

    nblock_terms = [ix.ntiles_var(x.index) for x in plan.block_axes] or ["1"]
    nstep_terms = [ix.ntiles_var(x.index) for x in plan.step_axes] or ["1"]
    body += [
        f"const long num_blocks_ = (long){' * (long)'.join(nblock_terms)};",
        f"const int nsteps_ = {' * '.join(nstep_terms)};",
    ]

    # Per-block-tile body: stage, accumulate, store one output tile.
    block_body: List[str] = []
    block_body += ix.decompose_offsets(
        "(int)blk_", plan.block_axes, ix.block_offset_var, "bid_"
    )
    block_body.append(
        f"memset(c_tile_, 0, sizeof({scalar}) * {btx * bty});"
    )

    step_body: List[str] = []
    step_body += ix.decompose_offsets(
        "step_", plan.step_axes, ix.step_offset_var, "sid_"
    )
    for tensor, buffer in ((plan.x_input, "s_a"), (plan.y_input, "s_b")):
        step_body += serial_stage_loops(plan, tensor, buffer, scalar)
    # Outer product over the staged tile; the y_ row is unit-stride in
    # both c_tile_ and s_b, so the compiler can vectorize it.
    step_body += [
        f"for (int kk_ = 0; kk_ < {plan.tb_k_tile}; ++kk_) {{",
        f"    const {scalar}* restrict a_col_ = &s_a[kk_ * {btx}];",
        f"    const {scalar}* restrict b_col_ = &s_b[kk_ * {bty}];",
        f"    for (int x_ = 0; x_ < {btx}; ++x_) {{",
        f"        const {scalar} a_x_ = a_col_[x_];",
        f"        {scalar}* restrict c_row_ = &c_tile_[(long)x_ * {bty}];",
        f"        for (int y_ = 0; y_ < {bty}; ++y_)",
        "            c_row_[y_] += a_x_ * b_col_[y_];",
        "    }",
        "}",
    ]
    block_body.append("for (int step_ = 0; step_ < nsteps_; ++step_) {")
    block_body += ix.indent(step_body, 1)
    block_body.append("}")

    # Store: walk the block tile; the CUDA thread/register coordinates
    # of position (x_, y_) recover the StoreFragment's addressing.
    store = ix.StoreFragment(plan)
    thread_lines, thread_coords = store.thread_coord_decls("tx_", "ty_")
    reg_lines, reg_coords = store.reg_coord_decls("rx_", "ry_")
    addr_lines, addr, bounds = store.address_and_bounds(
        {**thread_coords, **reg_coords}
    )
    store_body: List[str] = [
        f"for (int x_ = 0; x_ < {btx}; ++x_) {{",
        f"    const int tx_ = x_ % {plan.tb_x};",
        f"    const int rx_ = x_ / {plan.tb_x};",
        f"    for (int y_ = 0; y_ < {bty}; ++y_) {{",
        f"        const int ty_ = y_ % {plan.tb_y};",
        f"        const int ry_ = y_ / {plan.tb_y};",
    ]
    inner_store = thread_lines + reg_lines + addr_lines + [
        f"if ({bounds}) {{",
        f"    g_{c.name}[{addr}] = c_tile_[(long)x_ * {bty} + y_];",
        "}",
    ]
    store_body += ix.indent(inner_store, 2)
    store_body += ["    }", "}"]
    block_body += store_body

    # The accumulator can exceed worker-thread stacks (up to ~0.5 MB),
    # so every buffer is heap-allocated per OpenMP thread.  A failed
    # allocation on any thread is published through the shared flag;
    # after the barrier every thread sees the same trip count, so the
    # worksharing loop stays well-formed and runs no block on failure.
    body += [
        "int failed_ = 0;",
        "#pragma omp parallel",
        "{",
        f"    {scalar}* s_a = ({scalar}*)malloc(sizeof({scalar})"
        f" * {plan.smem_x_elements});",
        f"    {scalar}* s_b = ({scalar}*)malloc(sizeof({scalar})"
        f" * {plan.smem_y_elements});",
        f"    {scalar}* c_tile_ = ({scalar}*)malloc(sizeof({scalar})"
        f" * {btx * bty});",
        "    if (!s_a || !s_b || !c_tile_) {",
        "        #pragma omp atomic write",
        "        failed_ = 1;",
        "    }",
        "    #pragma omp barrier",
        "    const long run_blocks_ = failed_ ? 0 : num_blocks_;",
        "    #pragma omp for schedule(static)",
        "    for (long blk_ = 0; blk_ < run_blocks_; ++blk_) {",
    ]
    body += ix.indent(block_body, 2)
    body += [
        "    }",
        "    free(s_a); free(s_b); free(c_tile_);",
        "}",
        "return failed_ ? 2 : 0;",
    ]

    lines = [f"int {name}({', '.join(params)})", "{"]
    lines += ix.indent(body, 1)
    lines.append("}")
    return lines


def _emit_program(plan: KernelPlan, kernel_name: str = "tc_kernel_omp") -> str:
    """Emit a standalone OpenMP-C program executing the kernel plan."""
    lines = [
        "/* Generated by COGENT-repro: OpenMP-C CPU backend for",
        f" * {plan.contraction}",
        f" * config: {plan.config.describe()}",
        " * (compiles as serial C99 when built without -fopenmp)",
        " */",
        "#include <stdio.h>",
        "#include <stdlib.h>",
        "#include <string.h>",
        "",
    ]
    lines += _kernel_function(plan, kernel_name)
    lines.append("")
    lines += host_main_function(plan, kernel_name)
    return "\n".join(lines) + "\n"


def compile_and_run(
    plan: KernelPlan, a: np.ndarray, b: np.ndarray, cc: str = "cc"
) -> np.ndarray:
    """Build the OpenMP program (once), run it on ``a``/``b``, return C."""
    return compile_and_run_source(
        plan, _emit_program(plan), "tc_kernel_omp", a, b,
        cc=cc, cflags=CFLAGS, fallback_cflags=CFLAGS_PORTABLE,
    )


@register_target
class OpenmpTarget(CodegenTarget):
    """The measurable CPU performance backend: OpenMP parallel-for over
    thread-block tiles with a vectorizable accumulation loop."""

    name = "openmp"
    can_execute = True
    source_suffix = ".c"

    def emit_kernel(
        self, plan: KernelPlan, kernel_name: str = "tc_kernel"
    ) -> str:
        return _emit_program(plan, kernel_name + "_omp")

    def _compile_and_run(
        self, plan: KernelPlan, a: np.ndarray, b: np.ndarray, **kwargs
    ) -> np.ndarray:
        return compile_and_run(plan, a, b, **kwargs)
