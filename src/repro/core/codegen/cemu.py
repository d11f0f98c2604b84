"""Sequential-C emulation backend.

Emits the *same* kernel plan as :mod:`repro.core.codegen.cuda`, but as
plain C that runs on the host CPU: the implicit parallelism of CUDA is
made explicit by looping over thread blocks and, inside each
barrier-delimited phase, over threads.  The emulation is an exported
entry point that :mod:`~repro.core.codegen.chost` calls in-process (the
emitted ``main()`` wraps it for standalone use) — so the generated
*source text* (index arithmetic, staging layout, bounds handling) can be
compiled with a stock C compiler and validated end-to-end against
``numpy.einsum``.

This is the offline substitute for executing the CUDA kernel with
pycuda/cupy on real hardware (see DESIGN.md, substitution table).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..plan import KernelPlan
from . import indexing as ix
from .chost import (
    EmulationError,
    compile_and_run_source,
    host_main_function,
    scalar_type,
    serial_stage_loops,
)
from .registry import CodegenTarget, register_target


def _kernel_function(plan: KernelPlan, name: str) -> List[str]:
    scalar = scalar_type(plan.dtype_bytes)
    contraction = plan.contraction
    c, a, b = contraction.c, contraction.a, contraction.b

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
    nthreads = plan.threads_per_block
    reg_elems = plan.reg_x * plan.reg_y
    body += [
        f"const long num_blocks_ = (long){' * (long)'.join(nblock_terms)};",
        f"const int nsteps_ = {' * '.join(nstep_terms)};",
        f"{scalar}* s_a = ({scalar}*)malloc(sizeof({scalar})"
        f" * {plan.smem_x_elements});",
        f"{scalar}* s_b = ({scalar}*)malloc(sizeof({scalar})"
        f" * {plan.smem_y_elements});",
        f"{scalar}* r_c = ({scalar}*)malloc(sizeof({scalar})"
        f" * {nthreads} * {reg_elems});",
        "if (!s_a || !s_b || !r_c) {",
        "    free(s_a); free(s_b); free(r_c);",
        "    return 2;",
        "}",
    ]

    block_body: List[str] = []
    block_body += ix.decompose_offsets(
        "(int)blk_", plan.block_axes, ix.block_offset_var, "bid_"
    )
    block_body.append(
        f"memset(r_c, 0, sizeof({scalar}) * {nthreads} * {reg_elems});"
    )

    step_body: List[str] = []
    step_body += ix.decompose_offsets(
        "step_", plan.step_axes, ix.step_offset_var, "sid_"
    )
    # Mirror the CUDA backend's staging (scalar lanes for the vector
    # grouping) so the group/lane addressing is exercised by the
    # compiled emulation as well.
    for tensor, buffer in ((plan.x_input, "s_a"), (plan.y_input, "s_b")):
        step_body += serial_stage_loops(plan, tensor, buffer, scalar)
    btx = plan.config.block_tile_x
    bty = plan.config.block_tile_y
    step_body += [
        f"for (int tid_ = 0; tid_ < {nthreads}; ++tid_) {{",
        f"    const int tx_ = tid_ % {plan.tb_x};",
        f"    const int ty_ = tid_ / {plan.tb_x};",
        f"    for (int kk_ = 0; kk_ < {plan.tb_k_tile}; ++kk_)",
        f"        for (int rx_ = 0; rx_ < {plan.reg_x}; ++rx_)",
        f"            for (int ry_ = 0; ry_ < {plan.reg_y}; ++ry_)",
        f"                r_c[(tid_ * {plan.reg_x} + rx_) * {plan.reg_y}"
        f" + ry_] +=",
        f"                    s_a[kk_ * {btx} + rx_ * {plan.tb_x} + tx_]"
        f" * s_b[kk_ * {bty} + ry_ * {plan.tb_y} + ty_];",
        "}",
    ]
    block_body.append("for (int step_ = 0; step_ < nsteps_; ++step_) {")
    block_body += ix.indent(step_body, 1)
    block_body.append("}")

    # Store phase: per thread, per register element.
    store = ix.StoreFragment(plan)
    thread_lines, thread_coords = store.thread_coord_decls("tx_", "ty_")
    reg_lines, reg_coords = store.reg_coord_decls("rx_", "ry_")
    addr_lines, addr, bounds = store.address_and_bounds(
        {**thread_coords, **reg_coords}
    )
    store_body: List[str] = [
        f"for (int tid_ = 0; tid_ < {nthreads}; ++tid_) {{",
        f"    const int tx_ = tid_ % {plan.tb_x};",
        f"    const int ty_ = tid_ / {plan.tb_x};",
    ]
    store_body += ix.indent(thread_lines, 1)
    store_body += [
        f"    for (int ry_ = 0; ry_ < {plan.reg_y}; ++ry_) {{",
        f"        for (int rx_ = 0; rx_ < {plan.reg_x}; ++rx_) {{",
    ]
    inner_store = reg_lines + addr_lines + [
        f"if ({bounds}) {{",
        f"    g_{c.name}[{addr}] = r_c[(tid_ * {plan.reg_x} + rx_)"
        f" * {plan.reg_y} + ry_];",
        "}",
    ]
    store_body += ix.indent(inner_store, 3)
    store_body += ["        }", "    }", "}"]
    block_body += store_body

    body.append("for (long blk_ = 0; blk_ < num_blocks_; ++blk_) {")
    body += ix.indent(block_body, 1)
    body.append("}")
    body.append("free(s_a); free(s_b); free(r_c);")
    body.append("return 0;")

    lines = [f"int {name}({', '.join(params)})", "{"]
    lines += ix.indent(body, 1)
    lines.append("}")
    return lines


def _emit_program(plan: KernelPlan, kernel_name: str = "tc_kernel_emu") -> str:
    """Emit a standalone C program emulating the kernel plan."""
    lines = [
        "/* Generated by COGENT-repro: sequential C emulation of the",
        f" * CUDA kernel for  {plan.contraction}",
        f" * config: {plan.config.describe()}",
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
    """Build the emitted C program (once), run it on ``a``/``b``, return C."""
    return compile_and_run_source(
        plan, _emit_program(plan), "tc_kernel_emu", a, b,
        cc=cc, cflags=("-O2", "-std=c99"),
    )


@register_target
class CemuTarget(CodegenTarget):
    """Sequential C emulation of the CUDA execution model (the offline
    correctness oracle for the four-phase schema)."""

    name = "cemu"
    can_execute = True
    source_suffix = ".c"

    def emit_kernel(
        self, plan: KernelPlan, kernel_name: str = "tc_kernel"
    ) -> str:
        # Historical convention: the emulated symbol is the kernel name
        # with an ``_emu`` suffix, so emitted text matches the old
        # ``Kernel.c_emulation_source()`` byte for byte.
        return _emit_program(plan, kernel_name + "_emu")

    def _compile_and_run(
        self, plan: KernelPlan, a: np.ndarray, b: np.ndarray, **kwargs
    ) -> np.ndarray:
        return compile_and_run(plan, a, b, **kwargs)
