"""OpenMP-C CPU backend.

Where :mod:`repro.core.codegen.cemu` emulates the CUDA execution model
*faithfully* (per-thread register tiles, barrier-delimited phases) to
serve as a correctness oracle, this target maps the same kernel plan to
code that is actually fast on a CPU:

* the grid loop over output thread-block tiles becomes an OpenMP
  ``parallel for`` (one tile per iteration, ``schedule(static)``);
* the staged tile loads run one loop per tile axis, FVI innermost, so
  no element decomposes a flat index with ``%`` and ``/``; the smem
  layout, including the vector-lane grouping, is the GPU schema's;
* the paper's ``REG_X x REG_Y`` register tile becomes an ``MR x NR``
  micro-tile (:func:`micro_tile`): the block tile is swept in register
  blocks, each held in named scalars across the whole ``kk_`` loop of a
  step and spilled to the ``BLOCK_X x BLOCK_Y`` block accumulator only
  between steps, like a GETT micro-kernel over packed tiles;
* the store splits the output address into a block, a row and a column
  part, so each is computed once per block, row or column.

Every output element sums its products over steps, then ``kk_``, in the
same order as cemu, and ``acc += a * b`` is never fused, so the output
is byte-identical to cemu even on non-integer operands.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..mapping import Dim
from ..plan import Axis, KernelPlan
from . import indexing as ix
from .chost import (
    compile_and_run_source,
    host_main_function,
    scalar_type,
    stage_group,
)
from .registry import CodegenTarget, register_target

#: The register block is spelled out in the source, so the one transform
#: the kernel needs beyond ``-O1`` is SLP vectorization of that block;
#: the loop peeling, unswitching and loop vectorization of ``-O2``/``-O3``
#: only add compile time.  ``-ffp-contract=off`` keeps ``acc += a * b``
#: two roundings, as in the emulation, on compilers that would fuse it.
CFLAGS = (
    "-O1", "-ftree-slp-vectorize", "-std=c99", "-ffp-contract=off",
    "-fopenmp", "-march=native",
)
#: Retried when the compiler does not understand ``-march=native``.
CFLAGS_PORTABLE = CFLAGS[:-1]


def micro_tile(plan: KernelPlan) -> Tuple[int, int]:
    """``(MR, NR)``: the register block one micro-kernel call holds.

    The largest divisors of the block tile that are at most 4 rows and
    8 columns, so the micro-tiles cover the block tile exactly and the
    kernel has one compute path with no remainder loop.
    """
    def largest_divisor(n: int, cap: int) -> int:
        return max(d for d in range(1, cap + 1) if n % d == 0)

    return (
        largest_divisor(plan.config.block_tile_x, 4),
        largest_divisor(plan.config.block_tile_y, 8),
    )


def _stage_loops(
    plan: KernelPlan, tensor, buffer: str, scalar: str
) -> List[str]:
    """Stage one input tile into ``buffer`` with one loop per tile axis.

    The loops run in the tensor's storage order, FVI innermost and
    stepping by the staging vector width, and carry the local
    coordinates directly, so no element decomposes a flat index with
    ``%`` and ``/``.  The outer axes' share of the address and bounds
    is computed once per FVI row.  Addressing, bounds, smem layout and
    lane grouping are the emulation's
    (:class:`~repro.core.codegen.indexing.TileLoadFragment`).
    """
    frag = ix.TileLoadFragment(plan, tensor)
    width = plan.staging_vector_width(tensor)
    axes = plan.tensor_tile_axes(tensor)
    coords = {
        axis.index: f"lc_{axis.index}" if axis.tile > 1 else "0"
        for axis in axes
    }
    # Tile-1 axes get no loop; the enclosing block scopes their
    # coordinates to this tensor.
    lines = ["{"]
    depth = 1

    def open_loop(axis: Axis, step: str) -> None:
        nonlocal depth
        coord = coords[axis.index]
        if axis.tile > 1:
            lines.extend(ix.indent([
                f"for (int {coord} = 0; {coord} < {axis.tile};"
                f" {coord} {step}) {{"
            ], depth))
            depth += 1
        lines.extend(ix.indent(
            [frag.global_coord_decl(axis.index, coord)], depth
        ))

    fvi, outer = axes[0], axes[1:]
    for axis in reversed(outer):
        open_loop(axis, "+= 1")
    row_addr, row_bounds = frag.address_and_bounds(
        [axis.index for axis in outer]
    )
    lines += ix.indent([
        f"const long row_at_ = {row_addr};",
        f"const int row_in_ = {row_bounds};",
    ], depth)
    open_loop(fvi, f"+= {width}")
    addr, bounds = frag.address_and_bounds([fvi.index])
    lines += ix.indent(
        stage_group(plan, tensor, buffer, scalar,
                    f"row_at_ + {addr}", f"row_in_ && {bounds}",
                    frag.smem_index_expr(coords)),
        depth,
    )
    for level in reversed(range(depth)):
        lines += ix.indent(["}"], level)
    return lines


def _micro_kernel(plan: KernelPlan, scalar: str) -> List[str]:
    """The outer product over one staged step, one register block at a time.

    The paper's register tile: each ``MR x NR`` block of ``c_tile_`` is
    loaded into named scalars, accumulates the whole ``kk_`` loop there
    and is written back.  The block is spelled out rather than left to
    loop unrolling, so the compiler keeps it in registers without
    peeling loops.  Every element still sums ``kk_`` in order, so the
    result is bit-identical to the emulation's.
    """
    btx = plan.config.block_tile_x
    bty = plan.config.block_tile_y
    mr, nr = micro_tile(plan)
    acc = [[f"r{i}_{j}_" for j in range(nr)] for i in range(mr)]
    lines = [
        f"for (int x0_ = 0; x0_ < {btx}; x0_ += {mr}) {{",
        f"    for (int y0_ = 0; y0_ < {bty}; y0_ += {nr}) {{",
        f"        {scalar}* restrict c_blk_ ="
        f" &c_tile_[(long)x0_ * {bty} + y0_];",
    ]
    lines += [
        "        " + " ".join(
            f"{scalar} {acc[i][j]} = c_blk_[{i * bty + j}];"
            for j in range(nr)
        )
        for i in range(mr)
    ]
    lines += [
        f"        for (int kk_ = 0; kk_ < {plan.tb_k_tile}; ++kk_) {{",
        f"            const {scalar}* restrict a_ = &s_a[kk_ * {btx} + x0_];",
        f"            const {scalar}* restrict b_ = &s_b[kk_ * {bty} + y0_];",
    ]
    lines += [
        "            " + " ".join(
            f"{acc[i][j]} += a_[{i}] * b_[{j}];" for j in range(nr)
        )
        for i in range(mr)
    ]
    lines.append("        }")
    lines += [
        "        " + " ".join(
            f"c_blk_[{i * bty + j}] = {acc[i][j]};" for j in range(nr)
        )
        for i in range(mr)
    ]
    lines += ["    }", "}"]
    return lines


def _side_store_terms(
    plan: KernelPlan, side: str, flat: str
) -> Tuple[List[str], str, str]:
    """One side's share of the output address and bounds.

    ``flat`` is the block-tile coordinate along ``side`` (``"x"`` or
    ``"y"``), laid out ``thread + TB * reg`` like the staging buffers.
    Returns (declarations, address offset, in-bounds predicate) over the
    C indices mapped to that side's thread and register dimensions.
    """
    if side == "x":
        tb, tb_dim, reg_dim = plan.tb_x, Dim.TB_X, Dim.REG_X
    else:
        tb, tb_dim, reg_dim = plan.tb_y, Dim.TB_Y, Dim.REG_Y
    store = ix.StoreFragment(plan)
    t_var, r_var = f"t{side}_", f"r{side}_"
    t_lines, t_coords = store.dim_coord_decls(tb_dim, t_var)
    r_lines, r_coords = store.dim_coord_decls(reg_dim, r_var)
    lines = [
        f"const int {t_var} = {flat} % {tb};",
        f"const int {r_var} = {flat} / {tb};",
    ] + t_lines + r_lines
    coords = {**t_coords, **r_coords}
    c = plan.contraction.c
    local = [i for i in c.indices if i in coords]
    addr = " + ".join(
        f"(long){coords[i]} * {ix.stride_var(c.name, i)}" for i in local
    ) or "0"
    bounds = " && ".join(
        f"({ix.block_offset_var(i)} + {coords[i]} < {ix.extent_param(i)})"
        for i in local
    ) or "1"
    return lines, addr, bounds


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
        step_body += _stage_loops(plan, tensor, buffer, scalar)
    step_body += _micro_kernel(plan, scalar)
    block_body.append("for (int step_ = 0; step_ < nsteps_; ++step_) {")
    block_body += ix.indent(step_body, 1)
    block_body.append("}")

    # Store: the output address splits into a block part, a row (x)
    # part and a column (y) part.  The block part is computed once, rows
    # are tabulated once per block and columns computed once each, so
    # no element decomposes a coordinate.  The inner loop runs along x,
    # the side of the output's FVI.
    block_addr = " + ".join(
        f"(long){ix.block_offset_var(i)} * {ix.stride_var(c.name, i)}"
        for i in c.indices
    )
    x_lines, x_addr, x_bounds = _side_store_terms(plan, "x", "x_")
    y_lines, y_addr, y_bounds = _side_store_terms(plan, "y", "y_")
    block_body.append(f"const long c_base_ = {block_addr};")
    block_body.append(f"for (int x_ = 0; x_ < {btx}; ++x_) {{")
    block_body += ix.indent(x_lines + [
        f"row_off_[x_] = {x_addr};",
        f"row_ok_[x_] = {x_bounds};",
    ], 1)
    block_body.append("}")
    block_body.append(f"for (int y_ = 0; y_ < {bty}; ++y_) {{")
    block_body += ix.indent(y_lines + [
        f"if (!({y_bounds})) continue;",
        f"{scalar}* restrict c_col_ = &g_{c.name}[c_base_ + {y_addr}];",
        f"for (int x_ = 0; x_ < {btx}; ++x_)",
        "    if (row_ok_[x_])",
        f"        c_col_[row_off_[x_]] = c_tile_[(long)x_ * {bty} + y_];",
    ], 1)
    block_body.append("}")

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
        f"    long row_off_[{btx}];",
        f"    int row_ok_[{btx}];",
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
