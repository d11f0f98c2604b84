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

The built text depends on the kernel's structure only, like a GETT
macro-kernel around a fixed micro-kernel: index and tensor names are
:func:`~repro.core.program.canonical_form`'s, the entry symbol is
:data:`ENTRY`, and every tile size (with the block-tile, buffer and
store-table sizes derived from them) is an ``entry`` argument after the
extents.  What stays compile-time is what needs named scalars or
unrolled lanes: the ``MR x NR`` register block and the staging vector
widths.  So every kernel of one structure, whatever its extents, tile
sizes or names, shares one build (:func:`build`).

Every output element sums its products over steps, then ``kk_``, in the
same order as cemu, and ``acc += a * b`` is never fused, so the output
is byte-identical to cemu even on non-integer operands.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Tuple

import numpy as np

from ..ir import Contraction, TensorRef
from ..mapping import Dim, KernelConfig, rename_config
from ..plan import Axis, KernelPlan
from . import chost
from . import indexing as ix
from .chost import host_main_function, scalar_type, stage_group
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
#: The exported entry point of every OpenMP program.
ENTRY = "tc_kernel_omp"


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
    (:class:`~repro.core.codegen.indexing.TileLoadFragment`), with tile
    sizes spelled as the entry's ``t_<i>`` arguments.
    """
    frag = ix.TileLoadFragment(plan, tensor, runtime_tiles=True)
    width = plan.staging_vector_width(tensor)
    axes = plan.tensor_tile_axes(tensor)
    grid = set(plan.config.indices_on(Dim.GRID))
    coords = {
        axis.index: "0" if axis.index in grid else f"lc_{axis.index}"
        for axis in axes
    }
    # Grid-mapped axes have tile 1 and get no loop; the enclosing block
    # scopes their coordinates to this tensor.
    lines = ["{"]
    depth = 1

    def open_loop(axis: Axis, step: str) -> None:
        nonlocal depth
        coord = coords[axis.index]
        if axis.index not in grid:
            lines.extend(ix.indent([
                f"for (int {coord} = 0; {coord} < {ix.tile_param(axis.index)};"
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
    # The FVI coordinate moves the staging index by the lane stride.
    lane_stride = frag.lane_stride()
    fvi_coord = coords[fvi.index]
    lines += ix.indent([
        f"const long row_at_ = {row_addr};",
        f"const int row_in_ = {row_bounds};",
        f"const int row_s_ = "
        f"{frag.smem_index_expr({**coords, fvi.index: '0'})};",
    ], depth)
    open_loop(fvi, f"+= {width}")
    addr, bounds = frag.address_and_bounds([fvi.index])
    smem = "row_s_" if fvi_coord == "0" else (
        f"row_s_ + {fvi_coord}" if lane_stride == "1"
        else f"row_s_ + {fvi_coord} * {lane_stride}"
    )
    lines += ix.indent(
        stage_group(plan, tensor, buffer, scalar,
                    f"row_at_ + {addr}", f"row_in_ && {bounds}",
                    smem, lane_stride),
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
    btx, bty = ix.block_tile_var("x"), ix.block_tile_var("y")
    mr, nr = micro_tile(plan)
    acc = [[f"r{i}_{j}_" for j in range(nr)] for i in range(mr)]
    at = [
        [f"{j}" if i == 0 else f"{bty} + {j}" if i == 1
         else f"{i} * {bty} + {j}" for j in range(nr)]
        for i in range(mr)
    ]
    lines = [
        f"for (int x0_ = 0; x0_ < {btx}; x0_ += {mr}) {{",
        f"    for (int y0_ = 0; y0_ < {bty}; y0_ += {nr}) {{",
        f"        {scalar}* restrict c_blk_ ="
        f" &c_tile_[(long)x0_ * {bty} + y0_];",
    ]
    lines += [
        "        " + " ".join(
            f"{scalar} {acc[i][j]} = c_blk_[{at[i][j]}];"
            for j in range(nr)
        )
        for i in range(mr)
    ]
    lines += [
        "        for (int kk_ = 0; kk_ < tk_; ++kk_) {",
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
            f"c_blk_[{at[i][j]}] = {acc[i][j]};" for j in range(nr)
        )
        for i in range(mr)
    ]
    lines += ["    }", "}"]
    return lines


def _side_loops(
    plan: KernelPlan, side: str,
    body: Callable[[str, str], List[str]],
) -> List[str]:
    """Loop over one side (``"x"`` or ``"y"``) of the block tile.

    The side's flat coordinate ``x_``/``y_`` is laid out ``thread +
    TB * reg`` like the staging buffers.  Rather than decompose it with
    ``%`` and ``/`` by runtime tile sizes, one loop per index mapped to
    the side's thread and register dimensions carries that coordinate,
    fastest innermost, and the flat coordinate counts along.
    ``body(addr, bounds)`` is the loop body, given the side's share of
    the output address and its in-bounds predicate.
    """
    dims = (Dim.TB_X, Dim.REG_X) if side == "x" else (Dim.TB_Y, Dim.REG_Y)
    entries = [m for dim in dims for m in plan.config.by_dim(dim)]
    coords = {
        m.index: ("tc_" if m.dim in (Dim.TB_X, Dim.TB_Y) else "rc_")
        + m.index
        for m in entries
    }
    c = plan.contraction.c
    local = [i for i in c.indices if i in coords]
    addr = " + ".join(
        f"(long){coords[i]} * {ix.stride_var(c.name, i)}" for i in local
    ) or "0"
    bounds = " && ".join(
        f"({ix.block_offset_var(i)} + {coords[i]} < {ix.extent_param(i)})"
        for i in local
    ) or "1"
    flat = f"{side}_"
    if not entries:
        return (
            [f"for (int {flat} = 0; {flat} < 1; ++{flat}) {{"]
            + ix.indent(body(addr, bounds), 1) + ["}"]
        )
    lines = ["{", f"    int {flat} = 0;"]
    for depth, m in enumerate(reversed(entries), start=1):
        coord = coords[m.index]
        step = f"++{coord}, ++{flat}" if depth == len(entries) \
            else f"++{coord}"
        lines += ix.indent([
            f"for (int {coord} = 0; {coord} < {ix.tile_param(m.index)};"
            f" {step}) {{"
        ], depth)
    lines += ix.indent(body(addr, bounds), len(entries) + 1)
    for depth in reversed(range(len(entries) + 1)):
        lines += ix.indent(["}"], depth)
    return lines


def _size_definitions(plan: KernelPlan) -> List[str]:
    """The block-tile and step sizes, from the ``t_<i>`` arguments."""
    config = plan.config

    def tiles(*dims: Dim) -> str:
        return ix.spell_product(
            [ix.tile_param(i) for dim in dims for i in config.indices_on(dim)]
        )

    return [
        f"const int {ix.block_tile_var('x')} = {tiles(Dim.TB_X, Dim.REG_X)};",
        f"const int {ix.block_tile_var('y')} = {tiles(Dim.TB_Y, Dim.REG_Y)};",
        f"const int tk_ = {tiles(Dim.TB_K)};",
    ]


def _kernel_function(plan: KernelPlan) -> List[str]:
    scalar = scalar_type(plan.dtype_bytes)
    contraction = plan.contraction
    c, a, b = contraction.c, contraction.a, contraction.b
    btx, bty = ix.block_tile_var("x"), ix.block_tile_var("y")

    params = [
        f"{scalar}* g_{c.name}",
        f"const {scalar}* g_{a.name}",
        f"const {scalar}* g_{b.name}",
    ]
    params += [f"int {ix.extent_param(i)}" for i in contraction.all_indices]
    params += [f"int {ix.tile_param(i)}" for i in contraction.all_indices]

    body: List[str] = []
    body += ix.stride_definitions(c)
    body += ix.stride_definitions(a)
    body += ix.stride_definitions(b)
    body += _size_definitions(plan)
    body += ix.tile_count_definitions(plan.block_axes, runtime_tiles=True)
    body += ix.tile_count_definitions(plan.step_axes, runtime_tiles=True)

    nblock_terms = [ix.ntiles_var(x.index) for x in plan.block_axes] or ["1"]
    nstep_terms = [ix.ntiles_var(x.index) for x in plan.step_axes] or ["1"]
    body += [
        f"const long num_blocks_ = (long){' * (long)'.join(nblock_terms)};",
        f"const int nsteps_ = {' * '.join(nstep_terms)};",
    ]

    # Per-block-tile body: stage, accumulate, store one output tile.
    block_body: List[str] = []
    block_body += ix.decompose_offsets(
        "(int)blk_", plan.block_axes, ix.block_offset_var, "bid_",
        runtime_tiles=True,
    )
    block_body.append(
        f"memset(c_tile_, 0, sizeof({scalar}) * {btx} * {bty});"
    )

    step_body: List[str] = []
    step_body += ix.decompose_offsets(
        "step_", plan.step_axes, ix.step_offset_var, "sid_",
        runtime_tiles=True,
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
    block_body.append(f"const long c_base_ = {block_addr};")
    block_body += _side_loops(plan, "x", lambda addr, bounds: [
        f"row_off_[x_] = {addr};",
        f"row_ok_[x_] = {bounds};",
    ])
    block_body += _side_loops(plan, "y", lambda addr, bounds: [
        f"if (!({bounds})) continue;",
        f"{scalar}* restrict c_col_ = &g_{c.name}[c_base_ + {addr}];",
        f"for (int x_ = 0; x_ < {btx}; ++x_)",
        "    if (row_ok_[x_])",
        f"        c_col_[row_off_[x_]] = c_tile_[(long)x_ * {bty} + y_];",
    ])

    # The accumulator can exceed worker-thread stacks (up to ~0.5 MB),
    # so every buffer is heap-allocated per OpenMP thread.  A failed
    # allocation on any thread is published through the shared flag;
    # after the barrier every thread sees the same trip count, so the
    # worksharing loop stays well-formed and runs no block on failure.
    buffers = (
        (scalar, "s_a", f"{btx} * tk_"), (scalar, "s_b", f"{bty} * tk_"),
        (scalar, "c_tile_", f"{btx} * {bty}"),
        ("long", "row_off_", btx), ("int", "row_ok_", btx),
    )
    body += ["int failed_ = 0;", "#pragma omp parallel", "{"]
    body += [
        f"    {kind}* {name} = ({kind}*)malloc(sizeof({kind}) * {count});"
        for kind, name, count in buffers
    ]
    body += [
        "    if (" + " || ".join(f"!{name}" for _, name, _ in buffers)
        + ") {",
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
        "    " + " ".join(f"free({name});" for _, name, _ in buffers),
        "}",
        "return failed_ ? 2 : 0;",
    ]

    lines = [f"int {ENTRY}({', '.join(params)})", "{"]
    lines += ix.indent(body, 1)
    lines.append("}")
    return lines


def _canonical_plan(plan: KernelPlan) -> KernelPlan:
    """``plan`` under :func:`~repro.core.program.canonical_form` names.

    Renaming keeps every index's position, so the canonical entry takes
    extents and tiles in the order of ``plan``'s own ``all_indices``.
    """
    from ..program import canonical_form

    canon, rename = canonical_form(plan.contraction)
    return KernelPlan(
        canon, rename_config(plan.config, rename), plan.dtype_bytes
    )


def _emit_program(plan: KernelPlan) -> str:
    """The text :func:`build` compiles: the kernel's :data:`ENTRY` and
    nothing specific to its names, extents or tile sizes."""
    c = plan.contraction
    return _program_text(
        c.c, c.a, c.b, tuple(sorted(c.sizes.items())), plan.config,
        plan.dtype_bytes,
    )


#: Emitting takes longer than running a small kernel, and every fresh
#: kernel object resolves its library once, so texts are memoized by
#: the plan's value (a plan is not hashable: its sizes are a dict).
@functools.lru_cache(maxsize=1024)
def _program_text(
    c: TensorRef, a: TensorRef, b: TensorRef,
    sizes: Tuple[Tuple[str, int], ...], config: KernelConfig,
    dtype_bytes: int,
) -> str:
    plan = KernelPlan(Contraction(c, a, b, dict(sizes)), config, dtype_bytes)
    lines = [
        "#include <stdio.h>",
        "#include <stdlib.h>",
        "#include <string.h>",
        "",
    ]
    lines += _kernel_function(_canonical_plan(plan))
    return "\n".join(lines) + "\n"


def build(plan: KernelPlan, cc: str = "cc") -> chost.NativeLibrary:
    """The loaded OpenMP program for ``plan``'s structure.

    Built on the first call for a structure, shared by every plan that
    emits the same text afterwards (:func:`chost.build_executable`).
    """
    return chost.build_executable(
        _emit_program(plan), ENTRY, cc=cc, cflags=CFLAGS,
        fallback_cflags=CFLAGS_PORTABLE,
        n_extents=len(plan.contraction.all_indices), tiles=True,
    )


def program_key(plan: KernelPlan, cc: str = "cc") -> str:
    """The build key :func:`build` loads ``plan``'s program under; it
    names the structure, and computing it runs no compiler."""
    return chost.build_key(_emit_program(plan), ENTRY, cc, CFLAGS)


def compile_and_run(
    plan: KernelPlan, a: np.ndarray, b: np.ndarray, cc: str = "cc"
) -> np.ndarray:
    """Build the OpenMP program (once), run it on ``a``/``b``, return C."""
    return chost.run_executable(build(plan, cc), plan, a, b)


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
        """The built text plus a ``main()`` passing this plan's tiles.

        The kernel itself is named :data:`ENTRY` and spelled in
        canonical names; the comment above ``main()`` maps them back.
        """
        from ..program import canonical_form

        _, rename = canonical_form(plan.contraction)
        names = ", ".join(f"{new}={old}" for old, new in rename.items())
        lines = [
            f"/* {kernel_name}: {plan.contraction}",
            f" * config: {plan.config.describe()}",
            f" * indices: {names}; compiles as serial C99 without -fopenmp",
            " */",
        ]
        lines += host_main_function(plan, ENTRY, tiles=True)
        return _emit_program(plan) + "\n" + "\n".join(lines) + "\n"

    def _compile_and_run(
        self, plan: KernelPlan, a: np.ndarray, b: np.ndarray, **kwargs
    ) -> np.ndarray:
        return compile_and_run(plan, a, b, **kwargs)
