"""OpenMP-C CPU backend: one GETT macro-kernel per kernel structure.

Where :mod:`repro.core.codegen.cemu` emulates the CUDA execution model
*faithfully* (per-thread register tiles, barrier-delimited phases) to
serve as a correctness oracle, this target runs the same kernel plan
the way a CPU GEMM does (GETT, Springer & Bientinesi):

* the output is a matrix: the *M* input is the one holding C's last
  index, which is C's stride-1 index since the output is allocated
  C-ordered.  Each of its free indices (GRID-mapped ones included) is
  an ``M`` row coordinate, and each free index of the other input, the
  *N* input, an ``N`` column coordinate.  The contraction indices form
  one packed depth, concatenated in the plan's ``(step, kk_)`` order;
* address tables give each row, column and depth entry its offset in
  the operands and in C, so packing and storing never decompose a flat
  index.  Rows and columns run with the last C index of their side
  fastest, so a micro-tile's rows are contiguous in C and, in C-ordered
  operands, usually in the M input too;
* every offset comes from the tensors' own strides, which the entry
  takes in bytes as numpy reports them, so operands are read where they
  lie: C- or Fortran-ordered, transposed, sliced or broadcast;
* the output is cut into cache blocks sized for the CPU's caches, not
  by the GPU thread-block tile; an OpenMP ``parallel for`` runs the
  blocks, and each thread packs a block's M rows into ``MR``-row
  slivers and its N columns into ``NR``-column slivers;
* the paper's ``REG_X x REG_Y`` register tile becomes a fixed ``MR x
  NR`` micro-tile per element width (:data:`MICRO_TILE`), held in named
  scalars across the whole packed depth and then written to C; ragged
  edges are zero-padded in the slivers and never stored.

The built text depends on the kernel's structure only: index and
tensor names are :func:`~repro.core.program.canonical_form`'s, the
entry symbol is :data:`ENTRY`, and every extent, TB_K tile size and
stride is an ``entry`` argument.  Only the TB_K tiles matter at run
time (they set the depth order), so the free indices' tiles are not
passed.  So every kernel of one structure and TB_K order, whatever its
extents, tile sizes, names or operand layouts, shares one build
(:func:`build`).

Every output element adds its products in the plan's k order, starting
from ``+0``, and ``acc += a * b`` is never fused, so the output is
byte-identical to cemu even on non-integer operands (where the M input
is B, each product is ``b * a``, which IEEE multiplication makes the
same value as ``a * b``).
"""

from __future__ import annotations

import functools
from typing import List, Tuple

import numpy as np

from ..ir import Contraction, TensorRef
from ..mapping import KernelConfig, rename_config
from ..plan import KernelPlan
from . import chost
from . import indexing as ix
from .chost import host_main_function, scalar_type
from .registry import CodegenTarget, register_target

#: The register block is spelled out in the source, so the one transform
#: the kernel needs beyond ``-O1`` is SLP vectorization of that block and
#: of the constant-size copies; the loop peeling, unswitching and loop
#: vectorization of ``-O2``/``-O3`` only add compile time.
#: ``-ffp-contract=off`` keeps ``acc += a * b`` two roundings, as in the
#: emulation, on compilers that would fuse it.
CFLAGS = (
    "-O1", "-ftree-slp-vectorize", "-std=c99", "-ffp-contract=off",
    "-fopenmp", "-march=native",
)
#: Retried when the compiler does not understand ``-march=native``.
CFLAGS_PORTABLE = CFLAGS[:-1]
#: The exported entry point of every OpenMP program.
ENTRY = "tc_kernel_omp"


#: ``(MR, NR)``, the register block of the micro-kernel, by element
#: width: ``MR`` rows along the output's FVI times ``NR`` columns, i.e.
#: eight 64-byte vector accumulators for either width.  ``NR`` elements
#: span 32 bytes, so compilers broadcast each ``b`` from memory rather
#: than permute a loaded vector.
MICRO_TILE = {8: (16, 4), 4: (16, 8)}
#: Bytes of one packed x block (rows over the whole packed depth; a
#: sliver of it stays in L1 while the micro-kernel sweeps the y block)
#: and of one packed y block (columns; it stays in L2 during a sweep).
X_BLOCK_BYTES = 1 << 18
Y_BLOCK_BYTES = 1 << 20


def _chunks(statements: List[str], per_line: int = 4) -> List[str]:
    return [
        " ".join(statements[at:at + per_line])
        for at in range(0, len(statements), per_line)
    ]


def _pack_function(scalar: str) -> List[str]:
    """``pack_``: copy rows of one input into ``r_``-row slivers.

    Sliver-major, then packed depth, then the sliver's rows, so the
    micro-kernel reads both slivers contiguously.  A sliver whose rows
    are contiguous in the operand is copied one run per depth entry;
    rows past the side's extent pack as zero.
    """
    return [
        f"static void pack_({scalar}* restrict dst_, const {scalar}* src_,",
        "                  const long* row_, long first_, long count_,"
        " long rows_,",
        "                  const long* k_, long kp_, long r_)",
        "{",
        "    for (long s_ = 0; s_ < count_; s_ += r_) {",
        f"        {scalar}* restrict d_ = dst_ + s_ * kp_;",
        "        const long* at_ = row_ + first_ + s_;",
        "        const long in_ = rows_ - first_ - s_;",
        "        int run_ = in_ >= r_;",
        "        for (long i_ = 1; run_ && i_ < r_; ++i_)",
        "            run_ = at_[i_] == at_[0] + i_;",
        "        if (run_) {",
        f"            const {scalar}* s0_ = src_ + at_[0];",
        "            for (long p_ = 0; p_ < kp_; ++p_, d_ += r_)",
        "                put_(d_, s0_ + k_[p_], r_);",
        "        } else {",
        "            for (long p_ = 0; p_ < kp_; ++p_, d_ += r_)",
        "                for (long i_ = 0; i_ < r_; ++i_)",
        "                    d_[i_] = i_ < in_"
        f" ? src_[at_[i_] + k_[p_]] : ({scalar})0;",
        "        }",
        "    }",
        "}",
    ]


def _put_function(scalar: str, mr: int) -> List[str]:
    """``put_``: store a run of at most ``MR`` contiguous elements.

    One constant-size copy per set bit of the length, which the
    compiler turns into vector moves; a library ``memcpy`` per run
    costs more than the run on the short runs of small extents.
    """
    lines = [
        f"static void put_({scalar}* restrict d_,"
        f" const {scalar}* restrict s_, long n_)",
        "{",
    ]
    size = mr
    while size > 1:
        lines.append(
            f"    if (n_ & {size}) {{ memcpy(d_, s_, sizeof({scalar})"
            f" * {size}); d_ += {size}; s_ += {size}; }}"
        )
        size //= 2
    lines += ["    if (n_ & 1) *d_ = *s_;", "}"]
    return lines


def _micro_kernel(scalar: str, mr: int, nr: int) -> List[str]:
    """``micro_``: one ``MR x NR`` output tile over the whole packed
    depth, into ``t_`` (column-major).

    The paper's register tile: the accumulators are named scalars, so
    the compiler holds them in vector registers for the whole depth,
    and every element adds its products in packed (the plan's k)
    order.  It stays a function of its own: inlined into the OpenMP
    region, GCC's SLP pass vectorizes the accumulators twice.
    """
    def acc(i: int, j: int) -> str:
        return f"r{i}_{j}_"

    lines = [
        "__attribute__((noinline)) static void micro_(long kp_,",
        f"    const {scalar}* restrict a_, const {scalar}* restrict b_,"
        f" {scalar}* restrict t_)",
        "{",
    ]
    body: List[str] = []
    for j in range(nr):
        body += _chunks([f"{scalar} {acc(i, j)} = 0;" for i in range(mr)])
    body.append(
        f"for (long p_ = 0; p_ < kp_; ++p_, a_ += {mr}, b_ += {nr}) {{"
    )
    for j in range(nr):
        body += ix.indent(_chunks([
            f"{acc(i, j)} += a_[{i}] * b_[{j}];" for i in range(mr)
        ]), 1)
    body.append("}")
    for j in range(nr):
        body += _chunks([
            f"t_[{j * mr + i}] = {acc(i, j)};" for i in range(mr)
        ])
    return lines + ix.indent(body, 1) + ["}"]


def _macro_kernel(scalar: str, dtype_bytes: int) -> List[str]:
    """``gett_``: the GETT macro-kernel over address tables.

    ``xm_``/``cm_`` give each of the ``nm_`` M rows' offset in the M
    input ``x_`` and in C, ``yn_``/``cn_`` each of the ``nn_`` N
    columns' offset in the N input ``y_`` and in C, and ``xk_``/``yk_``
    each of the ``kp_`` packed depth entries' offset in the two inputs.
    The output, padded to whole slivers, is cut into cache blocks of
    ``mb_`` rows and ``nb_`` columns; an OpenMP ``parallel for`` runs
    them, each thread packing a block's M rows and N columns into its
    own buffers (only when the block's rows or columns change).  The
    micro-kernel then runs one M sliver against every N sliver of the
    block, so the stores of one sweep stay close in C.  Each run of a
    tile's rows that is contiguous in C is stored column by column;
    padded rows and columns are not stored.  Returns nonzero when an
    allocation failed.
    """
    mr, nr = MICRO_TILE[dtype_bytes]
    lines = [
        f"static int gett_({scalar}* restrict c_,"
        f" const {scalar}* x_, const {scalar}* y_,",
        "                 const long* xm_, const long* cm_, long nm_,",
        "                 const long* yn_, const long* cn_, long nn_,",
        "                 const long* xk_, const long* yk_, long kp_)",
        "{",
    ]
    # Each run of rows contiguous in C is stored column by column.
    store = [
        f"const long mv_ = nm_ - m0_ < {mr} ? nm_ - m0_ : {mr};",
        f"const long nv_ = nn_ - n0_ < {nr} ? nn_ - n0_ : {nr};",
        "for (long i_ = 0, len_; i_ < mv_; i_ += len_) {",
        "    len_ = runs_[m0_ + i_] < mv_ - i_ ? runs_[m0_ + i_] : mv_ - i_;",
        "    for (long j_ = 0; j_ < nv_; ++j_)",
        "        put_(c_ + cm_[m0_ + i_] + cn_[n0_ + j_],"
        f" t_ + j_ * {mr} + i_, len_);",
        "}",
    ]
    body = [
        "#ifdef _OPENMP",
        "const long threads_ = omp_get_max_threads();",
        "#else",
        "const long threads_ = 1;",
        "#endif",
        f"const long mp_ = (nm_ + {mr - 1}) / {mr} * {mr};",
        f"const long np_ = (nn_ + {nr - 1}) / {nr} * {nr};",
        f"long mb_ = {X_BLOCK_BYTES}L / ((long)sizeof({scalar}) * kp_)"
        f" / {mr} * {mr};",
        f"long nb_ = {Y_BLOCK_BYTES}L / ((long)sizeof({scalar}) * kp_)"
        f" / {nr} * {nr};",
        # At least one block of rows per thread, where there are rows.
        f"const long share_ = (mp_ / {mr} + threads_ - 1) / threads_ * {mr};",
        "if (mb_ > share_) mb_ = share_;",
        f"if (mb_ < {mr}) mb_ = {mr};",
        "if (mb_ > mp_) mb_ = mp_;",
        f"if (nb_ < {nr}) nb_ = {nr};",
        "if (nb_ > np_) nb_ = np_;",
        "const long nmb_ = (mp_ + mb_ - 1) / mb_;",
        "const long blocks_ = nmb_ * ((np_ + nb_ - 1) / nb_);",
        # runs_[m]: how many rows from m on are contiguous in C.
        "long* runs_ = (long*)malloc(sizeof(long) * nm_);",
        "if (!runs_) return 1;",
        "runs_[nm_ - 1] = 1;",
        "for (long m_ = nm_ - 2; m_ >= 0; --m_)",
        "    runs_[m_] = cm_[m_ + 1] == cm_[m_] + 1 ? runs_[m_ + 1] + 1 : 1;",
        # A failed allocation on any thread is published through the
        # shared flag; after the barrier every thread sees the same trip
        # count, so the worksharing loop stays well-formed.
        "int failed_ = 0;",
        "#pragma omp parallel",
        "{",
        f"    {scalar}* xp_ = ({scalar}*)malloc(sizeof({scalar})"
        " * mb_ * kp_);",
        f"    {scalar}* yp_ = ({scalar}*)malloc(sizeof({scalar})"
        " * nb_ * kp_);",
        "    if (!xp_ || !yp_) {",
        "        #pragma omp atomic write",
        "        failed_ = 1;",
        "    }",
        "    #pragma omp barrier",
        "    const long run_ = failed_ ? 0 : blocks_;",
        "    long packed_ic_ = -1, packed_jc_ = -1;",
        "    #pragma omp for schedule(static)",
        "    for (long blk_ = 0; blk_ < run_; ++blk_) {",
        "        const long ic_ = blk_ % nmb_ * mb_, jc_ = blk_ / nmb_ * nb_;",
        "        const long mc_ = mp_ - ic_ < mb_ ? mp_ - ic_ : mb_;",
        "        const long nc_ = np_ - jc_ < nb_ ? np_ - jc_ : nb_;",
        "        if (ic_ != packed_ic_) {",
        f"            pack_(xp_, x_, xm_, ic_, mc_, nm_, xk_, kp_, {mr});",
        "            packed_ic_ = ic_;",
        "        }",
        "        if (jc_ != packed_jc_) {",
        f"            pack_(yp_, y_, yn_, jc_, nc_, nn_, yk_, kp_, {nr});",
        "            packed_jc_ = jc_;",
        "        }",
        f"        for (long ir_ = 0; ir_ < mc_; ir_ += {mr}) {{",
        f"            for (long jr_ = 0; jr_ < nc_; jr_ += {nr}) {{",
        "                const long m0_ = ic_ + ir_, n0_ = jc_ + jr_;",
        f"                {scalar} t_[{mr * nr}];",
        "                micro_(kp_, xp_ + ir_ * kp_, yp_ + jr_ * kp_, t_);",
    ]
    body += ix.indent(store, 4)
    body += [
        "            }",
        "        }",
        "    }",
        "    free(xp_); free(yp_);",
        "}",
        "free(runs_);",
        "return failed_;",
    ]
    return lines + ix.indent(body, 1) + ["}"]


def _address(tensor: TensorRef, indices) -> str:
    """``tensor``'s offset of the ``g_<i>`` coordinates of ``indices``."""
    return " + ".join(
        f"(long)g_{i} * {ix.stride_var(tensor.name, i)}"
        for i in tensor.indices if i in indices
    ) or "0"


def _depth_table(plan: KernelPlan) -> List[str]:
    """Fill ``xk_``/``yk_``: the packed depth in the plan's k order.

    Steps in step-id order, then ``kk_`` through the step's tile, both
    decomposed fastest-first over the TB_K indices as the emulation
    does.  Where a ragged step runs past an extent the emulation stages
    zeros and adds ``+0`` products; those are left out here, which
    changes no bit: an accumulator that starts at ``+0`` is never
    ``-0`` under round-to-nearest, and ``x + (+0)`` is ``x`` for every
    other ``x``, infinities and NaNs included.
    """
    axes = plan.step_axes
    internal = {axis.index for axis in axes}
    x, y = _sides(plan)
    kk = ["int rem_ = kk_;"]
    for n, axis in enumerate(axes):
        tile = ix.tile_param(axis.index)
        last = n + 1 == len(axes)
        kk.append(
            f"const int g_{axis.index} = {ix.step_offset_var(axis.index)}"
            f" + {'rem_' if last else f'rem_ % {tile}'};"
        )
        if not last:
            kk.append(f"rem_ /= {tile};")
    if axes:
        kk.append("if (" + " || ".join(
            f"g_{i} >= {ix.extent_param(i)}" for i in sorted(internal)
        ) + ") continue;")
    else:
        kk.append("(void)rem_;")
    kk += [
        f"xk_[p_] = {_address(x, internal)};",
        f"yk_[p_] = {_address(y, internal)};",
        "++p_;",
    ]
    lines = ["for (int step_ = 0; step_ < nsteps_; ++step_) {"]
    lines += ix.indent(ix.decompose_offsets(
        "step_", axes, ix.step_offset_var, "sid_", runtime_tiles=True,
    ), 1)
    lines.append("    for (int kk_ = 0; kk_ < tk_; ++kk_) {")
    lines += ix.indent(kk, 2)
    lines += ["    }", "}"]
    return ["{", "    long p_ = 0;"] + ix.indent(lines, 1) + ["}"]


def _side_table(
    c: TensorRef, tensor: TensorRef, free: Tuple[str, ...],
    rows: str, out: str,
) -> List[str]:
    """Fill ``rows``/``out``: each free-index point's offset in
    ``tensor`` and in C, the last free index (in C order) fastest."""
    if not free:
        return [f"{rows}[0] = 0;", f"{out}[0] = 0;"]
    lines = ["{", "    long r_ = 0;"]
    for depth, index in enumerate(free, start=1):
        step = f"++g_{index}" + (", ++r_" if depth == len(free) else "")
        lines += ix.indent([
            f"for (int g_{index} = 0; g_{index} < {ix.extent_param(index)};"
            f" {step}) {{"
        ], depth)
    lines += ix.indent([
        f"{rows}[r_] = {_address(tensor, free)};",
        f"{out}[r_] = {_address(c, free)};",
    ], len(free) + 1)
    for depth in reversed(range(len(free) + 1)):
        lines += ix.indent(["}"], depth)
    return lines


def _sides(plan: KernelPlan) -> Tuple[TensorRef, TensorRef]:
    """The M and N inputs: M holds C's last index (the plan's x input
    for a scalar output)."""
    x, y = plan.x_input, plan.y_input
    c = plan.contraction.c
    if c.indices and c.indices[-1] in y.indices:
        return y, x
    return x, y


def _byte_stride_param(tensor: str, index: str) -> str:
    return f"sb_{tensor}_{index}"


def _kernel_function(plan: KernelPlan) -> List[str]:
    scalar = scalar_type(plan.dtype_bytes)
    contraction = plan.contraction
    c, a, b = contraction.c, contraction.a, contraction.b
    x, y = _sides(plan)
    m_free = tuple(i for i in c.indices if i in x.indices)
    n_free = tuple(i for i in c.indices if i in y.indices)
    axes = plan.step_axes
    tensor_indices = [(t.name, i) for t in (c, a, b) for i in t.indices]

    # The free indices' tiles block the GPU grid only; the CPU blocks
    # for its caches instead, so only the TB_K tiles are passed.
    params = [
        f"{scalar}* g_{c.name}",
        f"const {scalar}* g_{a.name}",
        f"const {scalar}* g_{b.name}",
    ]
    params += [f"int {ix.extent_param(i)}" for i in contraction.all_indices]
    params += [f"int {ix.tile_param(ax.index)}" for ax in axes]
    params += [f"long {_byte_stride_param(t, i)}" for t, i in tensor_indices]

    body: List[str] = [
        f"const long {ix.stride_var(t, i)} = {_byte_stride_param(t, i)}"
        f" / (long)sizeof({scalar});"
        for t, i in tensor_indices
    ]
    body += ix.tile_count_definitions(axes, runtime_tiles=True)

    def product(terms: List[str]) -> str:
        return " * ".join(terms) or "1"

    body += [
        "const int tk_ = "
        f"{product([ix.tile_param(ax.index) for ax in axes])};",
        "const int nsteps_ = "
        f"{product([ix.ntiles_var(ax.index) for ax in axes])};",
        "const long kp_ = "
        f"{product([f'(long){ix.extent_param(ax.index)}' for ax in axes])};",
        "const long nm_ = "
        f"{product([f'(long){ix.extent_param(i)}' for i in m_free])};",
        "const long nn_ = "
        f"{product([f'(long){ix.extent_param(i)}' for i in n_free])};",
        "long* xk_ = (long*)malloc(sizeof(long)"
        " * (2 * kp_ + 2 * nm_ + 2 * nn_));",
        "if (!xk_) return 2;",
        "long* yk_ = xk_ + kp_;",
        "long* xm_ = yk_ + kp_;",
        "long* cm_ = xm_ + nm_;",
        "long* yn_ = cm_ + nm_;",
        "long* cn_ = yn_ + nn_;",
    ]
    body += _depth_table(plan)
    body += _side_table(c, x, m_free, "xm_", "cm_")
    body += _side_table(c, y, n_free, "yn_", "cn_")
    body += [
        f"const int failed_ = gett_(g_{c.name}, g_{x.name}, g_{y.name},"
        " xm_, cm_, nm_, yn_, cn_, nn_, xk_, yk_, kp_);",
        "free(xk_);",
        "return failed_ ? 2 : 0;",
    ]

    lines = _put_function(scalar, MICRO_TILE[plan.dtype_bytes][0]) + [""]
    lines += _pack_function(scalar) + [""]
    lines += _micro_kernel(scalar, *MICRO_TILE[plan.dtype_bytes]) + [""]
    lines += _macro_kernel(scalar, plan.dtype_bytes) + [""]
    lines += [f"int {ENTRY}({', '.join(params)})", "{"]
    lines += ix.indent(body, 1)
    lines.append("}")
    return lines


def _canonical_plan(plan: KernelPlan) -> KernelPlan:
    """``plan`` under :func:`~repro.core.program.canonical_form` names.

    Renaming keeps every index's position, so the canonical entry takes
    extents, tiles and strides in the order of ``plan``'s own.
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
        "#ifdef _OPENMP",
        "#include <omp.h>",
        "#endif",
        "",
    ]
    lines += _kernel_function(_canonical_plan(plan))
    return "\n".join(lines) + "\n"


def build(plan: KernelPlan, cc: str = "cc") -> chost.NativeLibrary:
    """The loaded OpenMP program for ``plan``'s structure.

    Built on the first call for a structure, shared by every plan that
    emits the same text afterwards (:func:`chost.build_executable`).
    """
    c = plan.contraction
    return chost.build_executable(
        _emit_program(plan), ENTRY, cc=cc, cflags=CFLAGS,
        fallback_cflags=CFLAGS_PORTABLE,
        n_extents=len(c.all_indices), n_tiles=len(plan.step_axes),
        n_strides=sum(len(t.indices) for t in (c.c, c.a, c.b)),
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
    """The measurable CPU performance backend: a GETT macro-kernel with
    an OpenMP parallel-for over cache blocks and a register-blocked
    micro-kernel."""

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
        lines += host_main_function(plan, ENTRY, strided=True)
        return _emit_program(plan) + "\n" + "\n".join(lines) + "\n"

    def _compile_and_run(
        self, plan: KernelPlan, a: np.ndarray, b: np.ndarray, **kwargs
    ) -> np.ndarray:
        return compile_and_run(plan, a, b, **kwargs)
