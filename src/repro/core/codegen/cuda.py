"""CUDA kernel emission (paper Algorithm 1).

Generates a complete ``.cu`` kernel implementing the four-phase schema:
staged loads of both input tiles into shared memory, per-thread loads of
column/row vectors into registers, an outer-product accumulation into a
2D register tile, and a coalesced store of the output tile.  Extents are
kernel parameters (the generated code is correct for any problem size);
tile sizes and the index mapping are baked in as literals from the
:class:`~repro.core.plan.KernelPlan`.
"""

from __future__ import annotations

from typing import List

from ..plan import KernelPlan
from . import indexing as ix
from .registry import CodegenTarget, register_target


def scalar_type(dtype_bytes: int) -> str:
    return "double" if dtype_bytes == 8 else "float"


def kernel_param_list(plan: KernelPlan, scalar: str) -> str:
    c, a, b = (
        plan.contraction.c,
        plan.contraction.a,
        plan.contraction.b,
    )
    params = [
        f"{scalar}* __restrict__ g_{c.name}",
        f"const {scalar}* __restrict__ g_{a.name}",
        f"const {scalar}* __restrict__ g_{b.name}",
    ]
    params += [
        f"int {ix.extent_param(i)}" for i in plan.contraction.all_indices
    ]
    return ", ".join(params)


def _banner(plan: KernelPlan) -> List[str]:
    est_regs = plan.config.registers_per_thread(plan.dtype_bytes)
    return [
        "// Generated by COGENT-repro (CGO 2019 reproduction).",
        f"// contraction : {plan.contraction}",
        f"// config      : {plan.config.describe()}",
        f"// threads     : {plan.tb_x} x {plan.tb_y}, "
        f"register tile {plan.reg_x} x {plan.reg_y}",
        f"// shared mem  : {plan.smem_bytes} bytes, "
        f"~{est_regs} regs/thread",
    ]


def _load_loop(
    plan: KernelPlan, tensor, buffer: str, scalar: str,
    vectorize: bool = True,
) -> List[str]:
    frag = ix.TileLoadFragment(plan, tensor)
    body, addr, bounds, smem_idx = frag.body("l_")
    n_elems = plan.tile_elements(tensor)
    width = plan.staging_vector_width(tensor) if vectorize else 1
    if width == 1:
        lines = [
            f"// stage {tensor.name} tile ({n_elems} elements)",
            f"for (int l_ = tid_; l_ < {n_elems}; "
            f"l_ += {plan.threads_per_block}) {{",
        ]
        lines += ix.indent(body, 1)
        lines += ix.indent(
            [
                f"{buffer}[{smem_idx}] = ({bounds})"
                f" ? g_{tensor.name}[{addr}] : ({scalar})0;",
            ],
            1,
        )
        lines.append("}")
        return lines

    # Vectorized staging: each iteration moves `width` consecutive
    # elements (one aligned 16-byte global transaction per thread).
    vec_type = {("double", 2): "double2", ("float", 4): "float4",
                ("float", 2): "float2"}[(scalar, width)]
    lane_fields = ["x", "y", "z", "w"][:width]
    lane_stride = plan.smem_lane_stride(tensor)
    lines = [
        f"// stage {tensor.name} tile ({n_elems} elements, "
        f"{vec_type} loads)",
        f"for (int l_ = tid_ * {width}; l_ < {n_elems}; "
        f"l_ += {plan.threads_per_block * width}) {{",
    ]
    lines += ix.indent(body, 1)
    inner = [
        f"if ({bounds}) {{",
        f"    const {vec_type} v_ = *(const {vec_type}*)"
        f"(&g_{tensor.name}[{addr}]);",
    ]
    for lane, field in enumerate(lane_fields):
        inner.append(
            f"    {buffer}[({smem_idx}) + {lane * lane_stride}]"
            f" = v_.{field};"
        )
    inner.append("} else {")
    for lane in range(width):
        inner.append(
            f"    {buffer}[({smem_idx}) + {lane * lane_stride}]"
            f" = ({scalar})0;"
        )
    inner.append("}")
    lines += ix.indent(inner, 1)
    lines.append("}")
    return lines


def _compute_phase(plan: KernelPlan, scalar: str) -> List[str]:
    btx = plan.config.block_tile_x
    bty = plan.config.block_tile_y
    rx, ry = plan.reg_x, plan.reg_y
    return [
        "// outer-product accumulation over the staged contraction tile",
        f"for (int kk_ = 0; kk_ < {plan.tb_k_tile}; ++kk_) {{",
        "    #pragma unroll",
        f"    for (int rx_ = 0; rx_ < {rx}; ++rx_)",
        f"        r_a[rx_] = s_a[kk_ * {btx} + rx_ * {plan.tb_x} + tx_];",
        "    #pragma unroll",
        f"    for (int ry_ = 0; ry_ < {ry}; ++ry_)",
        f"        r_b[ry_] = s_b[kk_ * {bty} + ry_ * {plan.tb_y} + ty_];",
        "    #pragma unroll",
        f"    for (int rx_ = 0; rx_ < {rx}; ++rx_)",
        "        #pragma unroll",
        f"        for (int ry_ = 0; ry_ < {ry}; ++ry_)",
        f"            r_c[rx_ * {ry} + ry_] += r_a[rx_] * r_b[ry_];",
        "}",
    ]


def _store_phase(plan: KernelPlan) -> List[str]:
    store = ix.StoreFragment(plan)
    thread_lines, thread_coords = store.thread_coord_decls("tx_", "ty_")
    reg_lines, reg_coords = store.reg_coord_decls("rx_", "ry_")
    coords = {**thread_coords, **reg_coords}
    addr_lines, addr, bounds = store.address_and_bounds(coords)
    lines = ["// store the register tile of the output"]
    lines += thread_lines
    lines.append(f"for (int ry_ = 0; ry_ < {plan.reg_y}; ++ry_) {{")
    lines.append(f"    for (int rx_ = 0; rx_ < {plan.reg_x}; ++rx_) {{")
    body = reg_lines + addr_lines + [
        f"if ({bounds}) {{",
        f"    g_{plan.contraction.c.name}[{addr}] = "
        f"r_c[rx_ * {plan.reg_y} + ry_];",
        "}",
    ]
    lines += ix.indent(body, 2)
    lines.append("    }")
    lines.append("}")
    return lines


def _emit_kernel(plan: KernelPlan, kernel_name: str = "tc_kernel") -> str:
    """Emit the CUDA ``__global__`` kernel for ``plan``."""
    scalar = scalar_type(plan.dtype_bytes)
    contraction = plan.contraction
    body: List[str] = []

    body += ix.stride_definitions(contraction.c)
    body += ix.stride_definitions(contraction.a)
    body += ix.stride_definitions(contraction.b)
    body.append("")
    body += ix.tile_count_definitions(plan.block_axes)
    body += ix.tile_count_definitions(plan.step_axes)
    body.append("")
    body.append("// block-id decomposition into output-tile offsets")
    body += ix.decompose_offsets(
        "blockIdx.x", plan.block_axes, ix.block_offset_var, "bid_"
    )
    body.append("")
    body += [
        "const int tx_ = threadIdx.x;",
        "const int ty_ = threadIdx.y;",
        f"const int tid_ = tx_ + {plan.tb_x} * ty_;",
        "",
        f"__shared__ {scalar} s_a[{plan.smem_x_elements}];",
        f"__shared__ {scalar} s_b[{plan.smem_y_elements}];",
        f"{scalar} r_c[{plan.reg_x * plan.reg_y}];",
        f"{scalar} r_a[{plan.reg_x}];",
        f"{scalar} r_b[{plan.reg_y}];",
        f"for (int i_ = 0; i_ < {plan.reg_x * plan.reg_y}; ++i_)"
        f" r_c[i_] = ({scalar})0;",
        "",
    ]
    nsteps_terms = [
        ix.ntiles_var(a.index) for a in plan.step_axes
    ] or ["1"]
    body.append(f"const int nsteps_ = {' * '.join(nsteps_terms)};")
    body.append("for (int step_ = 0; step_ < nsteps_; ++step_) {")
    step_body: List[str] = []
    step_body += ix.decompose_offsets(
        "step_", plan.step_axes, ix.step_offset_var, "sid_"
    )
    step_body += _load_loop(plan, plan.x_input, "s_a", scalar)
    step_body += _load_loop(plan, plan.y_input, "s_b", scalar)
    step_body.append("__syncthreads();")
    step_body += _compute_phase(plan, scalar)
    step_body.append("__syncthreads();")
    body += ix.indent(step_body, 1)
    body.append("}")
    body.append("")
    body += _store_phase(plan)

    lines = _banner(plan)
    lines.append(
        f'extern "C" __global__ void {kernel_name}'
        f"({kernel_param_list(plan, scalar)})"
    )
    lines.append("{")
    lines += ix.indent(body, 1)
    lines.append("}")
    return "\n".join(lines) + "\n"


def generate_launch_snippet(
    plan: KernelPlan, kernel_name: str = "tc_kernel"
) -> str:
    """Host-side launch code computing the grid from runtime extents."""
    terms = []
    for axis in plan.block_axes:
        terms.append(
            f"(long)(({ix.extent_param(axis.index)} + {axis.tile} - 1)"
            f" / {axis.tile})"
        )
    grid = " * ".join(terms) if terms else "1"
    args = ", ".join(
        [f"d_{plan.contraction.c.name}",
         f"d_{plan.contraction.a.name}",
         f"d_{plan.contraction.b.name}"]
        + [ix.extent_param(i) for i in plan.contraction.all_indices]
    )
    return "\n".join(
        [
            f"const long num_blocks_ = {grid};",
            f"dim3 block_({plan.tb_x}, {plan.tb_y});",
            f"{kernel_name}<<<(unsigned)num_blocks_, block_>>>({args});",
        ]
    ) + "\n"


@register_target
class CudaTarget(CodegenTarget):
    """The paper's primary backend: the four-phase CUDA kernel."""

    name = "cuda"
    can_execute = False
    source_suffix = ".cu"

    def emit_kernel(
        self, plan: KernelPlan, kernel_name: str = "tc_kernel"
    ) -> str:
        return _emit_kernel(plan, kernel_name)

    def emit_driver(
        self, plan: KernelPlan, kernel_name: str = "tc_kernel"
    ) -> str:
        from .driver import _emit_driver

        return _emit_driver(plan, kernel_name)

    def launch_snippet(
        self, plan: KernelPlan, kernel_name: str = "tc_kernel"
    ) -> str:
        return generate_launch_snippet(plan, kernel_name)
