"""OpenCL kernel emission.

The paper notes "OpenCL code generation is planned for the future, but
is not done at present" (Section III, footnote).  This backend provides
it: the same four-phase schema as the CUDA emitter — staged ``__local``
loads, per-work-item register vectors, outer-product accumulation,
coalesced stores — expressed in OpenCL C.  The kernel is launched as a
1D NDRange of work-groups of ``TB_x * TB_y`` work-items
(``get_local_id(0)``/``(1)`` map to the CUDA thread x/y).

All index arithmetic comes from the same fragment builders as the CUDA
and C-emulation backends (:mod:`repro.core.codegen.indexing`), so the
three targets cannot drift apart semantically.
"""

from __future__ import annotations

from typing import List

from ..plan import KernelPlan
from . import indexing as ix
from .cuda import scalar_type
from .registry import CodegenTarget, register_target


def _banner(plan: KernelPlan) -> List[str]:
    return [
        "// Generated by COGENT-repro (CGO 2019 reproduction), OpenCL"
        " backend.",
        f"// contraction : {plan.contraction}",
        f"// config      : {plan.config.describe()}",
        f"// work-group  : {plan.tb_x} x {plan.tb_y}, "
        f"register tile {plan.reg_x} x {plan.reg_y}",
    ]


def _load_loop(plan: KernelPlan, tensor, buffer: str, scalar: str) -> List[str]:
    frag = ix.TileLoadFragment(plan, tensor)
    body, addr, bounds, local_idx = frag.body("l_")
    n_elems = plan.tile_elements(tensor)
    width = plan.staging_vector_width(tensor)
    if width == 1:
        lines = [
            f"// stage {tensor.name} tile ({n_elems} elements)",
            f"for (int l_ = tid_; l_ < {n_elems}; "
            f"l_ += {plan.threads_per_block}) {{",
        ]
        lines += ix.indent(body, 1)
        lines += ix.indent(
            [
                f"{buffer}[{local_idx}] = ({bounds})"
                f" ? g_{tensor.name}[{addr}] : ({scalar})0;",
            ],
            1,
        )
        lines.append("}")
        return lines
    # Grouped loads matching the CUDA backend's vector width (scalar
    # lanes keep the text runnable under the pthread harness).
    lane_stride = plan.smem_lane_stride(tensor)
    lines = [
        f"// stage {tensor.name} tile ({n_elems} elements, "
        f"{width}-wide groups)",
        f"for (int l_ = tid_ * {width}; l_ < {n_elems}; "
        f"l_ += {plan.threads_per_block * width}) {{",
    ]
    lines += ix.indent(body, 1)
    grouped = [f"if ({bounds}) {{"]
    for lane in range(width):
        grouped.append(
            f"    {buffer}[({local_idx}) + {lane * lane_stride}]"
            f" = g_{tensor.name}[({addr}) + {lane}];"
        )
    grouped.append("} else {")
    for lane in range(width):
        grouped.append(
            f"    {buffer}[({local_idx}) + {lane * lane_stride}]"
            f" = ({scalar})0;"
        )
    grouped.append("}")
    lines += ix.indent(grouped, 1)
    lines.append("}")
    return lines


def _compute_phase(plan: KernelPlan) -> List[str]:
    btx = plan.config.block_tile_x
    bty = plan.config.block_tile_y
    rx, ry = plan.reg_x, plan.reg_y
    return [
        "// outer-product accumulation over the staged contraction tile",
        f"for (int kk_ = 0; kk_ < {plan.tb_k_tile}; ++kk_) {{",
        f"    for (int rx_ = 0; rx_ < {rx}; ++rx_)",
        f"        r_a[rx_] = s_a[kk_ * {btx} + rx_ * {plan.tb_x} + tx_];",
        f"    for (int ry_ = 0; ry_ < {ry}; ++ry_)",
        f"        r_b[ry_] = s_b[kk_ * {bty} + ry_ * {plan.tb_y} + ty_];",
        f"    for (int rx_ = 0; rx_ < {rx}; ++rx_)",
        f"        for (int ry_ = 0; ry_ < {ry}; ++ry_)",
        f"            r_c[rx_ * {ry} + ry_] += r_a[rx_] * r_b[ry_];",
        "}",
    ]


def _store_phase(plan: KernelPlan) -> List[str]:
    store = ix.StoreFragment(plan)
    thread_lines, thread_coords = store.thread_coord_decls("tx_", "ty_")
    reg_lines, reg_coords = store.reg_coord_decls("rx_", "ry_")
    addr_lines, addr, bounds = store.address_and_bounds(
        {**thread_coords, **reg_coords}
    )
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
    lines += ["    }", "}"]
    return lines


def _emit_kernel(plan: KernelPlan, kernel_name: str = "tc_kernel") -> str:
    """Emit the OpenCL C kernel for ``plan``."""
    scalar = scalar_type(plan.dtype_bytes)
    contraction = plan.contraction
    c, a, b = contraction.c, contraction.a, contraction.b

    params = [
        f"__global {scalar}* restrict g_{c.name}",
        f"__global const {scalar}* restrict g_{a.name}",
        f"__global const {scalar}* restrict g_{b.name}",
    ]
    params += [
        f"const int {ix.extent_param(i)}" for i in contraction.all_indices
    ]

    body: List[str] = []
    body += ix.stride_definitions(c)
    body += ix.stride_definitions(a)
    body += ix.stride_definitions(b)
    body.append("")
    body += ix.tile_count_definitions(plan.block_axes)
    body += ix.tile_count_definitions(plan.step_axes)
    body.append("")
    body.append("// work-group id decomposition into output-tile offsets")
    body += ix.decompose_offsets(
        "(int)get_group_id(0)", plan.block_axes, ix.block_offset_var, "bid_"
    )
    body.append("")
    body += [
        "const int tx_ = (int)get_local_id(0);",
        "const int ty_ = (int)get_local_id(1);",
        f"const int tid_ = tx_ + {plan.tb_x} * ty_;",
        "",
        f"__local {scalar} s_a[{plan.smem_x_elements}];",
        f"__local {scalar} s_b[{plan.smem_y_elements}];",
        f"{scalar} r_c[{plan.reg_x * plan.reg_y}];",
        f"{scalar} r_a[{plan.reg_x}];",
        f"{scalar} r_b[{plan.reg_y}];",
        f"for (int i_ = 0; i_ < {plan.reg_x * plan.reg_y}; ++i_)"
        f" r_c[i_] = ({scalar})0;",
        "",
    ]
    nsteps_terms = [
        ix.ntiles_var(axis.index) for axis in plan.step_axes
    ] or ["1"]
    body.append(f"const int nsteps_ = {' * '.join(nsteps_terms)};")
    body.append("for (int step_ = 0; step_ < nsteps_; ++step_) {")
    step_body: List[str] = []
    step_body += ix.decompose_offsets(
        "step_", plan.step_axes, ix.step_offset_var, "sid_"
    )
    step_body += _load_loop(plan, plan.x_input, "s_a", scalar)
    step_body += _load_loop(plan, plan.y_input, "s_b", scalar)
    step_body.append("barrier(CLK_LOCAL_MEM_FENCE);")
    step_body += _compute_phase(plan)
    step_body.append("barrier(CLK_LOCAL_MEM_FENCE);")
    body += ix.indent(step_body, 1)
    body.append("}")
    body.append("")
    body += _store_phase(plan)

    lines = _banner(plan)
    if plan.dtype_bytes == 8:
        lines.append("#pragma OPENCL EXTENSION cl_khr_fp64 : enable")
    lines.append(
        f"__attribute__((reqd_work_group_size({plan.tb_x}, "
        f"{plan.tb_y}, 1)))"
    )
    lines.append(f"__kernel void {kernel_name}({', '.join(params)})")
    lines.append("{")
    lines += ix.indent(body, 1)
    lines.append("}")
    return "\n".join(lines) + "\n"


@register_target
class OpenclTarget(CodegenTarget):
    """The paper's planned second backend: OpenCL C kernels.

    Cannot be executed here directly (no OpenCL runtime); the ``clemu``
    target compiles the same kernel text under a pthread harness.
    """

    name = "opencl"
    can_execute = False
    source_suffix = ".cl"

    def emit_kernel(
        self, plan: KernelPlan, kernel_name: str = "tc_kernel"
    ) -> str:
        return _emit_kernel(plan, kernel_name)

    def emit_driver(
        self, plan: KernelPlan, kernel_name: str = "tc_kernel"
    ) -> str:
        from .clemu import generate_opencl_harness

        return generate_opencl_harness(plan, kernel_name)
