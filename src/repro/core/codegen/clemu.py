"""Execute generated OpenCL kernels on the host via a pthread harness.

OpenCL C is near-enough to C99 that the *actual generated kernel text*
can be compiled by the system C compiler given a small shim header:

* ``__kernel`` / ``__global`` / ``restrict`` — erased;
* ``__local`` — mapped to ``static`` (shared across the work-group's
  threads; work-groups are executed one at a time);
* ``barrier(CLK_LOCAL_MEM_FENCE)`` — a ``pthread_barrier_t`` across the
  work-group's threads;
* ``get_local_id`` / ``get_group_id`` — thread-local / global lookups.

The harness's exported launch entry point (called in-process by
:mod:`~repro.core.codegen.chost`) starts one pthread per work-item of
one work-group, iterates work-groups sequentially, and performs real
barrier synchronisation — i.e. the OpenCL execution model, faithfully,
on the CPU.  This validates the OpenCL backend's emitted source
end-to-end against ``numpy.einsum`` (no OpenCL runtime exists in this
offline environment).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..plan import KernelPlan
from . import indexing as ix
from .chost import compile_and_run_source, host_main_function, scalar_type
from .opencl import _emit_kernel as _emit_opencl_kernel
from .registry import CodegenTarget, register_target

_SHIM = """\
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>
#include <stddef.h>

static pthread_barrier_t wg_barrier_;
static int wg_group_id_;
static __thread int wg_local_id_[2];

#define __kernel
#define __global
#define __local static
#define CLK_LOCAL_MEM_FENCE 0
#define barrier(flags) pthread_barrier_wait(&wg_barrier_)
#define __attribute__(x)
static inline size_t get_local_id(int dim) { return wg_local_id_[dim]; }
static inline size_t get_group_id(int dim) { (void)dim; return wg_group_id_; }
"""


def generate_opencl_harness(
    plan: KernelPlan, kernel_name: str = "tc_kernel"
) -> str:
    """A C program embedding the OpenCL kernel and its launch loop.

    The work-group loop is the exported entry point
    ``<kernel_name>_launch``; ``main()`` is the shared standalone
    wrapper.
    """
    scalar = scalar_type(plan.dtype_bytes)
    indices = plan.contraction.all_indices
    entry = f"{kernel_name}_launch"

    kernel_src = _emit_opencl_kernel(plan, kernel_name)
    # The fp64 pragma is an OpenCL-ism; drop it for the C compiler.
    kernel_src = "\n".join(
        line for line in kernel_src.splitlines()
        if not line.startswith("#pragma OPENCL")
    )

    nthreads = plan.threads_per_block
    grid_terms = [
        f"(long)(({ix.extent_param(axis.index)} + {axis.tile} - 1)"
        f" / {axis.tile})"
        for axis in plan.block_axes
    ] or ["1"]
    params = [f"{scalar}* c_", f"const {scalar}* a_", f"const {scalar}* b_"]
    params += [f"int {ix.extent_param(i)}" for i in indices]

    lines: List[str] = [_SHIM, kernel_src, ""]
    lines += [
        "typedef struct {",
        f"    {scalar} *c; const {scalar} *a; const {scalar} *b;",
        f"    int extents[{len(indices)}];",
        "    int tx; int ty;",
        "} work_item_arg_t;",
        "",
        "static void* work_item_(void* p)",
        "{",
        "    work_item_arg_t* w = (work_item_arg_t*)p;",
        "    wg_local_id_[0] = w->tx;",
        "    wg_local_id_[1] = w->ty;",
        f"    {kernel_name}(w->c, w->a, w->b, "
        + ", ".join(f"w->extents[{k}]" for k in range(len(indices)))
        + ");",
        "    return NULL;",
        "}",
        "",
        f"int {entry}({', '.join(params)})",
        "{",
        f"    const long num_groups_ = {' * '.join(grid_terms)};",
        f"    pthread_t threads_[{nthreads}];",
        f"    work_item_arg_t args_[{nthreads}];",
        f"    if (pthread_barrier_init(&wg_barrier_, NULL, {nthreads}) != 0)",
        "        return 2;",
        "    for (long g_ = 0; g_ < num_groups_; ++g_) {",
        "        wg_group_id_ = (int)g_;",
        f"        for (int t_ = 0; t_ < {nthreads}; ++t_) {{",
        "            args_[t_].c = c_; args_[t_].a = a_; args_[t_].b = b_;",
    ]
    for k, index in enumerate(indices):
        lines.append(
            f"            args_[t_].extents[{k}] = "
            f"{ix.extent_param(index)};"
        )
    lines += [
        f"            args_[t_].tx = t_ % {plan.tb_x};",
        f"            args_[t_].ty = t_ / {plan.tb_x};",
        "            pthread_create(&threads_[t_], NULL, work_item_,"
        " &args_[t_]);",
        "        }",
        f"        for (int t_ = 0; t_ < {nthreads}; ++t_)",
        "            pthread_join(threads_[t_], NULL);",
        "    }",
        "    pthread_barrier_destroy(&wg_barrier_);",
        "    return 0;",
        "}",
        "",
    ]
    lines += host_main_function(plan, entry)
    return "\n".join(lines) + "\n"


def compile_and_run_opencl(
    plan: KernelPlan, a: np.ndarray, b: np.ndarray, cc: str = "cc"
) -> np.ndarray:
    """Build the pthread harness around the OpenCL kernel (once) and run it."""
    return compile_and_run_source(
        plan, generate_opencl_harness(plan), "tc_kernel_launch", a, b,
        cc=cc, cflags=("-O2", "-std=gnu99", "-pthread"),
    )


@register_target
class ClemuTarget(CodegenTarget):
    """OpenCL-on-CPU: the real OpenCL kernel text compiled under a
    pthread work-group harness (one thread per work-item)."""

    name = "clemu"
    can_execute = True
    source_suffix = ".c"

    def emit_kernel(
        self, plan: KernelPlan, kernel_name: str = "tc_kernel"
    ) -> str:
        return generate_opencl_harness(plan, kernel_name)

    def _compile_and_run(
        self, plan: KernelPlan, a: np.ndarray, b: np.ndarray, **kwargs
    ) -> np.ndarray:
        return compile_and_run_opencl(plan, a, b, **kwargs)
