"""The per-block/per-step tile interpreter loop."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.ir import TensorRef
from repro.core.plan import KernelPlan


def tile_loop_interpret(
    plan: KernelPlan, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """The plan's result via one ``numpy.einsum`` per (block, step) tile.

    Iterates thread blocks and serial steps exactly as the generated
    kernel does, contracting each block's staged sub-tiles and
    accumulating into the output slice the block owns (reference
    oracle for :func:`repro.gpu.executor.execute_plan`).
    """
    contraction = plan.contraction
    spec = contraction.einsum_spec()
    c = np.zeros(contraction.extents_of(contraction.c), dtype=a.dtype)
    for block in range(plan.num_blocks):
        block_off = plan.block_offsets(block)
        c_slices = _tile_slices(plan, contraction.c, block_off, {})
        acc = np.zeros(c[c_slices].shape, dtype=a.dtype)
        for step in range(plan.num_steps):
            step_off = plan.step_offsets(step)
            a_sub = a[_tile_slices(plan, contraction.a, block_off, step_off)]
            b_sub = b[_tile_slices(plan, contraction.b, block_off, step_off)]
            acc += np.einsum(spec, a_sub, b_sub)
        c[c_slices] = acc
    return c


def _tile_slices(
    plan: KernelPlan,
    tensor: TensorRef,
    block_off: Dict[str, int],
    step_off: Dict[str, int],
) -> Tuple[slice, ...]:
    """Clipped global slices of ``tensor`` for one block/step tile."""
    slices = []
    for axis in plan.tensor_tile_axes(tensor):
        offset = block_off.get(axis.index)
        if offset is None:
            offset = step_off[axis.index]
        stop = min(offset + axis.tile, axis.extent)
        slices.append(slice(offset, stop))
    return tuple(slices)
