"""Functional execution of kernel plans (numerical correctness oracle).

:func:`execute_plan` interprets a :class:`~repro.core.plan.KernelPlan`
the way the generated kernel sums: serial steps over contraction-index
tiles in the plan's step order, each step one ``numpy.einsum`` over
the step's ``k`` tile.  Thread blocks need no loop of their own: each
block owns a disjoint output tile and walks the same steps, so the
step loop alone fixes every output element's summation order, and one
einsum per step computes every block's tile of that step at once.
Comparing the result against a whole-problem ``einsum``
(:func:`reference_contract`) validates that the step decomposition
covers the contraction space exactly once; block coverage of the
output is a property of the plan, tested on its own.

Thread-level addressing (who loads/stores which element) is validated
separately by :mod:`repro.gpu.memory` and by compiling and running the
C-emulation backend.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..core.ir import Contraction, TensorRef
from ..core.plan import KernelPlan


def reference_contract(
    contraction: Contraction, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Whole-problem reference result via ``numpy.einsum``."""
    _check_operand(contraction, contraction.a, a)
    _check_operand(contraction, contraction.b, b)
    return np.einsum(contraction.einsum_spec(), a, b)


def random_operands(
    contraction: Contraction,
    dtype: np.dtype = np.float64,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic random input tensors shaped for ``contraction``."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(
        contraction.extents_of(contraction.a)
    ).astype(dtype)
    b = rng.standard_normal(
        contraction.extents_of(contraction.b)
    ).astype(dtype)
    return a, b


def integer_operands(
    contraction,
    seed: int = 0,
    span: int = 4,
    dtype: np.dtype = np.float64,
) -> Tuple[np.ndarray, np.ndarray]:
    """Integer-valued float operands for bit-exact differential tests.

    Small integers in ``[-span, span]`` keep every product and partial
    sum exactly representable, so any summation order — tiled direct
    kernels, GEMM panels, batched matmul — produces results
    *bit-identical* to ``numpy.einsum``.  Accepts anything with
    ``a``/``b`` tensor refs and ``extents_of`` (plain or batched
    contractions).
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(
        -span, span + 1, size=contraction.extents_of(contraction.a)
    ).astype(dtype)
    b = rng.integers(
        -span, span + 1, size=contraction.extents_of(contraction.b)
    ).astype(dtype)
    return a, b


def execute_plan(
    plan: KernelPlan, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Run the plan's serial steps and return the output tensor.

    Each step slices both inputs along their internal indices to the
    step's clipped ``k`` tile (external indices keep their full
    extent) and adds one ``numpy.einsum`` of the slices into a
    zero-initialised output.  Every output element thus sums the steps
    in the plan's step order, and within a step over the ``k`` tile,
    as the generated kernel's thread blocks do.
    """
    contraction = plan.contraction
    _check_operand(contraction, contraction.a, a)
    _check_operand(contraction, contraction.b, b)
    spec = contraction.einsum_spec()
    c = np.zeros(contraction.extents_of(contraction.c), dtype=a.dtype)
    for step in range(plan.num_steps):
        # Slicing past the end clips the ragged last tile of an index.
        tile = {
            index: slice(offset, offset + plan.tile_of(index))
            for index, offset in plan.step_offsets(step).items()
        }
        a_step = a[_step_slices(contraction.a, tile)]
        b_step = b[_step_slices(contraction.b, tile)]
        c += np.einsum(spec, a_step, b_step)
    return c


def _step_slices(
    tensor: TensorRef, tile: Dict[str, slice]
) -> Tuple[slice, ...]:
    """``tensor``'s slices for one step: full extent on external axes."""
    return tuple(tile.get(index, slice(None)) for index in tensor.indices)


def _check_operand(
    contraction: Contraction, ref: TensorRef, array: np.ndarray
) -> None:
    expected = contraction.extents_of(ref)
    if tuple(array.shape) != expected:
        raise ValueError(
            f"operand {ref.name} has shape {tuple(array.shape)}, "
            f"expected {expected}"
        )


def verify_plan(
    plan: KernelPlan,
    seed: int = 0,
    rtol: float = 1e-10,
    atol: float = 1e-10,
) -> bool:
    """Execute the plan on random inputs and compare against einsum."""
    dtype = np.float64 if plan.dtype_bytes == 8 else np.float32
    if plan.dtype_bytes == 4:
        rtol = max(rtol, 1e-4)
        atol = max(atol, 1e-4)
    a, b = random_operands(plan.contraction, dtype, seed)
    got = execute_plan(plan, a, b)
    want = reference_contract(plan.contraction, a, b)
    return np.allclose(got, want, rtol=rtol, atol=atol)
