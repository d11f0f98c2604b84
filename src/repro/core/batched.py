"""Batched tensor contractions.

COGENT's contraction class (and the key 2-of-3 structural property it
exploits) excludes *batch* indices — indices that appear in all three
tensors, common in the machine-learning workloads the paper cites
(Shi et al.'s extended batched BLAS).  This extension handles them the
way batched BLAS does: the batch indices must be the slowest (trailing)
dimensions of every tensor, so each batch element is a contiguous slice
and the generated inner kernel is launched once per batch element with
offset base pointers — no code inside the kernel changes.

:class:`BatchedContraction` validates the layout, strips the batch
indices to form the inner contraction, and provides numerical
execution, a performance estimate (per-launch overhead amortised across
the batch), and a batched host-driver emitter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..gpu.simulator import SimulationResult
from .codegen import indexing as ix
from .generator import Cogent, GeneratedKernel
from .ir import Contraction, ContractionError, TensorRef


def detect_batch_indices(
    c_indices: Sequence[str],
    a_indices: Sequence[str],
    b_indices: Sequence[str],
) -> Tuple[str, ...]:
    """Indices occurring in all three tensors, in output order."""
    a_set, b_set = set(a_indices), set(b_indices)
    return tuple(i for i in c_indices if i in a_set and i in b_set)


@dataclass(frozen=True)
class BatchedContraction:
    """A contraction with one or more batch indices."""

    c: TensorRef
    a: TensorRef
    b: TensorRef
    sizes: Mapping[str, int]

    def __post_init__(self) -> None:
        if not self.batch_indices:
            raise ContractionError(
                "no batch index found; use Contraction for plain "
                "contractions"
            )
        batch = set(self.batch_indices)
        for tensor in (self.c, self.a, self.b):
            trailing = tensor.indices[-len(batch):]
            if set(trailing) != batch:
                raise ContractionError(
                    f"batch indices {sorted(batch)} must be the trailing "
                    f"(slowest) dimensions of {tensor.name}, got "
                    f"{tensor.indices}"
                )
        # Building the inner contraction validates everything else.
        self.inner  # noqa: B018

    @cached_property
    def batch_indices(self) -> Tuple[str, ...]:
        return detect_batch_indices(
            self.c.indices, self.a.indices, self.b.indices
        )

    @cached_property
    def inner(self) -> Contraction:
        """The per-batch-element contraction (batch indices stripped)."""
        batch = set(self.batch_indices)

        def strip(tensor: TensorRef) -> TensorRef:
            kept = tuple(i for i in tensor.indices if i not in batch)
            return TensorRef(tensor.name, kept)

        sizes = {
            k: v for k, v in self.sizes.items() if k not in batch
        }
        return Contraction(strip(self.c), strip(self.a), strip(self.b),
                           sizes)

    @property
    def batch_count(self) -> int:
        return math.prod(self.sizes[i] for i in self.batch_indices)

    @property
    def flops(self) -> int:
        return self.inner.flops * self.batch_count

    def extents_of(self, tensor: TensorRef) -> Tuple[int, ...]:
        return tuple(self.sizes[i] for i in tensor.indices)

    def einsum_spec(self) -> str:
        """Whole-problem einsum subscripts (batch indices included) —
        makes the :mod:`repro.gpu.executor` reference path work on
        batched contractions unchanged."""
        from .ir import einsum_subscripts

        return einsum_subscripts(
            self.a.indices, self.b.indices, self.c.indices
        )

    def __str__(self) -> str:
        return (
            f"{self.c} = {self.a} * {self.b} "
            f"[batch over {','.join(self.batch_indices)}]"
        )


def parse_batched(expr: str, sizes) -> BatchedContraction:
    """Parse a compact expression that contains batch indices."""
    from .parser import resolve_sizes

    parts = expr.strip().split("-")
    if len(parts) != 3:
        raise ContractionError(f"compact form needs three fields: {expr!r}")
    c_idx, a_idx, b_idx = (tuple(p) for p in parts)
    indices = tuple(dict.fromkeys(c_idx + a_idx + b_idx))
    bound = resolve_sizes(indices, sizes)
    return BatchedContraction(
        TensorRef("C", c_idx), TensorRef("A", a_idx),
        TensorRef("B", b_idx), bound,
    )


def execute_per_batch_element(
    batched, execute_inner, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Run an inner-contraction executor once per batch element.

    The trailing batch dimensions are sliced off and ``execute_inner``
    runs on each contiguous element, exactly like the generated
    per-element launch loop.  :class:`BatchedKernel` runs its inner
    kernel this way, and so do the non-batched strategies (direct,
    TTGT, GETT) on a :class:`BatchedContraction`.
    """
    out = np.zeros(
        tuple(batched.sizes[i] for i in batched.c.indices), dtype=a.dtype
    )
    ranges = [range(batched.sizes[i]) for i in batched.batch_indices]
    for point in itertools.product(*ranges):
        sel = dict(zip(batched.batch_indices, point))

        def slicer(tensor: TensorRef):
            return tuple(
                sel[i] if i in sel else slice(None)
                for i in tensor.indices
            )

        out[slicer(batched.c)] = execute_inner(
            a[slicer(batched.a)], b[slicer(batched.b)]
        )
    return out


@dataclass
class BatchedKernel:
    """An inner kernel plus the batching wrapper around it."""

    batched: BatchedContraction
    inner_kernel: GeneratedKernel

    # -- numerics ---------------------------------------------------------

    def execute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Run the inner schedule for every batch element."""
        batched = self.batched
        if tuple(a.shape) != tuple(
            batched.sizes[i] for i in batched.a.indices
        ):
            raise ValueError(f"operand A has wrong shape {a.shape}")
        if tuple(b.shape) != tuple(
            batched.sizes[i] for i in batched.b.indices
        ):
            raise ValueError(f"operand B has wrong shape {b.shape}")
        # One tier step for the whole call: the first batched execute
        # interprets every slice instead of building on its second.
        return execute_per_batch_element(
            batched, self.inner_kernel.runner(), a, b
        )

    # -- performance ---------------------------------------------------------

    def predict(self, generator: Cogent) -> SimulationResult:
        """Whole-batch estimate: per-element time with the launch
        overhead amortised (one batched launch, many blocks)."""
        inner_sim = self.inner_kernel.candidates[0].simulated
        if inner_sim is None:
            inner_sim = generator.predict(self.inner_kernel.plan)
        launch = generator.simulator.params.launch_overhead_s
        per_element = max(inner_sim.time_s - launch, 0.0)
        total = per_element * self.batched.batch_count + launch
        from dataclasses import replace

        return replace(
            inner_sim,
            time_s=total,
            gflops=self.batched.flops / total / 1e9,
        )

    # -- emission ---------------------------------------------------------------

    def batched_driver_source(self) -> str:
        """Host-side loop launching the inner kernel per batch element.

        Each batch element is a contiguous slice (batch indices are the
        slowest dims), so the launch only offsets the base pointers.
        """
        batched = self.batched
        inner = self.inner_kernel
        scalar = "double" if inner.plan.dtype_bytes == 8 else "float"
        lines: List[str] = [
            "// Batched launch wrapper generated by COGENT-repro.",
            f"// {batched}",
            f"void launch_batched({scalar}* d_C, const {scalar}* d_A, "
            f"const {scalar}* d_B, "
            + ", ".join(
                f"int {ix.extent_param(i)}"
                for i in dict.fromkeys(
                    batched.c.indices + batched.a.indices
                    + batched.b.indices
                )
            )
            + ")",
            "{",
        ]
        for tensor in (batched.c, batched.a, batched.b):
            inner_extents = [
                f"(long){ix.extent_param(i)}"
                for i in tensor.indices
                if i not in batched.batch_indices
            ]
            expr = " * ".join(inner_extents) if inner_extents else "1"
            lines.append(
                f"    const long slice_{tensor.name} = {expr};"
            )
        batch_terms = [
            f"(long){ix.extent_param(i)}" for i in batched.batch_indices
        ]
        lines += [
            f"    const long batches = {' * '.join(batch_terms)};",
            "    for (long batch = 0; batch < batches; ++batch) {",
            f"        {scalar}* c_ = d_C + batch * slice_"
            f"{batched.c.name};",
            f"        const {scalar}* a_ = d_A + batch * slice_"
            f"{batched.a.name};",
            f"        const {scalar}* b_ = d_B + batch * slice_"
            f"{batched.b.name};",
            f"        // {inner.kernel_name}<<<grid, block>>>(c_, a_, b_,"
            " ...inner extents...);",
            "        (void)c_; (void)a_; (void)b_;",
            "    }",
            "}",
        ]
        return "\n".join(lines) + "\n"


def generate_batched(
    expr_or_batched,
    sizes=None,
    generator: Optional[Cogent] = None,
) -> BatchedKernel:
    """Generate a batched kernel: inner COGENT kernel + batch wrapper."""
    generator = generator or Cogent()
    if isinstance(expr_or_batched, BatchedContraction):
        batched = expr_or_batched
    else:
        batched = parse_batched(expr_or_batched, sizes)
    inner_kernel = generator.generate(batched.inner)
    return BatchedKernel(batched, inner_kernel)
