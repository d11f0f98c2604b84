"""Multi-version kernel libraries with runtime size dispatch.

Paper Section IV-B: "When the code generator receives a set of
representative problem sizes, it can generate different code versions
targeted at each representative problem size. ... the kernel is
selected at runtime based on the closest representative ... generated
kernels can support arbitrary problem sizes."

:class:`KernelLibrary` builds one tuned kernel per representative size,
selects the nearest representative (log-space distance over index
extents) for an actual problem, and can both execute the selected
schedule numerically and emit a single CUDA translation unit containing
every version plus a host-side dispatcher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from .cache import _rebind_kernel
from .codegen import indexing as ix
from .generator import Cogent, GeneratedKernel
from .ir import Contraction
from .mapping import IndexMapping, KernelConfig
from .parser import SizesArg, parse, resolve_sizes


@dataclass
class LibraryEntry:
    """One generated code version and its representative size."""

    sizes: Dict[str, int]
    kernel: GeneratedKernel

    def distance(self, actual: Mapping[str, int]) -> float:
        """Log-space distance between representative and actual extents."""
        return sum(
            abs(math.log(actual[i] / self.sizes[i]))
            for i in self.sizes
        )


class KernelLibrary:
    """Per-representative-size kernel versions for one contraction."""

    def __init__(
        self,
        expression: Union[str, Contraction],
        representative_sizes: Sequence[SizesArg],
        generator: Optional[Cogent] = None,
    ) -> None:
        self.generator = generator or Cogent()
        if not representative_sizes:
            raise ValueError("at least one representative size is required")
        if isinstance(expression, Contraction):
            base = expression
            self.expression = None
        else:
            base = parse(expression, representative_sizes[0])
            self.expression = expression
        self.indices = base.all_indices
        self.entries: List[LibraryEntry] = []
        for pos, sizes in enumerate(representative_sizes):
            bound = resolve_sizes(self.indices, sizes, strict=True)
            contraction = base.with_sizes(bound)
            kernel = self.generator.generate(
                contraction, kernel_name=f"tc_kernel_v{pos}"
            )
            self.entries.append(LibraryEntry(dict(bound), kernel))
        if not self.entries:
            raise ValueError("at least one representative size is required")
        #: The selected version rebound to actual extents, by extents.
        self._rebound: Dict[tuple, GeneratedKernel] = {}

    def __len__(self) -> int:
        return len(self.entries)

    # -- selection -------------------------------------------------------

    def select(self, actual_sizes: SizesArg) -> LibraryEntry:
        """The entry whose representative size is closest to ``actual``.

        Size dicts naming indices this library's contraction does not
        have raise :class:`~repro.core.ir.ContractionError` (they would
        otherwise be silently ignored and mask typos).
        """
        bound = resolve_sizes(self.indices, actual_sizes, strict=True)
        return min(self.entries, key=lambda e: e.distance(bound))

    def sizes_from_operands(
        self, a: np.ndarray, b: np.ndarray
    ) -> Dict[str, int]:
        """Infer index extents from operand shapes."""
        base = self.entries[0].kernel.original_contraction
        sizes: Dict[str, int] = {}
        for tensor, array in ((base.a, a), (base.b, b)):
            if array.ndim != tensor.ndim:
                raise ValueError(
                    f"operand {tensor.name} has {array.ndim} axes, "
                    f"expected {tensor.ndim}"
                )
            for index, extent in zip(tensor.indices, array.shape):
                if sizes.setdefault(index, extent) != extent:
                    raise ValueError(
                        f"inconsistent extent for index {index!r}: "
                        f"{sizes[index]} vs {extent}"
                    )
        return sizes

    # -- execution -----------------------------------------------------------

    def dispatch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Select the nearest version and run it on ``a``/``b``.

        Generated kernels are correct for arbitrary extents (the
        extents are parameters); the functional path rebinds the
        selected plan to the actual sizes, replaying its merge and split
        rewrites at those sizes and clamping any tile that
        exceeds a (smaller) actual extent — the same effect the kernel's
        bounds predicates have on hardware.  The rebound kernel is
        memoized per extents, so a size's first dispatch is that
        kernel's interpreted first call and every later one runs
        natively (:meth:`~repro.core.generator.GeneratedKernel.execute`).
        """
        sizes = self.sizes_from_operands(a, b)
        key = tuple(sorted(sizes.items()))
        rebound = self._rebound.get(key)
        if rebound is None:
            kernel = self.select(sizes).kernel
            rebound = self._rebound[key] = _rebind_kernel(
                kernel, kernel.original_contraction.with_sizes(sizes)
            )
        return rebound.execute(a, b)

    # -- emission -------------------------------------------------------------

    def cuda_library_source(self) -> str:
        """One CUDA translation unit: every version + a dispatcher."""
        from .codegen.registry import get_target

        emit = get_target("cuda").emit_kernel
        parts: List[str] = [
            "// Generated by COGENT-repro: multi-version kernel library.",
            "// One kernel per representative problem size; "
            "select_version()",
            "// picks the nearest representative for the actual extents.",
            "#include <math.h>",
            "",
        ]
        for entry in self.entries:
            parts.append(emit(
                entry.kernel.plan, entry.kernel.kernel_name
            ))
        parts.append(self._dispatch_source())
        return "\n".join(parts)

    def _dispatch_source(self) -> str:
        indices = self.entries[0].kernel.contraction.all_indices
        params = ", ".join(f"int {ix.extent_param(i)}" for i in indices)
        lines = [
            f"extern \"C\" int select_version({params})",
            "{",
            "    double best = 1e300;",
            "    int pick = 0;",
            "    double d;",
        ]
        for pos, entry in enumerate(self.entries):
            contraction = entry.kernel.contraction
            terms = " + ".join(
                f"fabs(log((double){ix.extent_param(i)} / "
                f"{contraction.extent(i)}.0))"
                for i in indices
            )
            lines += [
                f"    d = {terms};",
                f"    if (d < best) {{ best = d; pick = {pos}; }}",
            ]
        lines += ["    return pick;", "}"]
        return "\n".join(lines) + "\n"


def clamp_config(
    config: KernelConfig, contraction: Contraction
) -> KernelConfig:
    """Clamp tile sizes to the (possibly smaller) actual extents.

    Raises :class:`ValueError` when the config maps an index the
    contraction does not have — a bare ``KeyError`` here (or a silently
    unclamped tile) would obscure which mapping was at fault.
    """
    known = set(contraction.all_indices)
    unknown = sorted(m.index for m in config.mappings if m.index not in known)
    if unknown:
        names = ", ".join(repr(i) for i in unknown)
        raise ValueError(
            f"config maps unknown index name(s) {names}; this "
            f"contraction's indices are "
            f"{', '.join(contraction.all_indices)}"
        )
    mappings = tuple(
        IndexMapping(
            m.index, m.dim, min(m.tile, contraction.extent(m.index))
        )
        for m in config.mappings
    )
    return KernelConfig(mappings)
