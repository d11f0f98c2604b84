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
every version plus a host-side dispatcher.  It is the package's one
policy for running a kernel at extents other than those it was tuned
at; :func:`repro.contract` memoizes kernels per exact extents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from .. import obs
from .codegen import indexing as ix
from .generator import CandidateScore, Cogent, GeneratedKernel
from .ir import Contraction, ContractionError
from .mapping import IndexMapping, KernelConfig, rename_config
from .merging import merge_pair
from .parser import SizesArg, parse, resolve_sizes
from .plan import KernelPlan
from .splitting import split_index


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
        #: The kernel run at each actual extents: the selected version
        #: rebound to them, or generated at them (rebind fallback).
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
        return self.entries[0].kernel.original_contraction.operand_sizes(
            a, b
        )

    # -- execution -----------------------------------------------------------

    def dispatch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Select the nearest version and run it on ``a``/``b``.

        This is the one place a kernel tuned at some extents is reused
        at others.  Generated kernels are correct for arbitrary extents
        (the extents are parameters); the functional path rebinds the
        selected plan to the actual sizes, replaying its merge and split
        rewrites at those sizes and clamping any tile that exceeds a
        (smaller) actual extent — the same effect the kernel's bounds
        predicates have on hardware.  When a recorded rewrite no longer
        applies (a split factor that does not divide the actual extent),
        the kernel is generated afresh at the actual extents (counted as
        ``library.rebind_fallbacks``).  Either kernel is memoized per
        extents, so a size's first dispatch is that kernel's interpreted
        first call and every later one runs natively
        (:meth:`~repro.core.generator.GeneratedKernel.execute`).
        """
        sizes = self.sizes_from_operands(a, b)
        key = tuple(sorted(sizes.items()))
        rebound = self._rebound.get(key)
        if rebound is None:
            kernel = self.select(sizes).kernel
            target = kernel.original_contraction.with_sizes(sizes)
            try:
                rebound = _rebind_kernel(kernel, target)
            except ContractionError:
                obs.inc("library.rebind_fallbacks")
                rebound = self.generator.generate(
                    target, kernel_name=kernel.kernel_name
                )
            self._rebound[key] = rebound
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


def _rebind_kernel(
    kernel: GeneratedKernel,
    contraction: Contraction,
    rename: Optional[Dict[str, str]] = None,
    kernel_name: Optional[str] = None,
) -> GeneratedKernel:
    """Rebind a kernel to other problem extents.

    With ``rename`` (a bijection from the kernel's original index names
    to ``contraction``'s), the kernel is additionally *retargeted* onto
    an isomorphic contraction: merge/split rewrites are replayed on the
    target (extending the map with the freshly derived sub-index
    names), and every configuration is renamed through the completed
    map.  This is how the dedup-first compiler
    (:mod:`repro.core.program`) fans one class winner out to every
    equivalence-class member.
    """
    mapping = dict(rename) if rename else None

    def name_of(index: str) -> str:
        return mapping[index] if mapping else index

    current = contraction
    merge_specs = []
    for spec in kernel.merge_specs:
        current, new_spec = merge_pair(
            current, name_of(spec.low_name), name_of(spec.high_name)
        )
        if mapping is not None:
            mapping[spec.merged_name] = new_spec.merged_name
        merge_specs.append(new_spec)
    merged = current
    split_specs = []
    for spec in kernel.split_specs:
        current, new_spec = split_index(
            current, name_of(spec.index), spec.factor
        )
        if mapping is not None:
            mapping[spec.low_name] = new_spec.low_name
            mapping[spec.high_name] = new_spec.high_name
        split_specs.append(new_spec)
    config = kernel.config
    candidates = kernel.candidates
    if mapping is not None:
        config = rename_config(config, mapping)
        candidates = [
            CandidateScore(
                rename_config(c.config, mapping), c.cost, c.simulated
            )
            for c in kernel.candidates
        ]
    config = clamp_config(config, current)
    plan = KernelPlan(current, config, kernel.plan.dtype_bytes)
    return replace(
        kernel,
        contraction=current,
        plan=plan,
        candidates=candidates,
        original_contraction=contraction,
        merged_contraction=merged,
        split_specs=tuple(split_specs),
        merge_specs=tuple(merge_specs),
        kernel_name=kernel_name or kernel.kernel_name,
    )
