"""The in-process kernel memo, the evaluation cache and ``contract``.

Code generation costs ~0.3-1.5 s per contraction (search dominated);
applications like the CCSD(T) driver evaluate the same contraction
shapes repeatedly.  :class:`KernelCache` memoises generated kernels in
memory by (expression structure, size bucket, architecture, dtype), so
nearby extents share one search.  Kernels persist across processes
only through :class:`repro.core.program.KernelStore`; ``cogent save``
(:mod:`repro.core.serialize`) is the explicit package export.
:class:`EvalCache` persists framework evaluation results.

:func:`contract` is the one-call numpy-facing API: parse, generate (or
fetch from the memo), then run the kernel on the given operands through
:meth:`~repro.core.generator.GeneratedKernel.execute`.  That runs the
kernel's OpenMP source in-process under the native tier: a kernel's
first execute runs the numpy tile interpreter
(``execute.interpreter_calls``), every later one runs the built shared
object (``execute.native_calls``), and the interpreter is the counted
fallback (``execute.interpreter_fallbacks``) for operands native code
cannot take or when no compiler is available.  Kernels rebound to
neighbouring extents are memoized per extents and keep their source,
so they share one build.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..gpu.arch import GpuArch
from .generator import Cogent, GeneratedKernel
from .ir import Contraction, ContractionError
from .parser import parse


def size_bucket(extent: int) -> int:
    """Round an extent to its power-of-two bucket.

    Kernels are correct for any extents; only the *choice* of
    configuration depends on size, and nearby sizes share optimal
    configurations.  Bucketing by powers of two keeps the cache small
    without noticeably hurting the picks.
    """
    if extent <= 1:
        return 1
    return 1 << max(0, round(math.log2(extent)))


def cache_key(
    contraction: Contraction, arch: GpuArch, dtype_bytes: int
) -> str:
    """A stable string key for one generation request."""
    structure = "|".join(
        f"{t.name}:{','.join(t.indices)}"
        for t in (contraction.c, contraction.a, contraction.b)
    )
    sizes = ",".join(
        f"{i}={size_bucket(contraction.extent(i))}"
        for i in contraction.all_indices
    )
    raw = f"{structure};{sizes};{arch.name};{dtype_bytes}"
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


class KernelCache:
    """Memoises generated kernels in memory by size bucket."""

    def __init__(self, generator: Optional[Cogent] = None) -> None:
        self.generator = generator or Cogent()
        self._memory: Dict[str, GeneratedKernel] = {}
        #: Kernels rebound to exact extents, by bucket key and extents.
        self._rebound: Dict[Tuple[str, Tuple], GeneratedKernel] = {}
        self.hits = 0
        self.misses = 0

    def _key(self, contraction: Contraction) -> str:
        return cache_key(
            contraction, self.generator.arch, self.generator.dtype_bytes
        )

    def lookup(self, contraction: Contraction) -> Optional[GeneratedKernel]:
        """Cached kernel for ``contraction``, or ``None`` (no generation)."""
        kernel = self._memory.get(self._key(contraction))
        if kernel is not None:
            self.hits += 1
            obs.inc("cache.kernel.hits")
        else:
            self.misses += 1
            obs.inc("cache.kernel.misses")
        return kernel

    def get(self, contraction: Contraction) -> GeneratedKernel:
        """Fetch or generate the kernel for ``contraction``."""
        kernel = self.lookup(contraction)
        if kernel is None:
            kernel = self.generator.generate(contraction)
            self._memory[self._key(contraction)] = kernel
        return kernel

    def bind(self, contraction: Contraction) -> GeneratedKernel:
        """The kernel for ``contraction`` at its exact extents.

        A hit from a neighbouring size in the bucket is rebound to the
        extents once and memoized, so repeated calls at those extents
        reuse one kernel (its source, and the library it binds).  If a
        recorded rewrite no longer applies (e.g. a split factor that
        does not divide the new extent), the kernel is generated afresh
        (counted as ``cache.kernel.rebind_fallbacks``).
        """
        kernel = self.get(contraction)
        sizes = dict(contraction.sizes)
        if dict(kernel.original_contraction.sizes) == sizes:
            return kernel
        key = (self._key(contraction), tuple(sorted(sizes.items())))
        rebound = self._rebound.get(key)
        if rebound is None:
            try:
                rebound = _rebind_kernel(kernel, contraction)
            except ContractionError:
                obs.inc("cache.kernel.rebind_fallbacks")
                rebound = self.generator.generate(contraction)
            self._rebound[key] = rebound
        return rebound

    def __len__(self) -> int:
        return len(self._memory)


#: Bump when the meaning of cached evaluation payloads changes; stale
#: entries from older layouts then miss instead of being misread.
EVAL_CACHE_VERSION = 1


def eval_cache_key(
    expr: str,
    sizes: Mapping[str, int],
    arch_name: str,
    dtype_bytes: int,
    framework: str,
    params: Optional[Mapping[str, object]] = None,
) -> str:
    """A stable string key for one (contraction, framework) evaluation.

    Unlike :func:`cache_key`, extents are NOT bucketed: framework
    results are exact measurements for one problem instance.  The key
    also folds in the package version and :data:`EVAL_CACHE_VERSION`,
    so caches self-invalidate across code changes that could alter the
    modelled numbers.
    """
    from .. import __version__

    sizes_part = ",".join(f"{k}={v}" for k, v in sorted(sizes.items()))
    params_part = ",".join(
        f"{k}={v}" for k, v in sorted((params or {}).items())
    )
    raw = (
        f"eval{EVAL_CACHE_VERSION};{__version__};{expr};{sizes_part};"
        f"{arch_name};{dtype_bytes};{framework};{params_part}"
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


class EvalCache:
    """Persistent on-disk store of framework evaluation results.

    One JSON object per key under ``directory``; payloads are plain
    dicts (the caller decides the schema — :class:`repro.evaluation.
    runner` stores ``FrameworkResult.as_dict()``).  Each write goes to
    its own temp file and is renamed into place, so concurrent writers
    sharing a directory never collide and readers never observe torn
    entries.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _read(self, key: str) -> Optional[Dict]:
        """The stored JSON object for ``key``; ``None`` if absent,
        unreadable, truncated or not an object."""
        try:
            payload = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def lookup(self, key: str) -> Optional[Dict]:
        """The stored payload for ``key``, or ``None`` on a miss."""
        payload = self._read(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict) -> None:
        """Persist ``payload`` (JSON-serialisable) under ``key``."""
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f"{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload, indent=2, sort_keys=True))
            os.replace(tmp, self._path(key))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


#: Process-wide default cache used by :func:`contract`.
_default_caches: Dict[Tuple[str, int], KernelCache] = {}


def _default_cache(arch: str, dtype_bytes: int) -> KernelCache:
    key = (arch, dtype_bytes)
    if key not in _default_caches:
        _default_caches[key] = KernelCache(
            Cogent(arch=arch, dtype_bytes=dtype_bytes)
        )
    return _default_caches[key]


def contract(
    expression: str,
    a: np.ndarray,
    b: np.ndarray,
    arch: str = "V100",
    cache: Optional[KernelCache] = None,
) -> np.ndarray:
    """Contract ``a`` and ``b`` per ``expression`` via a COGENT kernel.

    The expression may use any supported syntax; the operand shapes
    bind the index extents.  The kernel runs through
    :meth:`GeneratedKernel.execute`: the first call of a memoized
    kernel (one per size bucket, and one per extents rebound from it)
    runs the numpy tile interpreter, every later call runs its
    compiled OpenMP code in-process.  So the result may be
    Fortran-ordered, and on non-integer operands the first and later
    calls can differ in the last bits.  Operands that are not
    float32/float64 arrays of the kernel's dtype, or a missing C
    compiler, take the counted interpreter fallback.  On a real GPU
    the same call would launch ``kernel.source("cuda")``.

    >>> import numpy as np
    >>> a = np.random.rand(8, 5); b = np.random.rand(5, 9)
    >>> c = contract("ab-ak-kb", a, b)
    >>> np.allclose(c, a @ b)
    True
    """
    dtype_bytes = 4 if a.dtype == np.float32 else 8
    probe = parse(expression, 2)
    sizes: Dict[str, int] = {}
    for tensor, array in ((probe.a, a), (probe.b, b)):
        if array.ndim != tensor.ndim:
            raise ValueError(
                f"operand {tensor.name} has {array.ndim} axes, expected "
                f"{tensor.ndim} for {expression!r}"
            )
        for index, extent in zip(tensor.indices, array.shape):
            if sizes.setdefault(index, extent) != extent:
                raise ValueError(
                    f"inconsistent extent for index {index!r}"
                )
    contraction = parse(expression, sizes)
    if cache is None:
        cache = _default_cache(arch, dtype_bytes)
    return cache.bind(contraction).execute(a, b)


def _rebind_kernel(
    kernel: GeneratedKernel,
    contraction: Contraction,
    rename: Optional[Dict[str, str]] = None,
    kernel_name: Optional[str] = None,
) -> GeneratedKernel:
    """Rebind a cached kernel to the actual problem extents.

    With ``rename`` (a bijection from the kernel's original index names
    to ``contraction``'s), the kernel is additionally *retargeted* onto
    an isomorphic contraction: merge/split rewrites are replayed on the
    target (extending the map with the freshly derived sub-index
    names), and every configuration is renamed through the completed
    map.  This is how the dedup-first compiler
    (:mod:`repro.core.program`) fans one class winner out to every
    equivalence-class member.
    """
    from dataclasses import replace

    from .generator import CandidateScore
    from .library import clamp_config
    from .mapping import rename_config
    from .merging import merge_pair
    from .plan import KernelPlan
    from .splitting import split_index

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
