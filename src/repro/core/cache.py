"""The in-process kernel memo and ``contract``.

Code generation costs ~0.3-1.5 s per contraction (search dominated);
applications like the CCSD(T) driver evaluate the same contraction
shapes repeatedly.  :class:`KernelCache` memoises generated kernels in
memory by the contraction's tensors and exact extents; reusing a
kernel tuned at other extents is :class:`repro.core.library.
KernelLibrary`'s explicit policy (paper §IV-B).  Kernels persist
across processes only through :class:`repro.core.program.KernelStore`;
``cogent save`` (:mod:`repro.core.serialize`) is the explicit package
export.

:func:`contract` is the one-call numpy-facing API: parse, generate (or
fetch from the memo), then run the kernel on the given operands through
:meth:`~repro.core.generator.GeneratedKernel.execute`.  That runs the
kernel's OpenMP source in-process under the native tier: a kernel's
first execute runs the numpy tile interpreter
(``execute.interpreter_calls``), every later one runs the built shared
object (``execute.native_calls``), and the interpreter is the counted
fallback (``execute.interpreter_fallbacks``) for operands native code
cannot take or when no compiler is available.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .. import obs
from .generator import Cogent, GeneratedKernel
from .ir import Contraction
from .parser import parse


class KernelCache:
    """Memoises generated kernels in memory by exact extents.

    A hit returns the very kernel object of the miss, so the kernel
    keeps its warm state and its bound native library.
    """

    def __init__(self, generator: Optional[Cogent] = None) -> None:
        self.generator = generator or Cogent()
        self._memory: Dict[Tuple, GeneratedKernel] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(contraction: Contraction) -> Tuple:
        return (
            contraction.c,
            contraction.a,
            contraction.b,
            tuple(sorted(contraction.sizes.items())),
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

    def __len__(self) -> int:
        return len(self._memory)


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
    bind the index extents, and the kernel is memoized per extents.
    The kernel runs through :meth:`GeneratedKernel.execute`: a
    memoized kernel's first call runs the numpy tile interpreter, every
    later call runs its compiled OpenMP code in-process, on the operands
    where they lie and into a C-ordered result.  On non-integer
    operands the first and later calls can differ in the last bits.  Operands that are not
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
    contraction = probe.with_sizes(probe.operand_sizes(a, b))
    if cache is None:
        cache = _default_cache(arch, dtype_bytes)
    return cache.get(contraction).execute(a, b)
