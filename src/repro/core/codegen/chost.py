"""Shared host-side plumbing for the CPU-executable C targets.

The sequential C emulation (``cemu``), the pthread OpenCL harness
(``clemu``) and the OpenMP CPU backend (``openmp``) all emit one
program shape: an exported entry point ``int entry(C, A, B, n_<i>...)``
that runs the kernel and returns a status (0 on success, 2 when an
allocation failed), plus a thin ``main()`` around it that reads extents
from ``argv`` and exchanges raw tensor files, so ``cogent gen`` output
is still a standalone program.

On the Python side all three are executed the same way, in-process:
the source is compiled once as a shared object (memoized by
:func:`build_key`, a hash of source, entry point, compiler and flags),
loaded with ``ctypes``, and its entry point is called on numpy
buffers.  No files are exchanged and no process is spawned per call.

The emulations bake their tiles in and address every tensor
first-index-fastest, so they build once per config and run on
Fortran-ordered copies of the operands.  The OpenMP program is
*strided*: after the extents it takes the plan's TB_K tile sizes and
one byte stride per index of C, then of A, then of B, and it spells
its indices canonically.  Its text, and with it the build, is keyed by
the kernel's structure, not by its config, so every kernel of one
structure shares one build; and it reads the operands where they lie
(C- or Fortran-ordered arrays and views alike) and writes a C-ordered
output.

:meth:`~repro.core.generator.GeneratedKernel.execute` runs kernels
through this harness: a kernel's first execute runs the numpy
interpreter (one ``numpy.einsum`` per serial ``k`` step, so it costs
about as many einsum calls as the plan has steps), every later one the
library built here.

This module holds that shell once — the ``main()`` emitter, the staged
tile-load loop emitter, and the build/run harness — so the executable
targets cannot drift apart in their conventions and a new CPU backend
is just a kernel-function emitter.
"""

from __future__ import annotations

import ctypes
import hashlib
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from ... import obs
from ..plan import KernelPlan
from . import indexing as ix


class EmulationError(RuntimeError):
    """Raised when compiling or running an emitted C program fails."""


class OperandShapeError(ValueError):
    """Raised when an operand's shape differs from the plan's extents."""


# -- shared source fragments -------------------------------------------------


def scalar_type(dtype_bytes: int) -> str:
    """The C scalar type for an element width (8 -> double, 4 -> float)."""
    return "double" if dtype_bytes == 8 else "float"


def serial_stage_loops(
    plan: KernelPlan, tensor, buffer: str, scalar: str
) -> List[str]:
    """A serial loop staging one input tile into ``buffer``.

    The same index arithmetic as the CUDA backend's staged loads
    (:class:`~repro.core.codegen.indexing.TileLoadFragment`), executed by
    one CPU thread; when the plan stages with a vector width > 1 the
    group/lane addressing is mirrored with scalar lanes so the compiled
    emulation exercises the exact layout the GPU kernel uses.
    """
    frag = ix.TileLoadFragment(plan, tensor)
    inner, addr, bounds, smem_idx = frag.body("l_")
    n_elems = plan.tile_elements(tensor)
    width = plan.staging_vector_width(tensor)
    lines = [f"for (long l_ = 0; l_ < {n_elems}; l_ += {width}) {{"
             if width > 1 else
             f"for (long l_ = 0; l_ < {n_elems}; ++l_) {{"]
    lines += ix.indent(inner, 1)
    lines += ix.indent(
        stage_group(plan, tensor, buffer, scalar, addr, bounds, smem_idx), 1
    )
    lines.append("}")
    return lines


def stage_group(
    plan: KernelPlan, tensor, buffer: str, scalar: str,
    addr: str, bounds: str, smem_idx: str,
) -> List[str]:
    """Stage one element, or one vector group of scalar lanes.

    ``addr``/``bounds``/``smem_idx`` address the group's first element;
    out-of-range elements stage as zero.
    """
    width = plan.staging_vector_width(tensor)
    if width == 1:
        return [
            f"{buffer}[{smem_idx}] = ({bounds})"
            f" ? g_{tensor.name}[{addr}] : ({scalar})0;",
        ]
    lane_stride = plan.smem_lane_stride(tensor)
    offsets = [lane * lane_stride for lane in range(width)]
    lines = [f"if ({bounds}) {{"]
    for lane in range(width):
        lines.append(
            f"    {buffer}[({smem_idx}) + {offsets[lane]}]"
            f" = g_{tensor.name}[({addr}) + {lane}];"
        )
    lines.append("} else {")
    for lane in range(width):
        lines.append(
            f"    {buffer}[({smem_idx}) + {offsets[lane]}]"
            f" = ({scalar})0;"
        )
    lines.append("}")
    return lines


def host_main_function(
    plan: KernelPlan, entry: str, strided: bool = False
) -> List[str]:
    """The standalone ``main()``: argv extents, fread A/B, fwrite C.

    A thin wrapper around the program's exported ``entry`` point, so
    the emitted source also builds as a command-line program.  Usage is
    ``prog n_<i>... A.bin B.bin C.bin`` with every tensor in
    first-index-fastest (column-major) element order; a nonzero status
    from ``entry`` becomes the exit code.  A ``strided`` entry takes
    the plan's TB_K tile sizes after the extents, passed here as
    constants, and then the byte strides of these column-major buffers.
    """
    scalar = scalar_type(plan.dtype_bytes)
    contraction = plan.contraction
    indices = contraction.all_indices
    c, a, b = contraction.c, contraction.a, contraction.b

    def count_expr(tensor) -> str:
        return " * ".join(
            f"(long){ix.extent_param(i)}" for i in tensor.indices
        )

    lines = [
        "int main(int argc, char** argv)",
        "{",
        f"    if (argc != {len(indices) + 4}) {{",
        '        fprintf(stderr, "usage: %s '
        + " ".join(f"n_{i}" for i in indices)
        + ' A.bin B.bin C.bin\\n", argv[0]);',
        "        return 1;",
        "    }",
    ]
    for pos, index in enumerate(indices, start=1):
        lines.append(
            f"    const int {ix.extent_param(index)} = atoi(argv[{pos}]);"
        )
    base = len(indices)
    lines += [
        f"    const long elems_a = {count_expr(a)};",
        f"    const long elems_b = {count_expr(b)};",
        f"    const long elems_c = {count_expr(c)};",
        f"    {scalar}* A_ = ({scalar}*)malloc(sizeof({scalar}) * elems_a);",
        f"    {scalar}* B_ = ({scalar}*)malloc(sizeof({scalar}) * elems_b);",
        f"    {scalar}* C_ = ({scalar}*)calloc(elems_c, sizeof({scalar}));",
        "    if (!A_ || !B_ || !C_) return 2;",
        f'    FILE* fa = fopen(argv[{base + 1}], "rb");',
        f'    FILE* fb = fopen(argv[{base + 2}], "rb");',
        "    if (!fa || !fb) return 3;",
        f"    if (fread(A_, sizeof({scalar}), elems_a, fa)"
        " != (size_t)elems_a) return 4;",
        f"    if (fread(B_, sizeof({scalar}), elems_b, fb)"
        " != (size_t)elems_b) return 4;",
        "    fclose(fa); fclose(fb);",
        f"    const int status_ = {entry}(C_, A_, B_, "
        + ", ".join(
            [ix.extent_param(i) for i in indices]
            + (_strided_main_args(plan, scalar) if strided else [])
        )
        + ");",
        "    if (status_ != 0) return status_;",
        f'    FILE* fc = fopen(argv[{base + 3}], "wb");',
        "    if (!fc) return 5;",
        f"    if (fwrite(C_, sizeof({scalar}), elems_c, fc)"
        " != (size_t)elems_c) return 6;",
        "    fclose(fc);",
        "    free(A_); free(B_); free(C_);",
        "    return 0;",
        "}",
    ]
    return lines


def _strided_main_args(plan: KernelPlan, scalar: str) -> List[str]:
    """A strided entry's arguments after the extents, as ``main()``
    passes them: the TB_K tiles, then the byte strides of C, A and B
    stored first-index-fastest."""
    contraction = plan.contraction
    args = [str(axis.tile) for axis in plan.step_axes]
    for tensor in (contraction.c, contraction.a, contraction.b):
        for pos in range(len(tensor.indices)):
            args.append(" * ".join(
                [f"(long)sizeof({scalar})"]
                + [ix.extent_param(i) for i in tensor.indices[:pos]]
            ))
    return args


# -- in-process build/run harness --------------------------------------------


@dataclass
class NativeLibrary:
    """A built program loaded into this process, and its entry point."""

    entry: Callable[..., int]
    #: Keeps the ``dlopen`` handle alive as long as the entry is used.
    handle: ctypes.CDLL
    #: Whether the entry takes the plan's TB_K tiles and the tensors'
    #: byte strides after the extents (the OpenMP program's ABI).
    strided: bool = False
    #: Serializes calls: the OpenCL harness keeps its work-group state
    #: in statics, and ``ctypes`` releases the GIL during the call.
    lock: threading.Lock = field(default_factory=threading.Lock)


#: Loaded libraries by build key.  Never unloaded: a library cannot be
#: closed safely while a returned entry point may still run.
_LIBRARIES: Dict[str, NativeLibrary] = {}
#: Build failures by build key, and compilers found missing: a failed
#: build is not retried in the same process.
_FAILURES: Dict[str, str] = {}
_MISSING_CC: Set[str] = set()
_BUILD_LOCK = threading.Lock()


def build_key(
    source: str, entry: str, cc: str, cflags: Sequence[str]
) -> str:
    """The in-process identity of a build: a hash of its inputs."""
    return hashlib.sha256(
        "\0".join((source, entry, cc, *cflags)).encode()
    ).hexdigest()


def build_executable(
    source: str,
    entry: str,
    cc: str = "cc",
    cflags: Sequence[str] = ("-O2", "-std=c99"),
    fallback_cflags: Optional[Sequence[str]] = None,
    *,
    n_extents: int,
    n_tiles: int = 0,
    n_strides: int = 0,
) -> NativeLibrary:
    """Compile ``source`` as a shared object and load its ``entry``.

    ``entry`` takes the output and the two operand pointers, then
    ``n_extents`` ``int`` extents and, if the entry is strided (has
    ``n_strides``), ``n_tiles`` ``int`` TB_K tile sizes and
    ``n_strides`` ``long`` byte strides; its ``argtypes`` are declared
    here, once per library.
    The library is memoized in-process by :func:`build_key`, so a
    source is compiled once per process (``chost.builds`` counts the
    compilations, ``chost.build_hits`` the reuses); the compiler runs
    of a build miss are traced as the
    ``codegen.compile`` span and the ``dlopen`` as ``codegen.load``.
    The ``.so`` is written to a temporary directory that is removed
    right after ``dlopen``.  ``fallback_cflags`` retries the compilation
    with a second flag set when the first fails (e.g. ``-march=native``
    on compilers that do not support it).  A failed build, or a missing
    compiler, raises :class:`EmulationError` again on every later call
    in the process without running the compiler.
    """
    key = build_key(source, entry, cc, cflags)
    with _BUILD_LOCK:
        lib = _LIBRARIES.get(key)
        if lib is not None:
            obs.inc("chost.build_hits")
            return lib
        if cc in _MISSING_CC:
            raise EmulationError(f"C compiler {cc!r} not found")
        if key in _FAILURES:
            raise EmulationError(_FAILURES[key])
        attempts = [tuple(cflags)]
        if fallback_cflags is not None:
            attempts.append(tuple(fallback_cflags))
        stderr = ""
        with tempfile.TemporaryDirectory(prefix="cogent_cc_") as tmp:
            src = Path(tmp) / "kernel.c"
            so = Path(tmp) / "kernel.so"
            src.write_text(source)
            with obs.span("codegen.compile"):
                for flags in attempts:
                    try:
                        proc = subprocess.run(
                            [cc, *flags, "-shared", "-fPIC",
                             "-o", str(so), str(src)],
                            capture_output=True, text=True,
                        )
                    except FileNotFoundError as exc:
                        _MISSING_CC.add(cc)
                        raise EmulationError(
                            f"C compiler {cc!r} not found"
                        ) from exc
                    if proc.returncode == 0:
                        break
                    stderr = proc.stderr
                else:
                    _FAILURES[key] = (
                        f"compilation failed:\n{stderr}\n"
                        f"--- source ---\n{source}"
                    )
                    raise EmulationError(_FAILURES[key])
            with obs.span("codegen.load"):
                handle = ctypes.CDLL(str(so))
        function = getattr(handle, entry)
        function.restype = ctypes.c_int
        function.argtypes = (
            [ctypes.c_void_p] * 3
            + [ctypes.c_int] * (n_extents + n_tiles)
            + [ctypes.c_long] * n_strides
        )
        lib = NativeLibrary(function, handle, n_strides > 0)
        _LIBRARIES[key] = lib
        obs.inc("chost.builds")
        return lib


def run_executable(
    lib: NativeLibrary,
    plan: KernelPlan,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Call a built program's entry point on ``a``/``b``; return C.

    A strided program gets numpy's byte strides with the arrays
    themselves, so an operand of the plan's dtype that is aligned runs
    where it lies, whatever its layout (C- or Fortran-ordered,
    transposed, sliced with any step, broadcast); any other operand is
    copied once, C-ordered (counted as ``chost.operand_copies``).  Its
    output is C-ordered.  The emulations address every tensor
    first-index-fastest, so they get Fortran-ordered operands and
    return a Fortran-ordered output.  The output is allocated here
    and not cleared: every program stores each of its elements.
    Operand shapes are checked against the plan before the call: the C
    code trusts its extents.  The entry call itself is traced as the
    ``codegen.run`` span.
    """
    contraction = plan.contraction
    scalar = np.float64 if plan.dtype_bytes == 8 else np.float32
    shape_a, shape_b, shape_c = plan.tensor_shapes
    for tensor, array, want in (
        (contraction.a, a, shape_a), (contraction.b, b, shape_b)
    ):
        if np.shape(array) != want:
            raise OperandShapeError(
                f"operand {tensor.name} has shape {np.shape(array)}, "
                f"the plan expects {want}"
            )
    if lib.strided:
        a, b = _in_place(a, scalar), _in_place(b, scalar)
        out = np.empty(shape_c, dtype=scalar)
        args = (*plan.runtime_tiled_args,
                *out.strides, *a.strides, *b.strides)
    else:
        a = np.asfortranarray(a, dtype=scalar)
        b = np.asfortranarray(b, dtype=scalar)
        out = np.empty(shape_c, dtype=scalar, order="F")
        args = plan.extent_args
    with lib.lock:
        with obs.span("codegen.run"):
            status = lib.entry(
                out.ctypes.data, a.ctypes.data, b.ctypes.data, *args
            )
    if status != 0:
        raise EmulationError(
            f"generated kernel returned status {status}"
            + (" (allocation failed)" if status == 2 else "")
        )
    return out


def _in_place(array, scalar) -> np.ndarray:
    """``array`` itself where a strided program can read it, else one
    C-ordered copy (counted)."""
    if (
        isinstance(array, np.ndarray) and array.dtype == scalar
        and array.flags.aligned
    ):
        return array
    obs.inc("chost.operand_copies")
    return np.ascontiguousarray(array, dtype=scalar)


def compile_and_run_source(
    plan: KernelPlan,
    source: str,
    entry: str,
    a: np.ndarray,
    b: np.ndarray,
    cc: str = "cc",
    cflags: Sequence[str] = ("-O2", "-std=c99"),
    fallback_cflags: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Build (or reuse) ``source`` and run its ``entry`` on ``a``/``b``."""
    lib = build_executable(
        source, entry, cc=cc, cflags=cflags, fallback_cflags=fallback_cflags,
        n_extents=len(plan.contraction.all_indices),
    )
    return run_executable(lib, plan, a, b)
