"""Shared host-side plumbing for the CPU-executable C targets.

The sequential C emulation (``cemu``), the pthread OpenCL harness
(``clemu``) and the OpenMP CPU backend (``openmp``) all emit one
program shape: an exported entry point ``int entry(C, A, B, n_<i>...)``
that runs the kernel and returns a status (0 on success, 2 when an
allocation failed), plus a thin ``main()`` around it that reads extents
from ``argv`` and exchanges raw tensor files, so ``cogent gen`` output
is still a standalone program.

On the Python side all three are executed the same way, in-process:
the source is compiled once as a shared object (memoized by a hash of
source, entry point, compiler and flags), loaded with ``ctypes``, and its entry
point is called on Fortran-ordered (first-index-fastest) numpy buffers.
No files are exchanged and no process is spawned per call.

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
from typing import Callable, Dict, List, Optional, Sequence

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
    lines: List[str] = []
    if width == 1:
        lines.append(
            f"for (long l_ = 0; l_ < {n_elems}; ++l_) {{"
        )
        lines += ix.indent(inner, 1)
        lines += ix.indent(
            [
                f"{buffer}[{smem_idx}] = ({bounds})"
                f" ? g_{tensor.name}[{addr}] : ({scalar})0;",
            ],
            1,
        )
        lines.append("}")
        return lines
    lane_stride = plan.smem_lane_stride(tensor)
    lines.append(
        f"for (long l_ = 0; l_ < {n_elems}; l_ += {width}) {{"
    )
    lines += ix.indent(inner, 1)
    grouped = [f"if ({bounds}) {{"]
    for lane in range(width):
        grouped.append(
            f"    {buffer}[({smem_idx}) + {lane * lane_stride}]"
            f" = g_{tensor.name}[({addr}) + {lane}];"
        )
    grouped.append("} else {")
    for lane in range(width):
        grouped.append(
            f"    {buffer}[({smem_idx}) + {lane * lane_stride}]"
            f" = ({scalar})0;"
        )
    grouped.append("}")
    lines += ix.indent(grouped, 1)
    lines.append("}")
    return lines


def host_main_function(plan: KernelPlan, entry: str) -> List[str]:
    """The standalone ``main()``: argv extents, fread A/B, fwrite C.

    A thin wrapper around the program's exported ``entry`` point, so
    the emitted source also builds as a command-line program.  Usage is
    ``prog n_<i>... A.bin B.bin C.bin`` with every tensor in
    first-index-fastest (column-major) element order; a nonzero status
    from ``entry`` becomes the exit code.
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
        + ", ".join(ix.extent_param(i) for i in indices)
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


# -- in-process build/run harness --------------------------------------------


@dataclass
class NativeLibrary:
    """A built program loaded into this process, and its entry point."""

    entry: Callable[..., int]
    #: Keeps the ``dlopen`` handle alive as long as the entry is used.
    handle: ctypes.CDLL
    #: Serializes calls: the OpenCL harness keeps its work-group state
    #: in statics, and ``ctypes`` releases the GIL during the call.
    lock: threading.Lock = field(default_factory=threading.Lock)


#: Loaded libraries by build key.  Never unloaded: a library cannot be
#: closed safely while a returned entry point may still run.
_LIBRARIES: Dict[str, NativeLibrary] = {}
_BUILD_LOCK = threading.Lock()


def build_executable(
    source: str,
    entry: str,
    cc: str = "cc",
    cflags: Sequence[str] = ("-O2", "-std=c99"),
    fallback_cflags: Optional[Sequence[str]] = None,
) -> NativeLibrary:
    """Compile ``source`` as a shared object and load its ``entry``.

    The library is memoized in-process by a hash of source, entry,
    compiler and flags, so a source is compiled once per process
    (``chost.builds`` counts the compilations, ``chost.build_hits`` the
    reuses).  The ``.so`` is written to a temporary directory that is
    removed right after ``dlopen``.  ``fallback_cflags`` retries the compilation with a
    second flag set when the first fails (e.g. ``-march=native`` on
    compilers that do not support it).
    """
    key = hashlib.sha256(
        "\0".join((source, entry, cc, *cflags)).encode()
    ).hexdigest()
    with _BUILD_LOCK:
        lib = _LIBRARIES.get(key)
        if lib is not None:
            obs.inc("chost.build_hits")
            return lib
        attempts = [tuple(cflags)]
        if fallback_cflags is not None:
            attempts.append(tuple(fallback_cflags))
        stderr = ""
        with tempfile.TemporaryDirectory(prefix="cogent_cc_") as tmp:
            src = Path(tmp) / "kernel.c"
            so = Path(tmp) / "kernel.so"
            src.write_text(source)
            for flags in attempts:
                try:
                    proc = subprocess.run(
                        [cc, *flags, "-shared", "-fPIC",
                         "-o", str(so), str(src)],
                        capture_output=True, text=True,
                    )
                except FileNotFoundError as exc:
                    raise EmulationError(
                        f"C compiler {cc!r} not found"
                    ) from exc
                if proc.returncode == 0:
                    break
                stderr = proc.stderr
            else:
                raise EmulationError(
                    f"compilation failed:\n{stderr}\n"
                    f"--- source ---\n{source}"
                )
            handle = ctypes.CDLL(str(so))
        function = getattr(handle, entry)
        function.restype = ctypes.c_int
        lib = NativeLibrary(function, handle)
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

    The generated code treats the *first* index as fastest, so the
    operands are passed as Fortran-ordered buffers and the output is a
    Fortran-ordered array allocated here.  Operand shapes are checked
    against the plan before the call: the C code trusts its extents.
    """
    contraction = plan.contraction
    scalar = np.float64 if plan.dtype_bytes == 8 else np.float32
    operands = []
    for tensor, array in ((contraction.a, a), (contraction.b, b)):
        want = tuple(contraction.extents_of(tensor))
        if np.shape(array) != want:
            raise OperandShapeError(
                f"operand {tensor.name} has shape {np.shape(array)}, "
                f"the plan expects {want}"
            )
        operands.append(np.asfortranarray(array, dtype=scalar))
    out = np.zeros(
        tuple(contraction.extents_of(contraction.c)),
        dtype=scalar, order="F",
    )
    extents = [contraction.extent(i) for i in contraction.all_indices]
    with lib.lock:
        lib.entry.argtypes = (
            [ctypes.c_void_p] * 3 + [ctypes.c_int] * len(extents)
        )
        status = lib.entry(
            out.ctypes.data, *(x.ctypes.data for x in operands), *extents
        )
    if status != 0:
        raise EmulationError(
            f"generated kernel returned status {status}"
            + (" (allocation failed)" if status == 2 else "")
        )
    return out


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
    )
    return run_executable(lib, plan, a, b)
