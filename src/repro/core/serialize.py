"""Persisting generated kernels.

COGENT's artifact ships generated ``.cu`` files next to the expressions
they came from; this module makes that a first-class operation: a
:class:`~repro.core.generator.GeneratedKernel` is saved as a directory
containing every emitted source plus a ``meta.json`` capturing the
contraction, the chosen configuration, rewrite specs and model
predictions — enough to rebuild the plan (without re-searching) or to
audit a kernel long after generation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from .codegen.registry import get_target
from .generator import GeneratedKernel
from .ir import Contraction, TensorRef
from .mapping import Dim, IndexMapping, KernelConfig
from .merging import MergeSpec
from .plan import KernelPlan
from .splitting import SplitSpec

FORMAT_VERSION = 1


# -- dict codecs -------------------------------------------------------------


def contraction_to_dict(contraction: Contraction) -> Dict[str, Any]:
    return {
        "c": {"name": contraction.c.name,
              "indices": list(contraction.c.indices)},
        "a": {"name": contraction.a.name,
              "indices": list(contraction.a.indices)},
        "b": {"name": contraction.b.name,
              "indices": list(contraction.b.indices)},
        "sizes": dict(contraction.sizes),
    }


def contraction_from_dict(data: Dict[str, Any]) -> Contraction:
    def ref(entry):
        return TensorRef(entry["name"], tuple(entry["indices"]))

    return Contraction(
        ref(data["c"]), ref(data["a"]), ref(data["b"]),
        dict(data["sizes"]),
    )


def config_to_dict(config: KernelConfig) -> Dict[str, Any]:
    return {
        "mappings": [
            {"index": m.index, "dim": m.dim.value, "tile": m.tile}
            for m in config.mappings
        ]
    }


def config_from_dict(data: Dict[str, Any]) -> KernelConfig:
    by_value = {d.value: d for d in Dim}
    return KernelConfig(
        tuple(
            IndexMapping(m["index"], by_value[m["dim"]], m["tile"])
            for m in data["mappings"]
        )
    )


def _split_to_dict(spec: SplitSpec) -> Dict[str, Any]:
    return {
        "index": spec.index,
        "low_name": spec.low_name,
        "high_name": spec.high_name,
        "factor": spec.factor,
        "original_extent": spec.original_extent,
    }


def _merge_to_dict(spec: MergeSpec) -> Dict[str, Any]:
    return {
        "low_name": spec.low_name,
        "high_name": spec.high_name,
        "merged_name": spec.merged_name,
        "low_extent": spec.low_extent,
        "high_extent": spec.high_extent,
    }


def kernel_to_meta(kernel: GeneratedKernel) -> Dict[str, Any]:
    """The JSON-serialisable description of a generated kernel."""
    best = kernel.candidates[0]
    meta: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kernel_name": kernel.kernel_name,
        "dtype_bytes": kernel.plan.dtype_bytes,
        "contraction": contraction_to_dict(kernel.contraction),
        "config": config_to_dict(kernel.config),
        "selection_mode": kernel.selection_mode,
        "model_cost_transactions": best.cost,
        "generation_time_s": kernel.generation_time_s,
        "split_specs": [_split_to_dict(s) for s in kernel.split_specs],
        "merge_specs": [_merge_to_dict(s) for s in kernel.merge_specs],
    }
    if kernel.original_contraction is not None:
        meta["original_contraction"] = contraction_to_dict(
            kernel.original_contraction
        )
    if best.simulated is not None:
        meta["predicted"] = {
            "gflops": best.simulated.gflops,
            "time_s": best.simulated.time_s,
            "limiter": best.simulated.limiter,
            "occupancy": best.simulated.occupancy,
        }
    return meta


# -- filesystem layout -------------------------------------------------------


def save_kernel(
    kernel: GeneratedKernel,
    directory: Union[str, Path],
    include_opencl: bool = True,
) -> Path:
    """Write sources + metadata into ``directory`` (created if needed).

    The kernel's own target's source is written too, as
    ``kernel_<target><suffix>``, when it is not one of the sources
    always written (cuda, cemu, opencl).
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    (out / "kernel.cu").write_text(kernel.source("cuda"))
    (out / "driver.cu").write_text(kernel.driver_source("cuda"))
    (out / "kernel_emu.c").write_text(kernel.source("cemu"))
    if include_opencl:
        (out / "kernel.cl").write_text(kernel.source("opencl"))
    if kernel.target not in ("cuda", "cemu", "opencl"):
        suffix = get_target(kernel.target).source_suffix
        (out / f"kernel_{kernel.target}{suffix}").write_text(
            kernel.source()
        )
    (out / "meta.json").write_text(
        json.dumps(kernel_to_meta(kernel), indent=2, sort_keys=True)
        + "\n"
    )
    return out


def load_meta(directory: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a saved kernel's metadata."""
    meta = json.loads((Path(directory) / "meta.json").read_text())
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported kernel format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return meta


def load_plan(directory: Union[str, Path]) -> KernelPlan:
    """Rebuild the kernel plan from a saved directory (no re-search)."""
    meta = load_meta(directory)
    contraction = contraction_from_dict(meta["contraction"])
    config = config_from_dict(meta["config"])
    return KernelPlan(contraction, config, meta["dtype_bytes"])


def verify_saved_kernel(directory: Union[str, Path]) -> bool:
    """Re-emit CUDA from the saved plan and compare with the saved text.

    Guards against drift between a stored kernel and the generator
    version used to rebuild it.
    """
    meta = load_meta(directory)
    plan = load_plan(directory)
    regenerated = get_target("cuda").emit_kernel(plan, meta["kernel_name"])
    saved = (Path(directory) / "kernel.cu").read_text()
    return regenerated == saved
