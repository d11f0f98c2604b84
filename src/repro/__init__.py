"""COGENT reproduction: model-driven GPU code generation for tensor
contractions (CGO 2019).

Public API highlights:

* :mod:`repro.api` — the blessed high-level surface: a frozen
  :class:`repro.api.Options` bundle plus :func:`repro.compile`,
  :func:`repro.rank`, :func:`repro.evaluate`, :func:`repro.tune`.
* :mod:`repro.obs` — observability: hierarchical span tracing and a
  central metrics registry covering every pipeline stage.
* :class:`repro.Cogent` — the code generator: parse a contraction,
  search the pruned configuration space with the DRAM-transaction cost
  model, emit CUDA (and a compilable C emulation).
* :func:`repro.parse` — parse contraction expressions in TCCG compact,
  Einstein, or einsum syntax.
* :data:`repro.PASCAL_P100` / :data:`repro.VOLTA_V100` — the two GPUs the
  paper evaluates on, as simulator parameter sets.
* :mod:`repro.tccg` — the 48-contraction TCCG benchmark suite.
* :mod:`repro.ttgt` — the TTGT (TAL_SH-like) baseline.
* :mod:`repro.baselines` — NWChem-style and Tensor-Comprehensions-style
  baseline generators.
"""

from .core.constraints import ConstraintChecker, ConstraintPolicy
from .core.costmodel import CostModel, TransactionEstimate
from .core.enumeration import Enumerator
from .core.cache import KernelCache, contract
from .core.generator import Cogent, GeneratedKernel
from .core.library import KernelLibrary
from .core.merging import MergeSpec, merge_candidates, normalize
from .core.network import optimal_path, parse_network
from .core.pipeline import CompiledNetwork, NetworkPipeline, contract_network
from .core.program import (
    CompilationSession,
    CompiledProgram,
    KernelStore,
    canonical_form,
    code_version_stamp,
    workload_key,
)
from .core.splitting import SplitSpec, candidate_splits, split_index
from .core.ir import (
    Contraction,
    ContractionError,
    IndexKind,
    TensorRef,
    make_contraction,
)
from .core.mapping import Dim, IndexMapping, KernelConfig, config_from_spec
from .core.parser import parse, parse_compact, parse_einstein, parse_einsum
from .core.plan import KernelPlan
from .gpu.arch import ARCHS, GpuArch, PASCAL_P100, VOLTA_V100, get_arch
from .gpu.executor import execute_plan, reference_contract, verify_plan
from .gpu.simulator import GpuSimulator, ModelParams, SimulationResult
from . import obs
from . import api
from .api import (
    Options,
    compile,
    compile_many,
    evaluate,
    last_trace,
    rank,
    tune,
)

__version__ = "1.0.0"

__all__ = [
    "ARCHS",
    "Options",
    "api",
    "compile",
    "compile_many",
    "evaluate",
    "last_trace",
    "obs",
    "rank",
    "tune",
    "Cogent",
    "CompilationSession",
    "CompiledNetwork",
    "CompiledProgram",
    "ConstraintChecker",
    "ConstraintPolicy",
    "Contraction",
    "ContractionError",
    "CostModel",
    "Dim",
    "Enumerator",
    "GeneratedKernel",
    "GpuArch",
    "GpuSimulator",
    "IndexKind",
    "IndexMapping",
    "KernelCache",
    "KernelConfig",
    "KernelLibrary",
    "KernelPlan",
    "KernelStore",
    "MergeSpec",
    "NetworkPipeline",
    "SplitSpec",
    "ModelParams",
    "PASCAL_P100",
    "SimulationResult",
    "TensorRef",
    "TransactionEstimate",
    "VOLTA_V100",
    "candidate_splits",
    "canonical_form",
    "code_version_stamp",
    "config_from_spec",
    "contract",
    "contract_network",
    "execute_plan",
    "get_arch",
    "make_contraction",
    "merge_candidates",
    "normalize",
    "optimal_path",
    "parse",
    "parse_compact",
    "parse_einstein",
    "parse_einsum",
    "parse_network",
    "reference_contract",
    "split_index",
    "verify_plan",
    "workload_key",
]
