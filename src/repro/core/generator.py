"""COGENT: the model-driven code generator facade.

Pipeline (paper Sections III-IV): parse the contraction, enumerate
mapping/tile-size configurations with hardware and performance pruning
(Algorithm 2), rank the survivors with the DRAM-transaction cost model
(Algorithm 3), optionally micro-benchmark the top-k candidates on the
performance simulator (standing in for running them on the GPU), and
emit CUDA for the winner.

>>> from repro import Cogent
>>> gen = Cogent(arch="V100")
>>> kernel = gen.generate("abcd-aebf-dfce", sizes=24)
>>> print(kernel.source("cuda"))   # doctest: +SKIP
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .. import obs
from ..gpu.arch import GpuArch, get_arch
from ..gpu.simulator import GpuSimulator, SimulationResult
from .codegen.chost import EmulationError, NativeLibrary
from .codegen.registry import get_target, list_targets
from .constraints import ConstraintPolicy
from .costmodel import CostModel, TransactionEstimate
from .enumeration import DEFAULT_REG_SIZES, EnumerationResult, Enumerator
from .ir import Contraction, ContractionError
from .mapping import KernelConfig, canonical_key
from .merging import MergeSpec, merge_operands, normalize, unmerge_output
from .parser import SizesArg, parse
from .plan import KernelPlan
from .splitting import (
    SplitSpec,
    adapt_operands,
    candidate_splits,
    restore_output,
)


@dataclass
class CandidateScore:
    """One pruned configuration with its model cost and (optionally) its
    micro-benchmarked performance."""

    config: KernelConfig
    cost: int
    simulated: Optional[SimulationResult] = None


@dataclass
class GeneratedKernel:
    """Everything COGENT produces for one contraction.

    ``contraction`` is the contraction the kernel was generated for; it
    differs from ``original_contraction`` only when the dimension-
    splitting extension rewrote an index.  Split kernels remain
    bit-compatible with the original tensors in memory (see
    :mod:`repro.core.splitting`).
    """

    contraction: Contraction
    plan: KernelPlan
    candidates: List[CandidateScore]
    enumeration: EnumerationResult
    selection_mode: str
    generation_time_s: float
    kernel_name: str = "tc_kernel"
    original_contraction: Optional[Contraction] = None
    split_specs: Tuple[SplitSpec, ...] = ()
    merge_specs: Tuple[MergeSpec, ...] = ()
    #: The contraction after merging but before splitting (equals
    #: ``original_contraction`` when no merge was applied).
    merged_contraction: Optional[Contraction] = None
    #: Default codegen target for :meth:`source` (the generator's).
    target: str = "cuda"
    #: Emitted sources by target, whether :meth:`execute` has run its
    #: interpreted first call, and the OpenMP library it runs on once
    #: bound.  None of them is copied by ``dataclasses.replace``, so a
    #: kernel rebound to another plan starts over; the library is not
    #: pickled either.
    _sources: Dict[str, str] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _warm: bool = field(default=False, init=False, repr=False,
                        compare=False)
    _native: Optional[NativeLibrary] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_native"] = None
        return state

    @property
    def config(self) -> KernelConfig:
        return self.plan.config

    @property
    def cost(self) -> int:
        return self.candidates[0].cost

    @property
    def search_stats(self):
        """Timing breakdown of the search that picked this kernel
        (``SearchStats``), or ``None`` for a kernel rebuilt from the
        store, which ran no search."""
        return self.enumeration.search_stats

    def source(self, target: Optional[str] = None) -> str:
        """The kernel source for ``target`` (default: the generator's
        target), lazily emitted and cached per target name.

        Any name in :func:`repro.core.codegen.list_targets` works; an
        unknown name raises :class:`ValueError` listing the choices.
        """
        name = target or self.target
        backend = get_target(name)
        if name not in self._sources:
            with obs.span("emit"):
                self._sources[name] = backend.emit_kernel(
                    self.plan, self.kernel_name
                )
            obs.inc("generate.kernels_emitted")
            obs.inc(f"codegen.target.{name}.emitted")
        return self._sources[name]

    def driver_source(self, target: Optional[str] = None) -> str:
        """A standalone host driver for ``target`` (default: the
        generator's target), where the target emits one."""
        name = target or self.target
        return get_target(name).emit_driver(self.plan, self.kernel_name)

    def execute(self, a, b):
        """Run the kernel on original-shape operands and return C.

        Merge/split rewrites are applied to the operands and undone on
        the output.  The kernel's first execute runs the numpy tile
        interpreter (counted as ``execute.interpreter_calls``), one
        ``numpy.einsum`` per serial ``k`` step (about 0.2 ms for a
        CCSD(T) triples term at o = v = 5), so a kernel executed once
        never waits for ``cc``.  Every later one
        runs the kernel's OpenMP program in-process
        (:func:`repro.core.codegen.openmp.build`;
        ``execute.native_calls``), built on the first such call unless a
        kernel of the same structure (any extents, tile sizes or index
        names) already built it in this process.  The native program
        reads the operands at their strides, with no copy, and returns
        a C-ordered result; on non-integer operands it can differ from
        the interpreted first call in the last bits (the two sum the
        ``k`` loop in different orders).  The interpreter is also the
        counted fallback (``execute.interpreter_fallbacks``) when the
        rewritten operands are not arrays of the plan's float dtype and
        shape (so a shape error is the interpreter's), or when the
        compiler is missing or the build failed (remembered for the
        process).
        """
        return self.runner()(a, b)

    def runner(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """A function running this kernel as :meth:`execute` does.

        Making it is the call's step of the tier, so a caller running
        the kernel on many operand pairs for one call (a batched
        kernel's slices) makes one runner and interprets them all on
        the kernel's first call.
        """
        from ..gpu.executor import execute_plan
        from .codegen import chost

        warm, self._warm = self._warm, True

        def run(a, b):
            lib = self._library(a, b, warm)
            if lib is None:
                return execute_plan(self.plan, a, b)
            obs.inc("execute.native_calls")
            return chost.run_executable(lib, self.plan, a, b)

        return lambda a, b: self._rewritten(run, a, b)

    def interpret(self, a, b):
        """:meth:`execute` on the numpy tile interpreter only
        (:func:`repro.gpu.executor.execute_plan`, one ``numpy.einsum``
        per serial ``k`` step): the oracle the native path is tested
        against."""
        from ..gpu.executor import execute_plan

        return self._rewritten(
            lambda a, b: execute_plan(self.plan, a, b), a, b
        )

    def _rewritten(self, run, a, b):
        """``run`` on the rewritten operands; the output restored."""
        if self.merge_specs:
            a, b = merge_operands(
                self.original_contraction, self.merge_specs, a, b
            )
        if self.split_specs:
            base = self.merged_contraction or self.original_contraction \
                or self.contraction
            a, b = adapt_operands(base, self.split_specs, a, b)
        out = run(a, b)
        if self.split_specs:
            out = restore_output(self.contraction, self.split_specs, out)
        if self.merge_specs:
            merged = self.merged_contraction
            out = unmerge_output(merged, self.merge_specs, out)
        return out

    def _library(self, a, b, warm: bool) -> Optional[NativeLibrary]:
        """The library to run ``a``/``b`` on, or ``None`` (counted) for
        the interpreter; ``warm`` is false on the kernel's first call."""
        from .codegen import openmp

        contraction = self.plan.contraction
        scalar = np.float64 if self.plan.dtype_bytes == 8 else np.float32
        if not all(
            isinstance(x, np.ndarray) and x.dtype == scalar
            and x.shape == contraction.extents_of(tensor)
            for tensor, x in ((contraction.a, a), (contraction.b, b))
        ):
            obs.inc("execute.interpreter_fallbacks")
            return None
        if not warm:
            obs.inc("execute.interpreter_calls")
            return None
        if self._native is None:
            try:
                self._native = openmp.build(self.plan)
            except EmulationError:
                obs.inc("execute.interpreter_fallbacks")
                return None
        return self._native

    def summary(self) -> str:
        stats = self.enumeration.stats
        lines = [
            self.plan.summary(),
        ]
        if self.split_specs:
            splits = "; ".join(str(s) for s in self.split_specs)
            lines.append(f"splits      : {splits}")
        lines += [
            f"search      : {stats.raw_combinations} raw, "
            f"{stats.accepted} accepted "
            f"({stats.pruned_fraction * 100:.1f}% pruned), "
            f"selected by {self.selection_mode}",
            f"model cost  : {self.cost} DRAM transactions",
            f"gen time    : {self.generation_time_s * 1e3:.1f} ms",
        ]
        search_stats = self.enumeration.search_stats
        if search_stats is not None:
            lines.append(f"timing      : {search_stats.summary()}")
        if self.candidates[0].simulated is not None:
            lines.append(f"predicted   : {self.candidates[0].simulated}")
        return "\n".join(lines)


class Cogent:
    """Model-driven GPU code generator for arbitrary tensor contractions.

    Both :meth:`generate` and :meth:`rank_configs` run the one
    configuration search, :meth:`Enumerator.search` (Algorithm 2
    pruning, Algorithm 3 ranking): ``generate`` keeps the ``top_k``
    best survivors, ``rank_configs`` the whole ranked head.  Thread-block
    and ``TB_k`` size targets are the paper's, and the simulator runs
    the architecture's default model parameters.

    Parameters
    ----------
    arch:
        Target GPU, by name (``"P100"``/``"V100"``) or as a
        :class:`~repro.gpu.arch.GpuArch`.
    dtype_bytes:
        8 for double precision (paper default), 4 for single.
    top_k:
        Number of top model-ranked candidates to micro-benchmark on the
        performance simulator.  ``top_k=1`` selects purely by the cost
        model (the paper's primary mode).  The streaming search keeps
        exactly ``top_k`` survivors in its bounded heap.
    reg_sizes:
        Register-tile dimension size targets (paper: 2, 4, 6, 8).
    workers:
        Process-pool width for the configuration search: the Cartesian
        product of partial-configuration families is striped across
        ``workers`` shards, each pruning and ranking into a bounded
        top-k heap.  ``workers=1`` (default) searches serially
        in-process; serial and parallel searches pick the identical best
        configuration (cost ties break on a canonical config key).
    """

    def __init__(
        self,
        arch: Union[str, GpuArch] = "V100",
        dtype_bytes: int = 8,
        top_k: int = 64,
        reg_sizes: Sequence[int] = DEFAULT_REG_SIZES,
        policy: Optional[ConstraintPolicy] = None,
        allow_split: bool = True,
        split_factors: Sequence[int] = (4, 8, 16),
        allow_merge: bool = False,
        workers: int = 1,
        strategy: str = "direct",
        target: str = "cuda",
    ) -> None:
        from .costmodel import STRATEGY_NAMES

        if strategy not in ("auto",) + STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose from "
                f"{('auto',) + STRATEGY_NAMES}"
            )
        if target not in list_targets():
            raise ValueError(
                f"unknown codegen target {target!r}; choose from "
                f"{list_targets()}"
            )
        self.arch = get_arch(arch) if isinstance(arch, str) else arch
        self.dtype_bytes = dtype_bytes
        #: Default codegen target for emitted kernels
        #: (:func:`repro.core.codegen.list_targets` has the choices).
        self.target = target
        #: Execution-strategy family ("direct" is the paper's kernel;
        #: "auto" ranks direct/ttgt/gett/batched on the packing-aware
        #: traffic model, see :mod:`repro.strategies`).  Only
        #: :meth:`select_strategy` reads it; the searched kernel does
        #: not depend on it, so it stays out of :meth:`search_signature`.
        self.strategy = strategy
        self.top_k = max(1, top_k)
        self.workers = max(1, int(workers))
        self.reg_sizes = tuple(reg_sizes)
        self.policy = policy
        self.cost_model = CostModel(dtype_bytes, self.arch.transaction_bytes)
        self.simulator = GpuSimulator(self.arch)
        #: Dimension-splitting extension (paper Section IV): consider
        #: rewriting an index into a (fast, slow) pair when one side of
        #: the contraction has too few external indices.
        self.allow_split = allow_split
        self.split_factors = tuple(split_factors)
        #: Index-merging extension (paper Section IV): fuse adjacent
        #: small dimensions before searching.  Off by default to keep
        #: the search space identical to the paper's.
        self.allow_merge = allow_merge

    # -- public API -----------------------------------------------------

    def search_signature(self) -> str:
        """A stable string of every knob that shapes search *results*.

        Folded into dedup-first equivalence-class keys
        (:func:`repro.core.program.workload_key`): two generators with
        equal signatures (and arch/dtype) pick identical kernels for
        identical contractions, so they may share searches and stored
        winners.  ``workers`` is deliberately excluded — parallel
        searches are guaranteed bit-identical to serial ones.
        """
        if self.policy is None:
            policy = "default"
        else:
            policy = ",".join(
                f"{name}={value}"
                for name, value in sorted(vars(self.policy).items())
            )
        return (
            f"top_k={self.top_k};reg={self.reg_sizes};"
            f"split={self.allow_split}:{self.split_factors};"
            f"merge={self.allow_merge};"
            f"policy={policy};target={self.target}"
        )

    def select_strategy(self, contraction: Union[str, Contraction],
                        sizes: SizesArg = None):
        """Rank execution strategies for ``contraction`` and return a
        :class:`repro.strategies.StrategyChoice`.

        With ``strategy="auto"`` all four families compete on the
        packing-aware traffic model; a fixed strategy restricts the
        ranking to that single family (and errors if inapplicable).
        """
        from ..strategies.selector import StrategySelector

        if isinstance(contraction, str):
            from .parser import parse

            try:
                contraction = parse(contraction, sizes)
            except ContractionError:
                # Expressions with indices in all three tensors are
                # explicit batched contractions (e.g. "qkh-qdh-kdh").
                from .batched import parse_batched

                contraction = parse_batched(contraction, sizes)
        if self.strategy == "auto":
            names = None
        else:
            names = (self.strategy,)
        selector = StrategySelector(
            arch=self.arch.name,
            dtype_bytes=self.dtype_bytes,
            **({"strategies": names} if names else {}),
        )
        return selector.choose(contraction)

    def generate(
        self,
        contraction: Union[str, Contraction],
        sizes: SizesArg = None,
        kernel_name: str = "tc_kernel",
    ) -> GeneratedKernel:
        """Generate the best kernel for ``contraction``.

        ``contraction`` may be an expression string in any syntax
        accepted by :func:`repro.core.parser.parse`, or an already-built
        :class:`Contraction` (in which case ``sizes`` is ignored).
        """
        start = time.perf_counter()
        with obs.span("generate"):
            if isinstance(contraction, str):
                contraction = parse(contraction, sizes)
            original = contraction

            merge_specs: Tuple[MergeSpec, ...] = ()
            if self.allow_merge:
                contraction, merges = normalize(contraction)
                merge_specs = tuple(merges)
            merged_contraction = contraction

            variants: List[Tuple[Contraction, Tuple[SplitSpec, ...]]] = [
                (contraction, ())
            ]
            if self.allow_split:
                variants += [
                    (split, (spec,))
                    for split, spec in candidate_splits(
                        contraction, self.split_factors
                    )
                ]

            best: Optional[GeneratedKernel] = None
            for variant, specs in variants:
                enumeration = self._search(variant)
                candidates, mode = self._select(variant, enumeration)
                plan = KernelPlan(
                    variant, candidates[0].config, self.dtype_bytes
                )
                if candidates[0].simulated is None:
                    candidates[0].simulated = self.simulator.simulate(plan)
                kernel = GeneratedKernel(
                    contraction=variant,
                    plan=plan,
                    candidates=candidates,
                    enumeration=enumeration,
                    selection_mode=mode if not specs else mode + "+split",
                    generation_time_s=0.0,
                    kernel_name=kernel_name,
                    original_contraction=original,
                    split_specs=specs,
                    merge_specs=merge_specs,
                    merged_contraction=merged_contraction,
                    target=self.target,
                )
                if (
                    best is None
                    or kernel.candidates[0].simulated.time_s
                    < best.candidates[0].simulated.time_s
                ):
                    best = kernel
            assert best is not None
            best.generation_time_s = time.perf_counter() - start
            obs.inc("generate.contractions")
            obs.observe("generate.time_s", best.generation_time_s)
        return best

    def rank_configs(
        self, contraction: Contraction
    ) -> List[Tuple[KernelConfig, int]]:
        """All pruned configurations ranked by the cost model.

        The same search :meth:`generate` runs, keeping the whole ranked
        head (up to the enumerator's ``max_configs`` cap).  When the
        performance rules reject everything, the hardware-feasible
        rejects are ranked instead, as :meth:`generate` falls back.
        """
        enumerator = self._enumerator(contraction)
        result = enumerator.search(
            keep=enumerator.max_configs, workers=self.workers
        )
        if result.configs:
            return list(zip(result.configs, result.costs))
        return list(zip(result.feasible_rejects, result.reject_costs))

    def estimate(self, plan: KernelPlan) -> TransactionEstimate:
        """Cost-model transaction estimate for an arbitrary plan."""
        return self.cost_model.estimate(plan)

    def predict(self, plan: KernelPlan) -> SimulationResult:
        """Simulated performance of an arbitrary plan on this GPU."""
        return self.simulator.simulate(plan)

    # -- pipeline stages ----------------------------------------------------

    def _enumerator(self, contraction: Contraction) -> Enumerator:
        return Enumerator(
            contraction,
            self.arch,
            self.dtype_bytes,
            reg_sizes=self.reg_sizes,
            policy=self.policy,
        )

    def _search(self, contraction: Contraction) -> EnumerationResult:
        """Streaming prune+rank search, sharded across ``workers``."""
        return self._enumerator(contraction).search(
            keep=self.top_k, workers=self.workers
        )

    def _select(
        self,
        contraction: Contraction,
        enumeration: EnumerationResult,
    ) -> Tuple[List[CandidateScore], str]:
        configs = enumeration.configs
        costs = enumeration.costs
        if not configs:
            # Performance rules rejected everything (tiny problems):
            # fall back to hardware-feasible configurations.
            configs = enumeration.feasible_rejects
            costs = enumeration.reject_costs
        if not configs:
            raise RuntimeError(
                f"no feasible configuration found for {contraction}"
            )
        # Survivors arrive ranked, with their costs attached.
        candidates = [
            CandidateScore(cfg, cost) for cfg, cost in zip(configs, costs)
        ]
        if self.top_k == 1 or len(candidates) == 1:
            return candidates, "cost-model"
        # Micro-benchmark the top-k on the simulator and re-rank them
        # with a bounded streaming merge; ties on simulated time break
        # on (model cost, canonical key) to stay deterministic across
        # worker counts.
        head = candidates[: self.top_k]
        sim_start = time.perf_counter()
        with obs.span("simulate"):
            for cand in head:
                plan = KernelPlan(contraction, cand.config, self.dtype_bytes)
                cand.simulated = self.simulator.simulate(plan)
        sim_s = time.perf_counter() - sim_start
        obs.inc("search.simulated", len(head))
        obs.observe("search.simulation_s", sim_s)
        head = heapq.nsmallest(
            self.top_k, head,
            key=lambda cand: (
                cand.simulated.time_s, cand.cost, canonical_key(cand.config)
            ),
        )
        stats = enumeration.search_stats
        if stats is not None:
            stats.simulation_s += sim_s
            stats.total_s += sim_s
            stats.simulated += len(head)
        return head + candidates[self.top_k:], "model+microbench"

