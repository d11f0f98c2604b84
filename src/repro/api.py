"""The blessed high-level API: one options object, four verbs.

The knobs that shape a run — process-pool width, search beam, store
directory, target architecture, precision — live in one frozen
:class:`Options` dataclass, and the common entry points are plain
functions:

* :func:`compile`  — generate the best kernel for one contraction;
* :func:`rank`     — cost-model ranking of the pruned configurations;
* :func:`evaluate` — run benchmark × framework comparison grids;
* :func:`tune`     — the TC-style genetic autotuner baseline.

Typical use::

    from repro import api

    opts = api.Options(workers=4, arch="P100", trace=True)
    kernel = api.compile("abcd-aebf-dfce", 24, options=opts)
    print(api.last_trace()["metrics"]["counters"]["search.searches"])

With ``Options(trace=True)`` each call runs inside its own
observability session (unless one is already active, in which case it
joins it); :func:`last_trace` returns the most recent completed
session's ``repro.obs.v1`` payload.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from . import obs
from .core.generator import Cogent, GeneratedKernel
from .core.ir import Contraction
from .core.mapping import KernelConfig
from .core.parser import SizesArg, parse
from .evaluation.runner import ComparisonRow, SuiteRunner
from .gpu.arch import ARCHS
from .tccg.suite import Benchmark

__all__ = [
    "Options",
    "compile",
    "compile_many",
    "compile_network",
    "evaluate",
    "last_trace",
    "rank",
    "select_strategy",
    "tune",
]

_DTYPE_BYTES = {"double": 8, "single": 4}


@dataclass(frozen=True)
class Options:
    """Run-shaping knobs for the high-level API, in one place.

    Attributes
    ----------
    workers:
        Process-pool width for the configuration search
        (:func:`compile`) and for comparison-grid cells
        (:func:`evaluate`).  1 = serial; parallel results are
        deterministic and identical to serial.
    top_k:
        Search beam: number of top model-ranked candidates kept and
        micro-benchmarked on the simulator.  ``top_k=1`` selects purely
        by the cost model (the paper's primary mode).
    arch:
        Target GPU name (``"P100"`` or ``"V100"``).
    dtype:
        ``"double"`` (paper default) or ``"single"``.
    trace:
        Run each API call inside an observability session; fetch the
        exported payload afterwards with :func:`last_trace`.
    store_dir:
        Directory for the content-addressed persistent
        :class:`~repro.core.program.KernelStore`: the class winners of
        :func:`compile`, :func:`compile_many` and
        :func:`compile_network` (dedup-first workload compilation), and
        the evaluation cells of :func:`evaluate`.  Warm runs against a
        populated store perform zero configuration searches and zero
        re-evaluations.  ``None`` disables persistence (dedup within
        one call still applies).
    strategy:
        Execution-strategy family: ``"direct"`` (default, the paper's
        searched kernel), ``"ttgt"``, ``"gett"``, ``"batched"``, or
        ``"auto"`` to rank all four on the packing-aware DRAM-traffic
        model (see :mod:`repro.strategies` and
        :func:`select_strategy`).  The searched kernel does not depend
        on it, so every strategy shares one stored winner.
    memory_cap:
        Optional cap (in elements) on the largest intermediate a
        network contraction path may create; paths that cannot fit
        raise :class:`~repro.core.ir.ContractionError`.  ``None`` (the
        default) means unbounded.
    target:
        Codegen target for emitted kernels: any name registered in
        :func:`repro.core.codegen.list_targets` (``"cuda"`` is the
        default; ``"opencl"``, ``"cemu"``, ``"clemu"``, ``"openmp"``
        are built in).  Folded into store keys, so a kernel cached for
        one target never satisfies another.
    """

    workers: int = 1
    top_k: int = 64
    arch: str = "V100"
    dtype: str = "double"
    trace: bool = False
    store_dir: Optional[Union[str, Path]] = None
    strategy: str = "direct"
    memory_cap: Optional[int] = None
    target: str = "cuda"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.dtype not in _DTYPE_BYTES:
            raise ValueError(
                f"dtype must be one of {sorted(_DTYPE_BYTES)}, "
                f"got {self.dtype!r}"
            )
        if self.arch not in ARCHS:
            raise ValueError(
                f"arch must be one of {sorted(ARCHS)}, got {self.arch!r}"
            )
        from .core.costmodel import STRATEGY_NAMES

        if self.strategy not in ("auto",) + STRATEGY_NAMES:
            raise ValueError(
                f"strategy must be one of "
                f"{sorted(('auto',) + STRATEGY_NAMES)}, "
                f"got {self.strategy!r}"
            )
        if self.memory_cap is not None and self.memory_cap < 1:
            raise ValueError(
                f"memory_cap must be >= 1 element, got {self.memory_cap}"
            )
        from .core.codegen import list_targets

        if self.target not in list_targets():
            raise ValueError(
                f"target must be one of {list_targets()}, "
                f"got {self.target!r}"
            )

    @property
    def dtype_bytes(self) -> int:
        """8 for double precision, 4 for single."""
        return _DTYPE_BYTES[self.dtype]

    def evolve(self, **changes) -> "Options":
        """A copy with the given fields replaced (Options is frozen)."""
        return replace(self, **changes)


DEFAULT_OPTIONS = Options()

#: Payload of the most recent session opened by ``Options(trace=True)``.
_LAST_TRACE: Optional[Dict] = None


def last_trace() -> Optional[Dict]:
    """The ``repro.obs.v1`` payload of the last traced API call.

    ``None`` until a call with ``Options(trace=True)`` completes.  When
    a call joins an already-active outer session, the outer session
    owns the data and this stays unchanged.
    """
    return _LAST_TRACE


@contextmanager
def _traced(options: Options, command: str) -> Iterator[None]:
    """Open an observability session when options ask for one."""
    global _LAST_TRACE
    if not options.trace or obs.enabled():
        yield
        return
    with obs.tracing(meta={"command": command}) as session:
        yield
    _LAST_TRACE = session.payload()


def _generator(options: Options) -> Cogent:
    return Cogent(
        arch=options.arch,
        dtype_bytes=options.dtype_bytes,
        top_k=options.top_k,
        workers=options.workers,
        strategy=options.strategy,
        target=options.target,
    )


def compile(
    expression: Union[str, Contraction],
    sizes: SizesArg = None,
    options: Options = DEFAULT_OPTIONS,
    kernel_name: str = "tc_kernel",
) -> GeneratedKernel:
    """Generate the best kernel for one contraction.

    ``expression`` may use any syntax accepted by
    :func:`repro.core.parser.parse`, or be an already-built
    :class:`~repro.core.ir.Contraction` (``sizes`` is then ignored).
    With ``options.store_dir`` set, the winning kernel persists in the
    content-addressed :class:`~repro.core.program.KernelStore`, and a
    repeat call — in this or any later process — performs zero
    searches.
    """
    with _traced(options, "compile"):
        return compile_many(
            [expression], sizes, options, kernel_name=kernel_name
        ).kernels[0]


def compile_many(
    expressions: Sequence[Union[str, Contraction]],
    sizes: SizesArg = None,
    options: Options = DEFAULT_OPTIONS,
    kernel_name: str = "tc_kernel",
):
    """Compile a whole workload batch with dedup-first search sharing.

    Partitions the batch into equivalence classes (canonical structure
    + extents + arch + dtype + search knobs), searches one
    representative per class, and fans the winner out to every member —
    bit-identical to compiling each contraction independently.  With
    ``options.store_dir`` set, class winners persist across processes
    and warm runs perform zero searches.

    Returns a :class:`repro.core.program.CompiledProgram` whose
    ``kernels`` align with ``expressions`` and whose ``stats`` report
    classes, dedup hits and store hits.
    """
    from .core.program import CompilationSession

    with _traced(options, "compile_many"):
        session = CompilationSession(
            _generator(options), store=options.store_dir
        )
        return session.compile(
            expressions,
            sizes,
            kernel_name=kernel_name,
            workers=options.workers,
        )


def compile_network(
    expression: Union[str, "NetworkSpec"],
    sizes: SizesArg = None,
    options: Options = DEFAULT_OPTIONS,
):
    """Compile an n-ary contraction network through the staged pipeline.

    Runs parse → path-optimize → schedule → memory-plan → dedup →
    codegen (see :mod:`repro.core.pipeline`): the vectorized DP picks
    the pairwise contraction order (optionally bounded by
    ``options.memory_cap`` elements per intermediate), the
    liveness planner assigns intermediates to a reusable buffer arena,
    isomorphic steps share one search, and ``options.store_dir`` makes
    warm runs search-free.  Returns a
    :class:`repro.core.pipeline.CompiledNetwork` — call ``.execute``
    with the input tensors (``options.workers > 1`` runs independent
    same-level steps concurrently, bit-identical to serial).
    """
    from .core.pipeline import NetworkPipeline

    with _traced(options, "compile_network"):
        pipeline = NetworkPipeline(
            _generator(options),
            store=options.store_dir,
            memory_cap=options.memory_cap,
            workers=options.workers,
        )
        return pipeline.compile(expression, sizes)


def rank(
    expression: Union[str, Contraction],
    sizes: SizesArg = None,
    options: Options = DEFAULT_OPTIONS,
) -> List[Tuple[KernelConfig, int]]:
    """All pruned configurations ranked by the DRAM-transaction model."""
    with _traced(options, "rank"):
        contraction = (
            parse(expression, sizes)
            if isinstance(expression, str) else expression
        )
        return _generator(options).rank_configs(contraction)


def select_strategy(
    expression: Union[str, Contraction],
    sizes: SizesArg = None,
    options: Options = DEFAULT_OPTIONS,
):
    """Rank execution strategies for one contraction.

    Returns a :class:`repro.strategies.StrategyChoice` whose
    ``selected`` is the modeled-traffic winner (deterministic, worker-
    count independent) and whose ``ranking`` lists every considered
    strategy's macro/pack/unpack transaction breakdown.
    ``options.strategy="auto"`` ranks all four families; a fixed
    strategy restricts the ranking to that single family.

    ``expression`` accepts batched contractions too (parse them with
    :func:`repro.core.batched.parse_batched` and pass the object).
    """
    with _traced(options, "select_strategy"):
        return _generator(options).select_strategy(expression, sizes)


def evaluate(
    benchmarks: Sequence[Benchmark],
    frameworks: Sequence[str] = ("cogent", "nwchem", "talsh"),
    options: Options = DEFAULT_OPTIONS,
) -> List[ComparisonRow]:
    """Evaluate a benchmark × framework comparison grid.

    Cells fan out over ``options.workers`` processes and persist in the
    kernel store under ``options.store_dir`` (when set); results are
    identical to a serial, uncached run.
    """
    with _traced(options, "evaluate"):
        runner = SuiteRunner(
            arch=options.arch,
            dtype_bytes=options.dtype_bytes,
            store_dir=options.store_dir,
        )
        return runner.compare(
            benchmarks, frameworks, workers=options.workers
        )


def tune(
    expression: Union[str, Contraction],
    sizes: SizesArg = None,
    options: Options = DEFAULT_OPTIONS,
    population: int = 20,
    generations: int = 5,
    seed: int = 0,
    guided: bool = False,
    budget: int = 8,
    shortlist: int = 64,
):
    """Autotune one contraction.

    By default, runs the TC-style genetic autotuner baseline and
    returns a :class:`repro.baselines.tc.TuneResult` with the tuning
    curve, best configuration and modelled tuning cost.

    With ``guided=True``, runs the model-guided loop instead
    (:class:`repro.autotune.ModelGuidedStrategy`): the configuration
    search ranks a ``shortlist``, the simulator measures at most
    ``budget`` candidates with exact-replay traffic, an online
    correction refits on every measurement and re-ranks the rest, and
    the loop stops once the predicted best stabilises.  Returns a
    :class:`repro.autotune.GuidedTuneResult`.
    """
    from .gpu.arch import get_arch

    with _traced(options, "tune"):
        contraction = (
            parse(expression, sizes)
            if isinstance(expression, str) else expression
        )
        if guided:
            from .autotune import (
                GuidedTuneResult,
                ModelGuidedStrategy,
                ReplayEvaluator,
            )

            evaluator = ReplayEvaluator(
                contraction, get_arch(options.arch), options.dtype_bytes
            )
            strategy = ModelGuidedStrategy(
                budget=budget,
                seed=seed,
                shortlist=shortlist,
            )
            trace = strategy.tune(evaluator)
            return GuidedTuneResult(
                trace=trace, report=strategy.last_report
            )
        from .baselines.tc import TcAutotuner

        tuner = TcAutotuner(
            get_arch(options.arch),
            options.dtype_bytes,
            population=population,
            generations=generations,
            seed=seed,
        )
        return tuner.tune(contraction)
