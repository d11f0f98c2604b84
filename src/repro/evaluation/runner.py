"""Shared experiment runner: one API to time every framework.

Used by the ``benchmarks/`` harness (Figs. 4-8 reproductions), the
examples, and the CLI.  Each framework returns a
:class:`FrameworkResult` with the modelled execution time and GFLOPS of
the contraction on the target (simulated) GPU.

:meth:`SuiteRunner.compare` evaluates a whole grid of
``(benchmark, framework)`` cells.  With ``workers > 1`` the cells fan
out over a :class:`concurrent.futures.ProcessPoolExecutor` (the same
worker pattern as :meth:`repro.core.enumeration.Enumerator.search`)
with a deterministic ordered merge, so parallel results are identical
to serial.  With ``store_dir`` set, finished cells persist in a
:class:`repro.core.program.KernelStore`; re-running the same suite
replays them from disk without re-evaluating any framework.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import (
    Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from .. import obs
from ..baselines.nwchem import NwchemGenerator
from ..baselines.tc import TcAutotuner
from ..core.generator import Cogent
from ..core.ir import Contraction
from ..core.program import KernelStore, eval_cache_key
from ..gpu.arch import GpuArch, get_arch
from ..gpu.simulator import GpuSimulator
from ..tccg.suite import Benchmark
from ..ttgt.pipeline import TtgtPipeline

FRAMEWORKS = (
    "cogent", "cogent_strategy", "nwchem", "talsh", "tc", "tc_untuned",
)


@dataclass
class FrameworkResult:
    """One framework's modelled performance on one contraction.

    Stage timings split the measured wall time of producing the result:
    ``setup_time_s`` covers planning/code generation, ``search_time_s``
    configuration search or autotuning, and ``simulate_time_s`` the
    performance-model evaluation.  ``cached`` marks results replayed
    from a :class:`repro.core.program.KernelStore` rather than computed.
    """

    framework: str
    benchmark: str
    gflops: float
    time_s: float
    setup_time_s: float = 0.0
    search_time_s: float = 0.0
    simulate_time_s: float = 0.0
    cached: bool = False
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FrameworkResult":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


#: Fields a stored evaluation cell must carry to count as a hit.
_CELL_KEYS = tuple(f.name for f in fields(FrameworkResult))


@dataclass
class ComparisonRow:
    """All frameworks' results for one benchmark."""

    benchmark: Benchmark
    results: Dict[str, FrameworkResult] = field(default_factory=dict)

    def gflops(self, framework: str) -> float:
        return self.results[framework].gflops

    def speedup(self, framework: str, over: str) -> float:
        return self.gflops(framework) / self.gflops(over)


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class CompareStats:
    """Counters and timing breakdown of one :meth:`SuiteRunner.compare`.

    Stage times are summed across cells (and, in parallel mode, across
    workers), so they measure work, not latency, and can exceed
    ``total_s``.
    """

    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evaluated: int = 0
    workers: int = 1
    parallel: bool = False
    cache_enabled: bool = False
    total_s: float = 0.0
    setup_s: float = 0.0
    search_s: float = 0.0
    simulate_s: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        cache = (
            f"cache {self.cache_hits} hit / {self.cache_misses} miss"
            if self.cache_enabled
            else "cache off"
        )
        mode = f"workers={self.workers}" if self.parallel else "serial"
        return (
            f"{self.cells} cells in {self.total_s:.2f} s "
            f"({self.evaluated} evaluated, {cache}, {mode}); "
            f"stages: setup {self.setup_s:.2f} s, "
            f"search {self.search_s:.2f} s, "
            f"simulate {self.simulate_s:.2f} s"
        )


class SuiteRunner:
    """Runs TCCG benchmarks through the compared frameworks."""

    def __init__(
        self,
        arch: Union[str, GpuArch] = "V100",
        dtype_bytes: int = 8,
        tc_population: int = 20,
        tc_generations: int = 5,
        tc_seed: int = 0,
        store_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.arch = get_arch(arch) if isinstance(arch, str) else arch
        self.dtype_bytes = dtype_bytes
        self.cogent = Cogent(arch=self.arch, dtype_bytes=dtype_bytes)
        self.nwchem = NwchemGenerator(self.arch, dtype_bytes)
        self.talsh = TtgtPipeline(self.arch, dtype_bytes)
        self.simulator = GpuSimulator(self.arch)
        self.tc = TcAutotuner(
            self.arch,
            dtype_bytes,
            population=tc_population,
            generations=tc_generations,
            seed=tc_seed,
        )
        self.store = KernelStore(store_dir) if store_dir else None
        # Execution-strategy selector, built lazily: only the
        # strategy-aware COGENT row pays for it.
        self._selector = None
        self.last_stats: Optional[CompareStats] = None
        # Picklable constructor arguments, shipped to pool workers so
        # each process rebuilds an identical runner.
        self._init_params: Tuple = (
            self.arch.name, dtype_bytes,
            tc_population, tc_generations, tc_seed,
        )

    # -- per-framework runs -----------------------------------------------

    def run_cogent(
        self, contraction: Contraction, name: str = ""
    ) -> FrameworkResult:
        start = time.perf_counter()
        kernel = self.cogent.generate(contraction)
        setup = time.perf_counter() - start
        sim = kernel.candidates[0].simulated
        sim_s = 0.0
        if sim is None:
            tick = time.perf_counter()
            sim = self.simulator.simulate(kernel.plan)
            sim_s = time.perf_counter() - tick
        stats = kernel.search_stats
        search_s = setup
        if stats is not None:
            sim_s += stats.simulation_s
            search_s = max(0.0, stats.total_s - stats.simulation_s)
        return FrameworkResult(
            framework="cogent",
            benchmark=name,
            gflops=sim.gflops,
            time_s=sim.time_s,
            setup_time_s=setup,
            search_time_s=search_s,
            simulate_time_s=sim_s,
            detail=kernel.config.describe(),
        )

    def run_cogent_strategy(
        self, contraction: Contraction, name: str = ""
    ) -> FrameworkResult:
        """COGENT with execution-strategy selection on simulated time.

        Ranks direct/TTGT/GETT/StridedBatchedGEMM macro-kernels through
        the simulator (each charged its full pack + macro + unpack
        modeled traffic) and reports the winner — the strategy-aware
        COGENT row of the Fig. 6/7 comparison.
        """
        if self._selector is None:
            from ..strategies import StrategySelector

            self._selector = StrategySelector(
                self.arch.name, self.dtype_bytes
            )
        start = time.perf_counter()
        choice = self._selector.choose_simulated(contraction)
        search_s = time.perf_counter() - start
        base = self.run_cogent(contraction, name)
        best_time = choice.times.get(choice.selected)
        direct_time = choice.times.get("direct")
        if best_time is None or direct_time is None:
            # Macro-kernels could not be planned: fall back to the
            # searched direct kernel, keeping the row comparable.
            return replace(
                base,
                framework="cogent_strategy",
                search_time_s=base.search_time_s + search_s,
                detail=f"{choice.selected} (modeled only); {base.detail}",
            )
        # The searched direct kernel anchors the row; a non-direct
        # winner applies its relative simulated macro-kernel speedup,
        # so strategy selection can only improve on plain COGENT and
        # the two rows stay directly comparable in Figs. 6/7.
        speedup = direct_time / best_time
        agreement = (
            "agrees with" if choice.agrees_with_model else "overrides"
        )
        return FrameworkResult(
            framework="cogent_strategy",
            benchmark=name,
            gflops=base.gflops * speedup,
            time_s=base.time_s / speedup,
            setup_time_s=base.setup_time_s,
            search_time_s=base.search_time_s + search_s,
            simulate_time_s=base.simulate_time_s,
            detail=(
                f"strategy={choice.selected} "
                f"({agreement} modeled {choice.modeled.selected}, "
                f"{speedup:.2f}x vs direct)"
            ),
        )

    def run_nwchem(
        self, contraction: Contraction, name: str = ""
    ) -> FrameworkResult:
        start = time.perf_counter()
        plan = self.nwchem.generate(contraction)
        setup = time.perf_counter() - start
        tick = time.perf_counter()
        sim = self.simulator.simulate(plan)
        sim_s = time.perf_counter() - tick
        return FrameworkResult(
            framework="nwchem",
            benchmark=name,
            gflops=sim.gflops,
            time_s=sim.time_s,
            setup_time_s=setup,
            simulate_time_s=sim_s,
            detail=plan.config.describe(),
        )

    def run_talsh(
        self, contraction: Contraction, name: str = ""
    ) -> FrameworkResult:
        start = time.perf_counter()
        plan = self.talsh.plan(contraction)
        setup = time.perf_counter() - start
        return FrameworkResult(
            framework="talsh",
            benchmark=name,
            gflops=plan.gflops,
            time_s=plan.total_time,
            setup_time_s=setup,
            detail=plan.summary(),
        )

    def run_tc(
        self, contraction: Contraction, name: str = ""
    ) -> FrameworkResult:
        start = time.perf_counter()
        result = self.tc.tune(contraction)
        search_s = time.perf_counter() - start
        best_time = (
            contraction.flops / (result.best_gflops * 1e9)
            if result.best_gflops > 0
            else float("inf")
        )
        return FrameworkResult(
            framework="tc",
            benchmark=name,
            gflops=result.best_gflops,
            time_s=best_time,
            setup_time_s=result.modeled_tuning_time_s,
            search_time_s=search_s,
            detail=f"{result.evaluations} evaluations",
        )

    def run_tc_untuned(
        self, contraction: Contraction, name: str = ""
    ) -> FrameworkResult:
        start = time.perf_counter()
        gflops = self.tc.untuned_gflops(contraction)
        sim_s = time.perf_counter() - start
        return FrameworkResult(
            framework="tc_untuned",
            benchmark=name,
            gflops=gflops,
            time_s=contraction.flops / (gflops * 1e9),
            simulate_time_s=sim_s,
            detail="default mapping, no tuning",
        )

    def run(
        self, framework: str, contraction: Contraction, name: str = ""
    ) -> FrameworkResult:
        runner = {
            "cogent": self.run_cogent,
            "cogent_strategy": self.run_cogent_strategy,
            "nwchem": self.run_nwchem,
            "talsh": self.run_talsh,
            "tc": self.run_tc,
            "tc_untuned": self.run_tc_untuned,
        }.get(framework)
        if runner is None:
            raise KeyError(
                f"unknown framework {framework!r}; choose from {FRAMEWORKS}"
            )
        with obs.span(f"eval.{framework}"):
            return runner(contraction, name)

    # -- suite-level comparison -----------------------------------------------

    def _cell_key(self, bench: Benchmark, framework: str) -> str:
        """Store key for one (benchmark, framework) cell."""
        return eval_cache_key(
            bench.expr, bench.sizes, self.arch.name, self.dtype_bytes,
            framework,
            {
                "tc_population": self.tc.population,
                "tc_generations": self.tc.generations,
                "tc_seed": self.tc.seed,
            },
        )

    def compare(
        self,
        benchmarks: Sequence[Benchmark],
        frameworks: Sequence[str] = ("cogent", "nwchem", "talsh"),
        workers: int = 1,
    ) -> List[ComparisonRow]:
        """Evaluate every (benchmark, framework) cell.

        With ``workers > 1`` the cells not satisfied by the store fan
        out over a process pool; results are merged back in
        grid order, so the returned rows are identical to a serial run.
        Only a pool that cannot be created falls back to the serial loop
        (counted as ``evaluation.pool_fallbacks``); an exception raised
        inside a cell propagates.  Counters and stage timings land in
        :attr:`last_stats`.
        """
        with obs.span("compare"):
            return self._compare(benchmarks, frameworks, workers)

    def _compare(
        self,
        benchmarks: Sequence[Benchmark],
        frameworks: Sequence[str],
        workers: int,
    ) -> List[ComparisonRow]:
        start = time.perf_counter()
        cells: List[Tuple[Benchmark, str]] = [
            (bench, framework)
            for bench in benchmarks
            for framework in frameworks
        ]
        stats = CompareStats(
            cells=len(cells),
            workers=max(1, workers),
            cache_enabled=self.store is not None,
        )

        results: Dict[int, FrameworkResult] = {}
        pending: List[int] = []
        for i, (bench, framework) in enumerate(cells):
            if self.store is not None:
                payload = self.store.lookup(
                    self._cell_key(bench, framework), _CELL_KEYS
                )
                if payload is not None:
                    results[i] = replace(
                        FrameworkResult.from_dict(payload), cached=True
                    )
                    continue
            pending.append(i)
        if self.store is not None:
            stats.cache_hits = len(cells) - len(pending)
            stats.cache_misses = len(pending)

        fresh: Dict[int, FrameworkResult] = {}
        if workers > 1 and len(pending) > 1:
            try:
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(max_workers=workers)
            except (OSError, NotImplementedError, ImportError):
                obs.inc("evaluation.pool_fallbacks")
            else:
                with pool:
                    fresh = self._compare_parallel(
                        pool, cells, pending, workers
                    )
                stats.parallel = True
        for i in pending:
            if i not in fresh:
                bench, framework = cells[i]
                fresh[i] = self.run(framework, bench.contraction(), bench.name)
        stats.evaluated = len(fresh)

        for i, result in fresh.items():
            results[i] = result
            if self.store is not None:
                bench, framework = cells[i]
                self.store.put(
                    self._cell_key(bench, framework), result.as_dict()
                )

        rows: List[ComparisonRow] = []
        for bi, bench in enumerate(benchmarks):
            row = ComparisonRow(bench)
            for fi, framework in enumerate(frameworks):
                row.results[framework] = results[bi * len(frameworks) + fi]
            rows.append(row)

        for result in results.values():
            stats.setup_s += result.setup_time_s
            stats.search_s += result.search_time_s
            stats.simulate_s += result.simulate_time_s
        stats.total_s = time.perf_counter() - start
        self.last_stats = stats
        session = obs.session()
        if session is not None:
            session.metrics.absorb_compare_stats(stats)
            for result in results.values():
                session.metrics.absorb_framework_result(result)
        return rows

    def _compare_parallel(
        self,
        pool,
        cells: Sequence[Tuple[Benchmark, str]],
        pending: Sequence[int],
        workers: int,
    ) -> Dict[int, FrameworkResult]:
        """Fan the uncached cells out over ``pool``."""
        trace = obs.enabled()
        payloads = [
            (self._init_params, cells[i][0], cells[i][1], trace)
            for i in pending
        ]
        outcomes = list(pool.map(_compare_cell, payloads))
        session = obs.session()
        fresh: Dict[int, FrameworkResult] = {}
        for i, (result, trace_payload, metrics_payload) in zip(
            pending, outcomes
        ):
            fresh[i] = result
            if session is not None and trace_payload is not None:
                # Latency-normalise: ``workers`` cells ran concurrently,
                # so each worker tree contributes wall / workers.
                session.tracer.absorb(trace_payload, workers=workers)
                session.metrics.merge(
                    obs.MetricsRegistry.from_dict(metrics_payload)
                )
        return fresh


#: Per-process runner reuse for pool workers: building a SuiteRunner is
#: cheap, but reusing one lets a worker amortise any internal caches
#: across the cells it is handed.
_WORKER_RUNNERS: Dict[Tuple, "SuiteRunner"] = {}


def _compare_cell(payload: Tuple) -> Tuple[FrameworkResult, Optional[Dict], Optional[Dict]]:
    """Process-pool entry point: evaluate one (benchmark, framework).

    Returns ``(result, trace, metrics)``; the trace/metrics payloads are
    ``None`` unless the coordinator requested tracing, in which case the
    worker runs its own observability session and ships the exported
    tree back for a deterministic merge.
    """
    params, bench, framework, trace = payload
    runner = _WORKER_RUNNERS.get(params)
    if runner is None:
        arch, dtype_bytes, population, generations, seed = params
        runner = SuiteRunner(
            arch,
            dtype_bytes,
            tc_population=population,
            tc_generations=generations,
            tc_seed=seed,
        )
        _WORKER_RUNNERS[params] = runner
    if not trace:
        return runner.run(framework, bench.contraction(), bench.name), None, None
    with obs.tracing(root_name="worker") as session:
        result = runner.run(framework, bench.contraction(), bench.name)
    exported = session.payload()
    return result, exported["trace"], exported["metrics"]


def speedup_summary(
    rows: Sequence[ComparisonRow], over: str, of: str = "cogent"
) -> Tuple[float, float]:
    """(geomean, max) speedup of ``of`` over ``over`` across rows."""
    ratios = [row.speedup(of, over) for row in rows]
    return geomean(ratios), max(ratios)
