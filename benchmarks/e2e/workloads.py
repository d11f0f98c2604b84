"""The three workloads of the end-to-end benchmark, and how they are timed.

``run.py`` imports this module only inside a fresh child process, after
starting the set-up clock: importing :mod:`repro` here is part of the
measured ``setup_s``.

Every workload is a closed loop with one synchronous caller, because
COGENT is a library and not a server.  It times one public call at a
time, checks the output outside the timed region, and moves on.  One
*pass* visits every item of the workload once, in a seeded order: a
``first`` call (the item's first call in a fresh program state) and
``repeats`` more calls.  Only whole passes run, so every item weighs the
same in the percentiles.

``--seed`` draws operand values and the call order of every pass.  Item
shapes are fixed, so that a metric means the same thing under every
seed.

The traced run times each layer from outside: the program's own
``repro.obs`` spans and counters, plus benchmark-side spans around the
executor and around the emit / ``cc`` / run steps of a native call
(:func:`layer_spans`).
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import string
import sys
import tempfile
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

import repro
from repro import Cogent, KernelCache, api, obs
from repro.apps.ccsdt import triples_terms
from repro.core.codegen import chost, get_target, openmp
from repro.core.codegen.chost import EmulationError
from repro.core.parser import parse
from repro.gpu import executor
from repro.tccg import get

#: Operand values are integers in [-SPAN, SPAN]: every product and
#: partial sum of a binary contraction is then exact in float64, so any
#: summation order must match ``numpy.einsum`` byte for byte.
SPAN = 4

#: Seed of the network shapes.  It is fixed so that ``--seed`` changes
#: operand values and call order, never the work a pass does.
NETWORK_SHAPE_SEED = 2019

#: TCCG entries run natively, from the ``mo``, ``ccsd`` and ``ccsd_t``
#: groups.  All of them build and pass at half extents; the entries
#: whose OpenMP build corrupts the heap are left out (README.md lists
#: them).  Every call takes 150-200 ms, mostly in ``cc``, so six entries
#: let a run fit more than ten calls of each.
NATIVE_ENTRIES = (
    "mo_stage3", "ccsd_eq1", "ccsd_mx1", "ccsd_vt2_2", "sd_t_d1_3",
    "sd_t_d2_5",
)


def integers(rng: np.random.Generator, shape: Sequence[int]) -> np.ndarray:
    """Integer-valued float64 operand drawn from ``rng``."""
    return rng.integers(-SPAN, SPAN + 1, size=tuple(shape)).astype(np.float64)


def digest(arrays) -> str:
    """Content hash of an array or a nested list of arrays."""
    h = hashlib.blake2b(digest_size=16)

    def feed(x) -> None:
        if isinstance(x, np.ndarray):
            h.update(repr((x.shape, x.dtype.str)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            for item in x:
                feed(item)

    feed(arrays)
    return h.hexdigest()


def binary_inputs(rng: np.random.Generator, contractions):
    """Seeded operands of binary contractions and the digests of
    their ``numpy.einsum`` results."""
    inputs = [
        (integers(rng, c.extents_of(c.a)), integers(rng, c.extents_of(c.b)))
        for c in contractions
    ]
    references = [
        digest(np.einsum(c.einsum_spec(), a, b))
        for c, (a, b) in zip(contractions, inputs)
    ]
    return inputs, references


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def store_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.glob("*.json"))


def modeled_gflops(kernel) -> float:
    """Modeled V100 GFLOP/s of a kernel's winning configuration."""
    return kernel.candidates[0].simulated.gflops


# -- workloads ----------------------------------------------------------------


class Workload:
    """One set of inputs and the public calls the benchmark times."""

    name = ""
    #: Repeat calls per item and pass, after the first call.
    repeats = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.smoke = smoke
        self.workdir = workdir
        #: One label per item, for failure accounting.
        self.labels: List[str] = []
        #: Everything drawn from the seed: operands per item, or what
        #: they are drawn from.
        self.inputs: List = []

    def build(self) -> None:
        """Build the items and make warm-up calls (timed as set-up)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Draw operands from the seed and compute references."""
        raise NotImplementedError

    def first(self, i: int):
        raise NotImplementedError

    def repeat(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def model_gflops(self) -> List[float]:
        raise NotImplementedError

    def einsum_pass_s(self) -> float:
        """``numpy.einsum(optimize=True)`` time of the executed work of
        one pass, on the same operands (0 when nothing is executed)."""
        return 0.0

    def layer_values(self, rec: "Recorder") -> Dict[str, float]:
        """Per-layer numbers, per pass, that only the workload knows;
        ``rec`` holds the traced calls."""
        return {}


class CcsdtSolver(Workload):
    """``repro.contract`` on the 18 CCSD(T) triples terms at o = v = 5.

    The first call of a term uses a fresh ``KernelCache`` (search, then
    execute); the repeat call hits that cache and only executes.
    """

    name = "ccsdt_solver"

    def build(self) -> None:
        terms = triples_terms()[:2] if self.smoke else triples_terms()
        # A call costs about 40 us per tile, whatever the extent.  At
        # o = v = 5 the chosen kernels have about 200 tiles, against
        # about 400 at 8 and 650 at 6, so a run fits more than twice
        # the calls of each term it fits at 8.
        extent = 4 if self.smoke else 5
        self.labels = [t.name for t in terms]
        self.exprs = [t.expr for t in terms]
        self.contractions = [parse(t.expr, extent) for t in terms]
        self.caches: List[Optional[KernelCache]] = [None] * len(terms)
        c = self.contractions[0]
        repro.contract(
            self.exprs[0],
            np.zeros(c.extents_of(c.a)),
            np.zeros(c.extents_of(c.b)),
            cache=KernelCache(Cogent()),
        )

    def prepare(self) -> None:
        self.inputs, self.references = binary_inputs(
            self.rng, self.contractions
        )

    def first(self, i: int):
        self.caches[i] = cache = KernelCache(Cogent())
        return repro.contract(self.exprs[i], *self.inputs[i], cache=cache)

    def repeat(self, i: int):
        return repro.contract(
            self.exprs[i], *self.inputs[i], cache=self.caches[i]
        )

    def check(self, i: int, out) -> bool:
        return digest(out) == self.references[i]

    def model_gflops(self) -> List[float]:
        kernels = (
            cache.lookup(c) if cache is not None else None
            for cache, c in zip(self.caches, self.contractions)
        )
        return [modeled_gflops(k) for k in kernels if k is not None]

    def einsum_pass_s(self) -> float:
        return (1 + self.repeats) * sum(
            timed(np.einsum, c.einsum_spec(), a, b, optimize=True)
            for c, (a, b) in zip(self.contractions, self.inputs)
        )


class NetworkWarm(Workload):
    """``compile_network`` against a warm store, then ``execute``.

    16 chain networks of 11 matrices with extents in [2, 48].  Set-up
    fills the store, so the first call of a network (compile, then
    execute) does no search; repeat calls only execute.
    """

    name = "network_warm"
    repeats = 4

    def build(self) -> None:
        # The path DP grows as 3^n.  From 12 matrices on, its batch
        # arrays outgrow a core's L2 cache, and the warm compile then
        # slows with the cache traffic of the machine's other tenants:
        # its spread between runs was 0.12 at 12 against 0.07 at 11.
        count, tensors = (2, 5) if self.smoke else (16, 11)
        shapes = np.random.default_rng(NETWORK_SHAPE_SEED)
        letters = string.ascii_letters[: tensors + 1]
        self.networks = []
        for _ in range(count):
            extents = shapes.integers(2, 49, size=tensors + 1)
            expr = ",".join(
                letters[j:j + 2] for j in range(tensors)
            ) + "->" + letters[0] + letters[-1]
            self.networks.append(
                (expr, dict(zip(letters, map(int, extents))))
            )
        self.labels = [f"chain{k}" for k in range(count)]
        store = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        self.options = api.Options(workers=1, store_dir=store)
        self.compiled = [
            api.compile_network(expr, sizes, options=self.options)
            for expr, sizes in self.networks
        ]

    def prepare(self) -> None:
        self.inputs = [
            [integers(self.rng, [sizes[i] for i in subscript])
             for subscript in compiled.spec.inputs]
            for (_, sizes), compiled in zip(self.networks, self.compiled)
        ]
        self.references = [
            np.einsum(expr, *ops, optimize=True)
            for (expr, _), ops in zip(self.networks, self.inputs)
        ]

    def first(self, i: int):
        expr, sizes = self.networks[i]
        self.compiled[i] = compiled = api.compile_network(
            expr, sizes, options=self.options
        )
        return compiled.execute(*self.inputs[i])

    def repeat(self, i: int):
        return self.compiled[i].execute(*self.inputs[i])

    def check(self, i: int, out) -> bool:
        # Sums of products over 11 tensors pass 2^53, so byte equality
        # is not defined; einsum(optimize=True) sums in another order.
        return np.allclose(out, self.references[i], rtol=1e-10)

    def model_gflops(self) -> List[float]:
        return [
            modeled_gflops(kernel)
            for compiled in self.compiled for kernel in compiled.kernels
        ]

    def einsum_pass_s(self) -> float:
        return (1 + self.repeats) * sum(
            timed(np.einsum, expr, *ops, optimize=True)
            for (expr, _), ops in zip(self.networks, self.inputs)
        )

    def layer_values(self, rec: "Recorder") -> Dict[str, float]:
        return {
            "store.bytes": store_bytes(Path(self.options.store_dir)),
            "network.path_flops": sum(
                c.path.total_flops for c in self.compiled
            ),
            "pipeline.planned_peak_bytes": max(
                c.memory_plan.planned_peak_bytes for c in self.compiled
            ),
        }


class NativeOpenmp(Workload):
    """``get_target("openmp").compile_and_run`` on compiled TCCG kernels.

    Every call emits C, runs ``cc``, spawns the program and exchanges
    the tensors through files, so first and repeat calls do the same
    work until compiled programs are cached.
    """

    name = "native_openmp"

    def build(self) -> None:
        names = ("sd_t_d1_3", "sd_t_d2_1") if self.smoke else NATIVE_ENTRIES
        self.labels = list(names)
        program = api.compile_many(
            [get(name).scaled(0.5) for name in names],
            options=api.Options(workers=1),
        )
        self.kernels = program.kernels
        self.target = get_target("openmp")
        c = self.kernels[0].plan.contraction
        self.target.compile_and_run(
            self.kernels[0].plan,
            np.zeros(c.extents_of(c.a)),
            np.zeros(c.extents_of(c.b)),
        )

    def prepare(self) -> None:
        self.inputs, self.references = binary_inputs(
            self.rng, [k.plan.contraction for k in self.kernels]
        )

    def first(self, i: int):
        return self.target.compile_and_run(
            self.kernels[i].plan, *self.inputs[i]
        )

    repeat = first

    def check(self, i: int, out) -> bool:
        return digest(out) == self.references[i]

    def model_gflops(self) -> List[float]:
        return [modeled_gflops(k) for k in self.kernels]

    def layer_values(self, rec: "Recorder") -> Dict[str, float]:
        return {
            "chost.crashes":
                rec.reasons[EmulationError.__name__] / rec.passes,
            "chost.mismatches": rec.reasons["mismatch"] / rec.passes,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (CcsdtSolver, NetworkWarm, NativeOpenmp)
}


# -- measurement --------------------------------------------------------------


def timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


class Recorder:
    """Latency samples and failures of a series of timed calls."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        #: Latencies in seconds by call kind, then by item.
        self.samples: Dict[str, List[List[float]]] = {
            kind: [[] for _ in workload.labels]
            for kind in ("first", "repeat")
        }
        #: Failures by reason: ``"mismatch"`` or an exception class name.
        self.reasons: Counter = Counter()
        #: Failures by item label.
        self.by_item: Counter = Counter()
        self.passes = 0

    def latencies(self, kind: str) -> List[float]:
        return [t for item in self.samples[kind] for t in item]

    def best(self, kind: str) -> float:
        """Geometric mean over items of each item's fastest call.

        The fastest of an item's calls is the one the machine's other
        tenants slowed least; the geometric mean weighs every item
        alike, however long it runs.
        """
        return geomean([min(item) for item in self.samples[kind] if item])

    @property
    def attempted(self) -> int:
        return sum(len(self.latencies(kind)) for kind in self.samples)

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    def call(self, i: int, kind: str) -> None:
        """Time one call; a failed call keeps its latency."""
        wl = self.workload
        fn = wl.first if kind == "first" else wl.repeat
        start = time.perf_counter()
        try:
            with obs.span(f"bench.{kind}"):
                out = fn(i)
        except Exception as exc:  # a failure is counted; the run goes on
            self.samples[kind][i].append(time.perf_counter() - start)
            self._fail(i, kind, type(exc).__name__, exc)
            return
        self.samples[kind][i].append(time.perf_counter() - start)
        if not wl.check(i, out):
            self._fail(i, kind, "mismatch", "output differs from reference")

    def _fail(self, i: int, kind: str, reason: str, detail) -> None:
        label = self.workload.labels[i]
        self.reasons[reason] += 1
        self.by_item[label] += 1
        first_line = str(detail).strip().splitlines()[:1]
        print(f"{self.workload.name}: {label} {kind} call failed: {reason} "
              f"{' '.join(first_line)}", file=sys.stderr)

    def measure(self, seconds: float) -> None:
        """Run whole passes until ``seconds`` have elapsed; at least one."""
        wl = self.workload
        start = time.perf_counter()
        while True:
            for i in wl.rng.permutation(len(wl.labels)).tolist():
                self.call(i, "first")
                for _ in range(wl.repeats):
                    self.call(i, "repeat")
            self.passes += 1
            if time.perf_counter() - start >= seconds:
                break

    def mean_call_s(self) -> float:
        calls = self.latencies("first") + self.latencies("repeat")
        return sum(calls) / len(calls)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(samples: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, 100 cuts)."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(rec: Recorder, wl: Workload, rss_mb: float) -> Dict:
    metrics = {
        "peak_rss_mb": rss_mb,
        "model_gflops_geomean": geomean(wl.model_gflops()),
        "first_best_ms": 1e3 * rec.best("first"),
        "repeat_best_ms": 1e3 * rec.best("repeat"),
    }
    # Not gated: medians jump between clusters of item latencies, and
    # the machine's drift moves means and tails by more than any bound
    # that would still catch a regression.
    info = {"passes": rec.passes, "calls_per_s": 1.0 / rec.mean_call_s()}
    for kind in ("first", "repeat"):
        latencies = rec.latencies(kind)
        info[f"{kind}_n"] = len(latencies)
        info[f"{kind}_p50_ms"] = 1e3 * statistics.median(latencies)
        info[f"{kind}_p95_ms"] = 1e3 * percentile(latencies, 95)
    return {"metrics": metrics, "info": info}


# -- the traced run -----------------------------------------------------------


@contextmanager
def spanned(
    module, attr: str, span: str,
    count: Optional[Callable[..., Dict[str, int]]] = None,
) -> Iterator[None]:
    """Time every call of ``module.attr`` in a ``span``, and add the
    counters ``count(out, *args)`` returns."""
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        with obs.span(span):
            out = original(*args, **kwargs)
        if count is not None:
            for key, value in count(out, *args).items():
                obs.inc(key, value)
        return out

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


@contextmanager
def layer_spans() -> Iterator[None]:
    """Spans around the program's functions the timed calls reach.

    Each wrapped function is looked up in its module on every call:
    ``execute_plan`` by ``GeneratedKernel.execute`` (the ``contract``
    and network paths), ``_emit_program`` by the OpenMP target's
    ``compile_and_run``, and ``build_executable`` / ``run_executable``
    by ``chost.compile_and_run_source``.  So replacing the module
    attributes reaches them without touching the program, and native
    calls take the same path traced and untraced.
    """
    with ExitStack() as stack:
        stack.enter_context(spanned(
            executor, "execute_plan", "executor",
            lambda out, plan, a, b: {
                "executor.tile_calls": plan.num_blocks * plan.num_steps,
                "executor.flops": plan.contraction.flops,
            },
        ))
        stack.enter_context(spanned(
            openmp, "_emit_program", "codegen.emit",
            lambda source, *_: {"codegen.source_bytes": len(source)},
        ))
        stack.enter_context(spanned(chost, "build_executable", "chost.cc"))
        stack.enter_context(spanned(
            chost, "run_executable", "chost.run",
            lambda out, exe, plan, a, b, *_: {
                "chost.io_bytes": a.nbytes + b.nbytes + out.nbytes,
            },
        ))
        yield


def span_totals(tree: Dict) -> Dict[str, List[float]]:
    """``name -> [count, wall_s, self_s]`` summed over the span tree."""
    totals: Dict[str, List[float]] = {}

    def walk(node: Dict) -> None:
        entry = totals.setdefault(node["name"], [0, 0.0, 0.0])
        entry[0] += node["count"]
        entry[1] += node["wall_s"]
        entry[2] += node["self_s"]
        for child in node.get("children", ()):
            walk(child)

    walk(tree)
    return totals


def per_layer(
    payload: Dict,
    wl: Workload,
    plain: Recorder,
    traced: Recorder,
) -> Dict[str, float]:
    """Per-layer numbers of the traced run, per pass of the workload."""
    counters = payload["metrics"]["counters"]
    spans = span_totals(payload["trace"])
    passes = traced.passes

    def counter(name: str) -> float:
        return counters.get(name, 0) / passes

    def calls(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[0] / passes

    def wall(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1] / passes

    def self_time(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2] / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits, misses = counter("store.hits"), counter("store.misses")
    memo_hits = counter("costmodel.memo.hits")
    memo_misses = counter("costmodel.memo.misses")
    einsum_s = wl.einsum_pass_s() if calls("executor") else 0.0
    bench_wall = wall("bench.first") + wall("bench.repeat")
    bench_self = self_time("bench.first") + self_time("bench.repeat")
    values = {
        "parser.calls": calls("parse"),
        "parser.busy_s": wall("parse"),
        "search.count": counter("search.searches"),
        "search.enumerate_s": wall("enumerate"),
        "search.prune_s": wall("prune"),
        "search.rank_s": wall("rank"),
        "search.configs_checked": counter("search.configs_checked"),
        "search.accept_ratio": ratio(
            counter("search.kept"), counter("search.configs_checked")
        ),
        "search.cost_memo_hit_ratio": ratio(
            memo_hits, memo_hits + memo_misses
        ),
        "simulate.count": counter("search.simulated"),
        "simulate.busy_s": wall("simulate"),
        "program.classes": counter("program.classes"),
        "program.dedup_hit_ratio": ratio(
            counter("program.dedup_hits"), counter("program.contractions")
        ),
        "program.self_s": self_time("program"),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": ratio(hits, hits + misses),
        "store.bytes": 0,
        "network.path_s": wall("network.path"),
        "network.path_flops": 0,
        "pipeline.schedule_s": wall("network.schedule"),
        "pipeline.memory_s": wall("network.memory"),
        "pipeline.dedup_s": wall("network.dedup"),
        "pipeline.planned_peak_bytes": 0,
        "executor.calls": calls("executor"),
        "executor.busy_s": wall("executor"),
        "executor.tile_calls": counter("executor.tile_calls"),
        "executor.gflops": ratio(counter("executor.flops") / 1e9,
                                 wall("executor")),
        "baseline.einsum_s": einsum_s,
        "executor.vs_einsum": ratio(wall("executor"), einsum_s),
        "codegen.emit_s": wall("codegen.emit"),
        "codegen.source_bytes": counter("codegen.source_bytes"),
        "chost.cc_s": wall("chost.cc"),
        "chost.run_s": wall("chost.run"),
        "chost.io_bytes": counter("chost.io_bytes"),
        "chost.crashes": 0,
        "chost.mismatches": 0,
        "trace.overhead": traced.mean_call_s() / plain.mean_call_s(),
        "trace.uncovered_share": ratio(bench_self, bench_wall),
    }
    values.update(wl.layer_values(traced))
    return values


# -- child entry point --------------------------------------------------------


def run_child(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    setup_only: bool,
    setup_start: float,
) -> Dict:
    """Set up one workload and, unless ``setup_only``, measure it."""
    workdir = Path(tempfile.gettempdir())
    wl = WORKLOADS[name](seed, smoke, workdir)
    wl.build()
    result: Dict = {
        "workload": name,
        "setup_s": time.perf_counter() - setup_start,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    if setup_only:
        return result
    wl.prepare()
    plain = Recorder(wl)
    if not trace:
        plain.measure(seconds)
        rss = peak_rss_mb()
        result.update(end_to_end(plain, wl, rss))
        recorders = [plain]
    else:
        plain.measure(seconds / 2)
        traced = Recorder(wl)
        with obs.tracing(meta={"benchmark": "e2e", "workload": name}) \
                as session, layer_spans():
            traced.measure(seconds / 2)
        payload = session.payload()
        result["metrics"] = per_layer(payload, wl, plain, traced)
        result["obs"] = payload
        recorders = [plain, traced]
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    by_item: Counter = sum((r.by_item for r in recorders), Counter())
    reasons: Counter = sum((r.reasons for r in recorders), Counter())
    result.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        failures={"by_item": dict(by_item), "by_reason": dict(reasons)},
    )
    return result
