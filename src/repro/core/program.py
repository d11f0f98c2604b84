"""Dedup-first workload compilation.

Coupled-cluster residuals, tensor networks and benchmark suites do not
present the generator with a stream of *unique* contractions: they are
dominated by repeated shapes (the same diagram across solver sweeps,
isomorphic pairwise steps of a chain, the same TCCG entry across runs).
Searching the configuration space once per *occurrence* wastes almost
all of that work — the columnar search made one search fast; this
module makes N occurrences cost one search.

The pipeline has two layers:

* :class:`CompilationSession` partitions a batch of contractions into
  **equivalence classes** keyed on the canonical (name-independent)
  contraction structure, the exact index extents, the target
  architecture/dtype, the generator's search knobs and a code-version
  stamp.  One representative per class is searched; the winning kernel
  is *rebound* to every other member by renaming indices through the
  canonical form (see :func:`repro.core.library._rebind_kernel`), which
  is bit-identical to searching the member directly because Algorithm
  2's pruning rules and Algorithm 3's cost model depend only on index
  structure, positions and extents — never on index names.
* :class:`KernelStore` is the one content-addressed persistent store:
  one atomic JSON file per key, holding the per-class winners (and, for
  :class:`repro.evaluation.runner.SuiteRunner`, framework evaluation
  cells).  Kernel payloads are expressed in canonical index names, so
  *any* process whose batch contains an isomorphic contraction hits,
  regardless of how its tensors or indices are spelled.  Warm runs
  perform **zero** searches.

Staleness is handled structurally: every key folds in
:func:`code_version_stamp`, a hash of every source file of the package.
Changing any of them silently invalidates every stored entry — a newer
cost model, pruning rule, simulator or baseline never serves a winner or
an evaluation produced by an older one.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from .. import obs
from ..gpu.arch import GpuArch
from .enumeration import EnumerationResult, EnumerationStats
from .generator import CandidateScore, Cogent, GeneratedKernel
from .ir import Contraction, TensorRef
from .library import _rebind_kernel
from .parser import SizesArg, parse
from .plan import KernelPlan
from .serialize import (
    config_from_dict,
    config_to_dict,
    contraction_from_dict,
    contraction_to_dict,
)
from .splitting import SplitSpec, split_index

#: Bump when the store payload layout changes; old entries then miss
#: instead of being misread (the code-version stamp usually catches
#: this first, but the version guards deliberate layout changes).
STORE_VERSION = 1

#: Keys :func:`kernel_from_store_payload` reads; a kernel entry missing
#: any of them is a miss, never a ``KeyError`` deep in the rebuild.
KERNEL_PAYLOAD_KEYS = (
    "canonical", "split_specs", "config", "dtype_bytes", "cost",
    "selection_mode",
)

#: Root of the ``repro`` package, whose sources :func:`code_version_stamp`
#: hashes.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

_CODE_STAMP: Optional[str] = None


def code_version_stamp() -> str:
    """Hash of every ``.py`` file of the package, in sorted path order.

    Kernel winners depend on the search, the cost model, the simulator
    and the emitters; evaluation cells also on the baselines and TTGT.
    No hand-kept module list serves both, so the whole package is hashed
    (once per process).
    """
    global _CODE_STAMP
    if _CODE_STAMP is None:
        digest = hashlib.sha256()
        for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
            digest.update(
                path.relative_to(_PACKAGE_ROOT).as_posix().encode() + b"\0"
            )
            digest.update(path.read_bytes())
        _CODE_STAMP = digest.hexdigest()[:16]
    return _CODE_STAMP


# -- canonical contraction identity -----------------------------------------


def canonical_form(
    contraction: Contraction,
) -> Tuple[Contraction, Dict[str, str]]:
    """The name-independent form of a contraction, plus the rename map.

    Indices are renamed ``i0, i1, ...`` by first appearance across the
    output, then input A, then input B; tensors are renamed ``C/A/B``.
    Two contractions have equal canonical forms exactly when one can be
    obtained from the other by renaming tensors and indices without
    touching structure, index positions or extents — the equivalence
    under which generated kernels are interchangeable.

    Returns ``(canonical_contraction, rename)`` with ``rename`` mapping
    this contraction's index names to the canonical names.
    """
    order = dict.fromkeys(
        contraction.c.indices + contraction.a.indices + contraction.b.indices
    )
    rename = {name: f"i{pos}" for pos, name in enumerate(order)}
    canon = Contraction(
        c=TensorRef("C", tuple(rename[i] for i in contraction.c.indices)),
        a=TensorRef("A", tuple(rename[i] for i in contraction.a.indices)),
        b=TensorRef("B", tuple(rename[i] for i in contraction.b.indices)),
        sizes={rename[i]: contraction.sizes[i] for i in order},
    )
    return canon, rename


def workload_key(
    contraction: Contraction,
    arch: GpuArch,
    dtype_bytes: int,
    signature: str = "",
    stamp: Optional[str] = None,
) -> str:
    """The equivalence-class key of one generation request.

    Extents are exact (fan-out must be bit-identical to a fresh search,
    so no clamping may occur), names are canonicalised away, and the key
    folds in the generator's search ``signature`` and the
    :func:`code_version_stamp`.
    """
    canon, _ = canonical_form(contraction)
    structure = "|".join(
        f"{t.name}:{','.join(t.indices)}" for t in (canon.c, canon.a, canon.b)
    )
    extents = ",".join(
        f"{i}={canon.sizes[i]}"
        for i in dict.fromkeys(canon.c.indices + canon.a.indices
                               + canon.b.indices)
    )
    raw = (
        f"program{STORE_VERSION};{stamp or code_version_stamp()};"
        f"{structure};{extents};{arch.name};{dtype_bytes};{signature}"
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:24]


def eval_cache_key(
    expr: str,
    sizes: Mapping[str, int],
    arch_name: str,
    dtype_bytes: int,
    framework: str,
    params: Optional[Mapping[str, object]] = None,
) -> str:
    """The store key of one (contraction, framework) evaluation cell.

    Framework results are exact measurements for one problem instance,
    so the extents enter the key as given.  The key folds in
    :func:`code_version_stamp`, so cells miss after any code change
    that could alter the modelled numbers.
    """
    sizes_part = ",".join(f"{k}={v}" for k, v in sorted(sizes.items()))
    params_part = ",".join(
        f"{k}={v}" for k, v in sorted((params or {}).items())
    )
    raw = (
        f"eval;{code_version_stamp()};{expr};{sizes_part};"
        f"{arch_name};{dtype_bytes};{framework};{params_part}"
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


def _invert(rename: Dict[str, str]) -> Dict[str, str]:
    return {v: k for k, v in rename.items()}


# -- the persistent kernel store --------------------------------------------


class KernelStore:
    """The one content-addressed persistent store.

    One JSON object per key under ``directory``: per-class winning
    kernels (canonical-name descriptions of the winner, enough to
    rebuild it for any isomorphic contraction without a search) and
    framework evaluation cells.  Every entry carries ``store_version``.
    Each write goes to its own temp file and is renamed into place, so
    concurrent writers sharing a directory never collide and readers
    never observe torn entries.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def lookup(
        self, key: str, required: Sequence[str] = KERNEL_PAYLOAD_KEYS
    ) -> Optional[Dict]:
        """The stored payload for ``key``, or ``None`` on a miss.

        Unreadable or truncated files, JSON that is not an object, a
        different ``store_version`` and payloads lacking any of the
        ``required`` keys all count as misses.
        """
        try:
            payload = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            payload = None
        if (
            not isinstance(payload, dict)
            or payload.get("store_version") != STORE_VERSION
            or any(name not in payload for name in required)
        ):
            self.misses += 1
            obs.inc("store.misses")
            return None
        self.hits += 1
        obs.inc("store.hits")
        return payload

    def put(self, key: str, payload: Dict) -> None:
        """Persist ``payload`` (JSON-serialisable) under ``key``."""
        payload = {**payload, "store_version": STORE_VERSION}
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


def _split_to_dict(spec: SplitSpec) -> Dict:
    return {
        "index": spec.index,
        "factor": spec.factor,
    }


def kernel_to_store_payload(
    kernel: GeneratedKernel, stamp: Optional[str] = None
) -> Dict:
    """Serialise a kernel's winning choice in canonical index names.

    The payload captures everything a later process needs to rebuild a
    bit-identical kernel for any member of the equivalence class: the
    canonical original contraction, the split replay (splits re-derive
    their sub-index names deterministically on the target, so only
    ``(index, factor)`` is stored), the winning configuration in
    canonical post-split names, and the model cost.
    """
    original = kernel.original_contraction or kernel.contraction
    if kernel.merge_specs:
        raise ValueError(
            "kernels with merge rewrites are not storable; compile the "
            "class representative with allow_merge=False"
        )
    canon, rename = canonical_form(original)
    canonical = _rebind_kernel(kernel, canon, rename=dict(rename))
    best = canonical.candidates[0]
    return {
        "code_stamp": stamp or code_version_stamp(),
        "canonical": contraction_to_dict(canon),
        "config": config_to_dict(canonical.config),
        "split_specs": [_split_to_dict(s) for s in canonical.split_specs],
        "cost": best.cost,
        "selection_mode": kernel.selection_mode,
        "dtype_bytes": kernel.plan.dtype_bytes,
    }


def kernel_from_store_payload(
    payload: Dict, generator: Cogent, kernel_name: str = "tc_kernel"
) -> GeneratedKernel:
    """Rebuild the canonical-name kernel described by a store payload.

    No search runs: the stored split replay and configuration are
    reapplied, the plan is rebuilt, and the simulator (deterministic)
    refreshes the performance prediction.  The result carries a
    synthetic :class:`EnumerationResult` holding only the winner.
    """
    canon = contraction_from_dict(payload["canonical"])
    current = canon
    specs: List[SplitSpec] = []
    for entry in payload["split_specs"]:
        current, spec = split_index(current, entry["index"], entry["factor"])
        specs.append(spec)
    config = config_from_dict(payload["config"])
    plan = KernelPlan(current, config, payload["dtype_bytes"])
    simulated = generator.simulator.simulate(plan)
    cost = payload["cost"]
    enumeration = EnumerationResult(
        configs=[config], stats=EnumerationStats(), costs=[cost]
    )
    return GeneratedKernel(
        contraction=current,
        plan=plan,
        candidates=[CandidateScore(config, cost, simulated)],
        enumeration=enumeration,
        selection_mode=payload["selection_mode"] + "+store",
        generation_time_s=0.0,
        kernel_name=kernel_name,
        original_contraction=canon,
        split_specs=tuple(specs),
        merge_specs=(),
        merged_contraction=canon,
        target=generator.target,
    )


# -- the workload compiler ---------------------------------------------------


@dataclass
class ProgramStats:
    """Aggregate accounting of one :meth:`CompilationSession.compile`."""

    contractions: int = 0
    #: Distinct equivalence classes in the batch.
    classes: int = 0
    #: Members resolved by fan-out instead of their own search.
    dedup_hits: int = 0
    #: Configuration searches actually performed (classes - store hits).
    searches: int = 0
    store_hits: int = 0
    store_misses: int = 0
    wall_s: float = 0.0

    def as_dict(self) -> Dict:
        return {
            "contractions": self.contractions,
            "classes": self.classes,
            "dedup_hits": self.dedup_hits,
            "searches": self.searches,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "wall_s": self.wall_s,
        }

    def summary(self) -> str:
        return (
            f"{self.contractions} contractions -> {self.classes} classes "
            f"({self.dedup_hits} dedup hits), {self.searches} searches, "
            f"store {self.store_hits} hits / {self.store_misses} misses, "
            f"{self.wall_s * 1e3:.1f} ms"
        )


@dataclass(frozen=True)
class ClassInfo:
    """One equivalence class of a compiled batch."""

    key: str
    #: Input positions of the members, in batch order.
    members: Tuple[int, ...]
    #: The member that was (or would have been) searched.
    representative: int
    #: ``"search"`` (fresh search) or ``"store"`` (persistent-store hit).
    source: str

    def as_dict(self) -> Dict:
        return {
            "key": self.key,
            "members": list(self.members),
            "representative": self.representative,
            "source": self.source,
        }


@dataclass
class CompiledProgram:
    """The result of compiling a whole workload batch."""

    kernels: List[GeneratedKernel]
    classes: List[ClassInfo]
    stats: ProgramStats

    def __len__(self) -> int:
        return len(self.kernels)

    def as_dict(self) -> Dict:
        return {
            "stats": self.stats.as_dict(),
            "classes": [c.as_dict() for c in self.classes],
        }


class _Class:
    """Internal bookkeeping for one equivalence class being compiled."""

    __slots__ = ("key", "members", "renames", "payload")

    def __init__(self, key: str) -> None:
        self.key = key
        self.members: List[int] = []
        self.renames: List[Dict[str, str]] = []
        self.payload: Optional[Dict] = None


class CompilationSession:
    """Compiles batches of contractions with dedup-first search sharing.

    Parameters
    ----------
    generator:
        The :class:`Cogent` used for representative searches (and whose
        arch/dtype/search knobs shape the class keys).
    store:
        A :class:`KernelStore`, a directory path for one, or ``None``
        to keep the session purely in-memory.

    One session can compile many batches; classes are keyed globally,
    so a shape already compiled in an earlier batch of the same session
    is reused without a search even without a persistent store.
    """

    def __init__(
        self,
        generator: Optional[Cogent] = None,
        store: Optional[Union[str, Path, KernelStore]] = None,
    ) -> None:
        self.generator = generator or Cogent()
        if store is not None and not isinstance(store, KernelStore):
            store = KernelStore(store)
        self.store: Optional[KernelStore] = store
        #: Session-memoised canonical kernels by class key.
        self._memory: Dict[str, GeneratedKernel] = {}

    # -- keys -----------------------------------------------------------

    def class_key(self, contraction: Contraction) -> str:
        return workload_key(
            contraction,
            self.generator.arch,
            self.generator.dtype_bytes,
            self.generator.search_signature(),
        )

    # -- compilation -----------------------------------------------------

    def compile(
        self,
        contractions: Iterable[Union[str, Contraction]],
        sizes: SizesArg = None,
        kernel_name: str = "tc_kernel",
        kernel_names: Optional[Sequence[str]] = None,
        workers: Optional[int] = None,
    ) -> CompiledProgram:
        """Compile a batch: one search per equivalence class, fanned out.

        ``kernel_names`` optionally names each member's kernel (same
        length as the batch); otherwise every kernel is ``kernel_name``.
        ``workers`` parallelises the representative searches across
        processes (default: the generator's ``workers`` setting).
        """
        start = time.perf_counter()
        with obs.span("program"):
            items = [
                parse(c, sizes) if isinstance(c, str) else c
                for c in contractions
            ]
            names = (
                list(kernel_names)
                if kernel_names is not None
                else [kernel_name] * len(items)
            )
            if len(names) != len(items):
                raise ValueError(
                    f"kernel_names has {len(names)} entries for "
                    f"{len(items)} contractions"
                )

            classes: Dict[str, _Class] = {}
            order: List[str] = []
            for position, contraction in enumerate(items):
                _, rename = canonical_form(contraction)
                key = self.class_key(contraction)
                cls = classes.get(key)
                if cls is None:
                    classes[key] = cls = _Class(key)
                    order.append(key)
                cls.members.append(position)
                cls.renames.append(rename)

            # Resolve each class: session memory, then the persistent
            # store, then a fresh search for the representative.
            searched: List[str] = []
            store_hits = 0
            store_misses = 0
            canonical_kernels: Dict[str, GeneratedKernel] = {}
            fresh: Dict[str, GeneratedKernel] = {}
            for key in order:
                cls = classes[key]
                memoised = self._memory.get(key)
                if memoised is not None:
                    canonical_kernels[key] = memoised
                    continue
                if self.store is not None:
                    payload = self.store.lookup(key)
                    if payload is not None:
                        cls.payload = payload
                        store_hits += 1
                        continue
                    store_misses += 1
                searched.append(key)

            reps = [items[classes[key].members[0]] for key in searched]
            rep_names = [names[classes[key].members[0]] for key in searched]
            rep_kernels = _generate_batch(
                self.generator, reps, rep_names, workers
            )
            stamp = code_version_stamp()
            for key, kernel in zip(searched, rep_kernels):
                fresh[key] = kernel
                if self.store is not None and not kernel.merge_specs:
                    self.store.put(
                        key, kernel_to_store_payload(kernel, stamp)
                    )

            # Fan the per-class winners out to every member.
            results: List[Optional[GeneratedKernel]] = [None] * len(items)
            infos: List[ClassInfo] = []
            for key in order:
                cls = classes[key]
                if key in fresh:
                    source = "search"
                    rep_kernel = fresh[key]
                    rep_rename = cls.renames[0]
                    for position, rename in zip(cls.members, cls.renames):
                        # rep name -> canonical -> this member's name.
                        canonical_to_member = _invert(rename)
                        results[position] = self._fan_out(
                            rep_kernel,
                            items[position],
                            names[position],
                            None
                            if rename == rep_rename
                            else {
                                src: canonical_to_member[canon]
                                for src, canon in rep_rename.items()
                            },
                        )
                    if not rep_kernel.merge_specs:
                        self._memory[key] = _rebind_kernel(
                            rep_kernel,
                            canonical_form(
                                rep_kernel.original_contraction
                                or rep_kernel.contraction
                            )[0],
                            rename=dict(rep_rename),
                        )
                else:
                    source = "store" if cls.payload is not None else "memory"
                    canonical = canonical_kernels.get(key)
                    if canonical is None:
                        canonical = kernel_from_store_payload(
                            cls.payload, self.generator
                        )
                        self._memory[key] = canonical
                    for position, rename in zip(cls.members, cls.renames):
                        results[position] = self._fan_out(
                            canonical,
                            items[position],
                            names[position],
                            _invert(rename),
                        )
                infos.append(
                    ClassInfo(
                        key=key,
                        members=tuple(cls.members),
                        representative=cls.members[0],
                        source=source,
                    )
                )

            assert all(k is not None for k in results)
            stats = ProgramStats(
                contractions=len(items),
                classes=len(order),
                dedup_hits=len(items) - len(order),
                searches=len(searched),
                store_hits=store_hits,
                store_misses=store_misses,
                wall_s=time.perf_counter() - start,
            )
            obs.inc("program.contractions", len(items))
            obs.inc("program.classes", len(order))
            obs.inc("program.dedup_hits", stats.dedup_hits)
            obs.inc("program.searches", stats.searches)
        return CompiledProgram(
            kernels=results,  # type: ignore[arg-type]
            classes=infos,
            stats=stats,
        )

    # -- internals -------------------------------------------------------

    def _fan_out(
        self,
        kernel: GeneratedKernel,
        target: Contraction,
        name: str,
        rename: Optional[Dict[str, str]],
    ) -> GeneratedKernel:
        """Rebind a class winner to one member contraction."""
        if rename is not None and all(
            src == dst for src, dst in rename.items()
        ):
            rename = None
        source = kernel.original_contraction or kernel.contraction
        if rename is None and source == target:
            if kernel.kernel_name == name:
                return kernel
            return replace(kernel, kernel_name=name)
        return _rebind_kernel(
            kernel, target, rename=dict(rename or {}) or None,
            kernel_name=name,
        )


def _generate_batch(
    generator: Cogent,
    contractions: Sequence[Contraction],
    names: Sequence[str],
    workers: Optional[int],
) -> List[GeneratedKernel]:
    """Search each contraction, fanning out across ``workers`` processes
    (default: the generator's ``workers`` setting).

    Each worker runs a serial search (its generator copy has
    ``workers=1``), so the two parallelism levels do not nest.  When an
    observability session is active, each worker records its own span
    tree and metrics; the coordinator merges them back in input order
    (deterministic — spans aggregate by name), with worker wall times
    normalised to pool latency.  Only a pool that cannot be created
    falls back to the serial loop (counted as
    ``program.pool_fallbacks``); an exception raised inside a job
    propagates.
    """
    workers = generator.workers if workers is None else max(1, int(workers))
    if workers > 1 and len(contractions) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(contractions))
            )
        except (OSError, NotImplementedError, ImportError):
            obs.inc("program.pool_fallbacks")
        else:
            worker_gen = copy.copy(generator)
            worker_gen.workers = 1  # no nested pools inside pool workers
            trace = obs.enabled()
            payloads = [
                (worker_gen, contraction, name, trace)
                for contraction, name in zip(contractions, names)
            ]
            with pool:
                outcomes = list(pool.map(_generate_job, payloads))
            session = obs.session()
            for _, trace_payload, metrics_payload in outcomes:
                if session is None or trace_payload is None:
                    continue
                session.tracer.absorb(trace_payload, workers=workers)
                session.metrics.merge(
                    obs.MetricsRegistry.from_dict(metrics_payload)
                )
            return [kernel for kernel, _, _ in outcomes]
    return [
        generator.generate(contraction, kernel_name=name)
        for contraction, name in zip(contractions, names)
    ]


def _generate_job(payload: Tuple[Cogent, Contraction, str, bool]):
    """Process-pool entry point for :func:`_generate_batch`.

    Returns ``(kernel, trace, metrics)``; the trace/metrics payloads are
    ``None`` unless the coordinator had an observability session active.
    """
    generator, contraction, kernel_name, trace = payload
    if not trace:
        kernel = generator.generate(contraction, kernel_name=kernel_name)
        return kernel, None, None
    with obs.tracing(root_name="worker") as session:
        kernel = generator.generate(contraction, kernel_name=kernel_name)
    exported = session.payload()
    return kernel, exported["trace"], exported["metrics"]
