"""Configuration enumeration with pruning (paper Algorithm 2, Section IV-A).

The search space is built from three families of *partial configurations*:

* ``(TB_x, REG_x)`` choices drawn from the external indices of the input
  holding the output's FVI (the x-side input),
* ``(TB_y, REG_y)`` choices drawn from the other input's external indices,
* ``TB_k`` tilings of the internal (contraction) indices.

Each family is enumerated by walking the tensor's indices fastest-first
from every rotation start (the paper's ``s_idx`` loop), greedily
accumulating full index extents until a target dimension size
(``TB_size`` in {4, 8, 16}, ``REG_size`` in {2, 4, 6, 8}) is reached; the
last index is given the largest tile that fits.  Full configurations are
the Cartesian product of the three families, with leftover external
indices mapped to the grid; they are then pruned by the hardware and
performance constraints of :mod:`repro.core.constraints`.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..gpu.arch import GpuArch
from .columnar import DEFAULT_BATCH_SIZE, ColumnarSpace
from .constraints import ConstraintChecker, ConstraintPolicy, RuleStats
from .ir import Contraction, IndexKind
from .mapping import KernelConfig

Entry = Tuple[str, int]  # (index name, tile size)
#: A scored survivor: (model cost, canonical key, configuration).
Scored = Tuple[int, str, KernelConfig]

#: Paper defaults (Section IV-A.3): thread-block dimension size targets.
DEFAULT_TB_SIZES: Tuple[int, ...] = (4, 8, 16)
#: Paper defaults: register-tile dimension size targets.
DEFAULT_REG_SIZES: Tuple[int, ...] = (2, 4, 6, 8)
#: Contraction-tile (TB_k) size targets.
DEFAULT_TBK_SIZES: Tuple[int, ...] = (4, 8, 16)


def paper_search_space(
    contraction: Contraction,
    n_tile_choices: int = 6,
) -> int:
    """Size of the naive search space (paper Section IV).

    The paper counts ``|mapping| * |tilesize|`` with four dimension
    choices per external index, two placement orders per additional
    internal index, and six tile-size choices per index *except* the
    output's FVI, whose leading-``TB_x`` placement pins its tile to the
    thread-block width — 3,981,312 for Eq. 1 (``4^4 * 2 * 6^5``).  The
    enumerator never materialises this space; the pruning statistic is
    reported against it.
    """
    n_ext = len(contraction.external_indices)
    n_int = len(contraction.internal_indices)
    n_all = n_ext + n_int
    mapping = (4 ** n_ext) * (2 ** max(n_int - 1, 0))
    return mapping * (n_tile_choices ** max(n_all - 1, 0))


@dataclass(frozen=True)
class SidePartial:
    """A partial configuration for one side: TB entries + REG entries."""

    tb: Tuple[Entry, ...]
    reg: Tuple[Entry, ...]


@dataclass
class EnumerationStats:
    """Bookkeeping for the pruning claims (paper: ~97% pruned)."""

    raw_combinations: int = 0
    hardware_pruned: int = 0
    performance_pruned: int = 0
    accepted: int = 0

    @property
    def pruned_fraction(self) -> float:
        if self.raw_combinations == 0:
            return 0.0
        return 1.0 - self.accepted / self.raw_combinations


@dataclass
class SearchStats:
    """Wall-time breakdown and counters of one configuration search.

    Times are summed across workers, so in parallel mode they can exceed
    the elapsed ``total_s`` (they measure work, not latency).
    """

    #: Building partial-configuration families and candidate configs.
    enumeration_s: float = 0.0
    #: Constraint classification (hardware + performance rules).
    pruning_s: float = 0.0
    #: Cost-model evaluation and top-k heap maintenance.
    ranking_s: float = 0.0
    #: Simulator micro-benchmarks of the top-k (filled by the generator).
    simulation_s: float = 0.0
    #: Elapsed wall-time of the whole search (coordinator clock).
    total_s: float = 0.0
    #: Worker processes used (1 = serial in-process search).
    workers: int = 1
    #: Shards the Cartesian product was striped across.
    shards: int = 1
    #: Combinations classified against the constraint rules.
    configs_checked: int = 0
    #: Survivors scored by the cost model.
    configs_ranked: int = 0
    #: Survivors retained in the bounded top-k after the streaming merge.
    kept: int = 0
    #: Candidates micro-benchmarked on the simulator.
    simulated: int = 0

    @property
    def search_s(self) -> float:
        """Total measured work time across phases (excl. simulation)."""
        return self.enumeration_s + self.pruning_s + self.ranking_s

    @property
    def configs_per_second(self) -> float:
        """Classification throughput against elapsed wall-time."""
        elapsed = self.total_s or self.search_s
        if elapsed <= 0.0:
            return 0.0
        return self.configs_checked / elapsed

    def add(self, other: "SearchStats") -> None:
        """Accumulate a shard's (or another search's) stats into this."""
        self.enumeration_s += other.enumeration_s
        self.pruning_s += other.pruning_s
        self.ranking_s += other.ranking_s
        self.simulation_s += other.simulation_s
        self.configs_checked += other.configs_checked
        self.configs_ranked += other.configs_ranked
        self.simulated += other.simulated

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for JSON reporting (benchmarks, CLI ``--json``)."""
        return {
            "enumeration_s": self.enumeration_s,
            "pruning_s": self.pruning_s,
            "ranking_s": self.ranking_s,
            "simulation_s": self.simulation_s,
            "total_s": self.total_s,
            "workers": self.workers,
            "shards": self.shards,
            "configs_checked": self.configs_checked,
            "configs_ranked": self.configs_ranked,
            "kept": self.kept,
            "simulated": self.simulated,
            "configs_per_second": self.configs_per_second,
        }

    def summary(self) -> str:
        return (
            f"search: {self.configs_checked} configs in "
            f"{self.total_s * 1e3:.1f} ms "
            f"({self.configs_per_second:,.0f} cfg/s, "
            f"{self.workers} worker{'s' if self.workers != 1 else ''}) | "
            f"enum {self.enumeration_s * 1e3:.1f} ms, "
            f"prune {self.pruning_s * 1e3:.1f} ms, "
            f"rank {self.ranking_s * 1e3:.1f} ms, "
            f"sim {self.simulation_s * 1e3:.1f} ms"
        )


@dataclass
class EnumerationResult:
    """The ranked head of one :meth:`Enumerator.search` plus pruning
    statistics.

    ``configs`` holds the ``keep`` best survivors in rank order with
    their model costs in ``costs``; ``search_stats`` carries the timing
    breakdown.  A kernel rebuilt from the store carries only its
    winner and no ``search_stats``.
    """

    configs: List[KernelConfig]
    stats: EnumerationStats
    #: Configurations that were hardware-clean but perf-pruned; used as a
    #: fallback when the performance rules are too strict for a problem.
    feasible_rejects: List[KernelConfig] = field(default_factory=list)
    #: Model costs aligned with ``configs``.
    costs: Optional[List[int]] = None
    #: Model costs aligned with ``feasible_rejects``.
    reject_costs: Optional[List[int]] = None
    #: Timing breakdown of the search.
    search_stats: Optional[SearchStats] = None


class _RevStr:
    """A string wrapper with reversed ordering (for max-heap tie-break)."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __lt__(self, other: "_RevStr") -> bool:
        return self.value > other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _RevStr) and self.value == other.value


class TopK:
    """A bounded min-k collector over (cost, canonical key) order.

    Internally a max-heap of the k best entries seen so far (costs and
    keys negated/reversed), so a stream of any length needs O(k) memory
    and O(log k) per insertion.  Ties on cost break on the canonical
    config key, making the winner independent of insertion order — the
    keystone of serial/parallel determinism.
    """

    def __init__(self, k: int) -> None:
        self.k = max(1, k)
        self._heap: List[Tuple[int, _RevStr, KernelConfig]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, cost: int, key: str, config: KernelConfig) -> None:
        entry = (-cost, _RevStr(key), config)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return
        worst = self._heap[0]
        if (cost, key) < (-worst[0], worst[1].value):
            heapq.heapreplace(self._heap, entry)

    def bound(self) -> Optional[Tuple[int, str]]:
        """(cost, key) of the worst retained entry once the heap is full.

        ``None`` while fewer than ``k`` entries are held (everything
        still enters).  The search uses this to drop whole
        batch slices that cannot beat the current head.
        """
        if len(self._heap) < self.k:
            return None
        worst = self._heap[0]
        return (-worst[0], worst[1].value)

    def items(self) -> List[Scored]:
        """Retained entries as (cost, key, config), best first."""
        ordered = sorted(
            self._heap, key=lambda e: (-e[0], e[1].value)
        )
        return [(-c, rev.value, cfg) for c, rev, cfg in ordered]


@dataclass
class _ShardOutcome:
    """What one search shard (process or the serial path) returns."""

    top: List[Scored]
    fallback: List[Scored]
    stats: EnumerationStats
    search: SearchStats
    #: Per-rule pruning behaviour measured by this shard's checker,
    #: shipped back so the coordinator's metrics registry unifies
    #: constraint stats across workers.
    rules: Dict[str, RuleStats] = field(default_factory=dict)


def _rotations(items: Sequence[str]) -> Iterable[Sequence[str]]:
    if not items:
        yield ()
        return
    for start in range(len(items)):
        yield tuple(items[start:]) + tuple(items[:start])


def _greedy_fill(
    order: Sequence[str],
    extents: Dict[str, int],
    target: int,
    prev: int = 1,
) -> Tuple[Tuple[Entry, ...], bool]:
    """Accumulate indices along ``order`` until ``prev * tiles >= target``.

    Mirrors Algorithm 2's inner loop: indices before the threshold get
    their full extent as tile size; the index that crosses it gets the
    largest tile keeping the product at ``target`` (integer division).
    Returns the entries and whether the target was reached.
    """
    entries: List[Entry] = []
    for name in order:
        extent = extents[name]
        if prev * extent >= target:
            tile = max(1, target // prev)
            tile = min(tile, extent)
            entries.append((name, tile))
            return tuple(entries), True
        entries.append((name, extent))
        prev *= extent
    return tuple(entries), False


class Enumerator:
    """Enumerates pruned kernel configurations for one contraction."""

    def __init__(
        self,
        contraction: Contraction,
        arch: GpuArch,
        dtype_bytes: int = 8,
        reg_sizes: Sequence[int] = DEFAULT_REG_SIZES,
        policy: Optional[ConstraintPolicy] = None,
        max_configs: int = 200_000,
        batch_size: Optional[int] = None,
    ) -> None:
        self.contraction = contraction
        self.arch = arch
        self.dtype_bytes = dtype_bytes
        self.reg_sizes = tuple(reg_sizes)
        self.checker = ConstraintChecker(arch, dtype_bytes, policy)
        self.max_configs = max_configs
        #: Rows per evaluation batch (None = default).
        self.batch_size = batch_size
        self._extents = {
            i: contraction.extent(i) for i in contraction.all_indices
        }

    # -- partial enumerations -------------------------------------------

    def enumerate_x_side(self) -> List[SidePartial]:
        """(TB_x, REG_x) partials; TB_x always leads with the output FVI."""
        contraction = self.contraction
        x_input = contraction.x_input
        c_fvi = contraction.c.fvi
        others = [
            i for i in x_input.indices
            if contraction.kind(i) is IndexKind.EXTERNAL and i != c_fvi
        ]
        partials: Set[SidePartial] = set()
        fvi_extent = self._extents[c_fvi]
        tb_choices: Set[Tuple[Entry, ...]] = set()
        for tb_size in DEFAULT_TB_SIZES:
            if fvi_extent >= tb_size:
                tb_choices.add(((c_fvi, min(tb_size, fvi_extent)),))
                continue
            for order in _rotations(others):
                entries, ok = _greedy_fill(
                    order, self._extents, tb_size, prev=fvi_extent
                )
                if ok:
                    tb_choices.add(((c_fvi, fvi_extent),) + entries)
        if not tb_choices:
            # Tiny problem: take everything at full extent.
            full = tuple(
                (i, self._extents[i]) for i in (c_fvi, *others)
            )
            tb_choices.add(full)
        for tb in tb_choices:
            mapped = {name for name, _ in tb}
            remaining = [i for i in others if i not in mapped]
            for reg in self._enumerate_reg(remaining):
                partials.add(SidePartial(tb, reg))
        return sorted(partials, key=str)

    def enumerate_y_side(self) -> List[SidePartial]:
        """(TB_y, REG_y) partials from the y-side input's externals."""
        contraction = self.contraction
        y_input = contraction.y_input
        externals = [
            i for i in y_input.indices
            if contraction.kind(i) is IndexKind.EXTERNAL
        ]
        partials: Set[SidePartial] = set()
        if not externals:
            return [SidePartial((), ())]
        tb_choices: Set[Tuple[Entry, ...]] = set()
        for tb_size in DEFAULT_TB_SIZES:
            for order in _rotations(externals):
                entries, ok = _greedy_fill(order, self._extents, tb_size)
                if ok:
                    tb_choices.add(entries)
        if not tb_choices:
            tb_choices.add(
                tuple((i, self._extents[i]) for i in externals)
            )
        for tb in tb_choices:
            mapped = {name for name, _ in tb}
            remaining = [i for i in externals if i not in mapped]
            for reg in self._enumerate_reg(remaining):
                partials.add(SidePartial(tb, reg))
        return sorted(partials, key=str)

    def _enumerate_reg(self, remaining: Sequence[str]) -> List[Tuple[Entry, ...]]:
        """Register-tile choices over the unmapped external indices."""
        choices: Set[Tuple[Entry, ...]] = {()}
        if not remaining:
            return [()]
        for reg_size in self.reg_sizes:
            for order in _rotations(remaining):
                entries, ok = _greedy_fill(order, self._extents, reg_size)
                if ok:
                    choices.add(entries)
        return sorted(choices, key=str)

    def enumerate_tb_k(self) -> List[Tuple[Entry, ...]]:
        """Tilings of the internal indices for the serial TB_k loop."""
        contraction = self.contraction
        internals = list(contraction.internal_indices)
        if not internals:
            return [()]
        # Walk internals in the storage order of the input whose FVI is an
        # internal index, if any — its leading tile drives load coalescing.
        for tensor in (contraction.b, contraction.a):
            if contraction.kind(tensor.fvi) is IndexKind.INTERNAL:
                internals = [
                    i for i in tensor.indices
                    if contraction.kind(i) is IndexKind.INTERNAL
                ]
                break
        choices: Set[Tuple[Entry, ...]] = set()
        for tbk_size in DEFAULT_TBK_SIZES:
            for order in _rotations(internals):
                entries, ok = _greedy_fill(order, self._extents, tbk_size)
                if ok:
                    # Unmentioned internals get tile 1 at combine time.
                    choices.add(entries)
        if not choices:
            choices.add(tuple((i, self._extents[i]) for i in internals))
        return sorted(choices, key=str)

    # -- streaming / parallel search ---------------------------------------

    def columnar_space(self) -> ColumnarSpace:
        """The struct-of-arrays encoding of this enumerator's families."""
        return ColumnarSpace(
            self.contraction,
            self.arch,
            self.enumerate_x_side(),
            self.enumerate_y_side(),
            self.enumerate_tb_k(),
            dtype_bytes=self.dtype_bytes,
            policy=self.checker.policy,
        )

    def _stream(
        self,
        keep: int,
        shard: int = 0,
        num_shards: int = 1,
    ) -> _ShardOutcome:
        """One pass over this shard of the Cartesian product, in batches.

        The shard walks the capped position stream in batches of
        ``batch_size`` rows; shard ``shard`` of ``num_shards`` takes
        every ``num_shards``-th batch.  Each batch is classified by the
        vectorized Algorithm-2 predicates, scored with the closed-form
        Algorithm-3 cost over survivors, and top-k candidates are
        preselected with ``np.argpartition`` before any canonical key or
        :class:`KernelConfig` is built, so the shard never materialises
        its survivors.
        """
        stream_start = time.perf_counter()
        space = self.columnar_space()
        stats = EnumerationStats()
        search = SearchStats(shards=num_shards)
        top = TopK(keep)
        fallback = TopK(keep)
        rules0 = {
            name: (s.checks, s.rejections, s.time_s)
            for name, s in self.checker.rule_stats.items()
        }
        prune_s = 0.0
        rank_s = 0.0
        limit = min(space.size, self.max_configs)
        batch_size = self.batch_size or DEFAULT_BATCH_SIZE
        seen_accepted = False

        for batch_index, start in enumerate(range(0, limit, batch_size)):
            if batch_index % num_shards != shard:
                continue
            positions = np.arange(
                start, min(start + batch_size, limit), dtype=np.int64
            )
            batch = space.batch(positions)
            t0 = time.perf_counter()
            verdict = batch.classify()
            prune_s += time.perf_counter() - t0
            self.checker.absorb_batch_counts(verdict.rule_counts)

            n = len(positions)
            stats.raw_combinations += n
            search.configs_checked += n
            accepted = verdict.accepted
            n_accepted = int(accepted.sum())
            perf_rejected = verdict.performance_rejected
            stats.hardware_pruned += int(verdict.hardware_rejected.sum())
            stats.performance_pruned += int(perf_rejected.sum())
            stats.accepted += n_accepted

            t0 = time.perf_counter()
            if n_accepted:
                _push_candidates(
                    top, space, positions[accepted],
                    batch.costs(accepted), keep,
                )
                search.configs_ranked += n_accepted
            if not seen_accepted:
                # Perf rejects are scored only while no accepted
                # survivor has streamed past: they feed the tiny-problem
                # fallback, which is only consulted when *nothing* is
                # accepted anywhere.
                if n_accepted:
                    cutoff = int(np.flatnonzero(accepted)[0])
                    reject_mask = perf_rejected & (np.arange(n) < cutoff)
                    seen_accepted = True
                else:
                    reject_mask = perf_rejected
                n_rejects = int(reject_mask.sum())
                if n_rejects:
                    _push_candidates(
                        fallback, space, positions[reject_mask],
                        batch.costs(reject_mask), keep,
                    )
                    search.configs_ranked += n_rejects
            rank_s += time.perf_counter() - t0

        total = time.perf_counter() - stream_start
        search.pruning_s = prune_s
        search.ranking_s = rank_s
        search.enumeration_s = max(total - prune_s - rank_s, 0.0)
        rules = {
            name: RuleStats(
                checks=s.checks - rules0[name][0],
                rejections=s.rejections - rules0[name][1],
                time_s=s.time_s - rules0[name][2],
            )
            for name, s in self.checker.rule_stats.items()
        }
        return _ShardOutcome(
            _materialize(top, space), _materialize(fallback, space),
            stats, search, rules,
        )

    def search(self, keep: int = 64, workers: int = 1) -> EnumerationResult:
        """Streaming search: prune + rank, retaining only ``keep`` best.

        The Cartesian product is batched through vectorized rule
        predicates and the closed-form Algorithm-3 cost.  With more than
        one worker the position batches are striped across a
        :class:`concurrent.futures.ProcessPoolExecutor` and the
        coordinator merges the bounded per-shard heads with
        :func:`heapq.nsmallest`, so survivors are never globally
        materialised or sorted.  Runs the serial in-process path when
        only one worker is requested.  Only a pool that cannot be
        created falls back to it (counted as ``search.pool_fallbacks``);
        an exception raised inside a shard propagates.

        Serial and parallel searches select the identical ranked heads:
        cost ties break on the canonical config key, and batch striping
        partitions exactly the position stream the serial walk sees.
        """
        start = time.perf_counter()
        workers = max(1, int(workers))
        with obs.span("search"):
            outcomes: List[_ShardOutcome] = []
            used_workers = 1
            if workers > 1:
                try:
                    from concurrent.futures import ProcessPoolExecutor

                    pool = ProcessPoolExecutor(max_workers=workers)
                except (OSError, NotImplementedError, ImportError):
                    obs.inc("search.pool_fallbacks")
                else:
                    with pool:
                        outcomes = self._search_parallel(pool, keep, workers)
                    used_workers = workers
            if not outcomes:
                outcomes = [self._stream(keep)]
            result = _merge_outcomes(outcomes, keep, used_workers)
            result.search_stats.total_s = time.perf_counter() - start
            self._absorb_observability(
                outcomes, result.stats, result.search_stats, used_workers
            )
        return result

    def _absorb_observability(
        self,
        outcomes: List[_ShardOutcome],
        stats: EnumerationStats,
        search_stats: SearchStats,
        used_workers: int,
    ) -> None:
        """Record phase spans + unify counters in the active session.

        Phase durations are summed *work* across shards; recording with
        ``workers=used_workers`` normalises them back to latency so the
        span tree's self-times stay within the elapsed search window —
        and the tree structure is identical for any worker count.
        """
        session = obs.session()
        if session is None:
            return
        obs.record("enumerate", search_stats.enumeration_s,
                    workers=used_workers)
        obs.record("prune", search_stats.pruning_s, workers=used_workers)
        obs.record("rank", search_stats.ranking_s, workers=used_workers)
        session.metrics.absorb_search_stats(search_stats)
        session.metrics.absorb_enumeration_stats(stats)
        for outcome in outcomes:
            session.metrics.absorb_rule_stats(outcome.rules)

    def _search_parallel(
        self, pool, keep: int, workers: int
    ) -> List[_ShardOutcome]:
        """Fan the product shards out over ``pool``."""
        payloads = [
            (
                self.contraction, self.arch, self.dtype_bytes,
                self.reg_sizes, self.checker.policy, self.max_configs,
                keep, shard, workers, self.batch_size,
            )
            for shard in range(workers)
        ]
        return list(pool.map(_search_shard, payloads))


def _search_shard(payload: Tuple) -> _ShardOutcome:
    """Process-pool entry point: run one shard of a streaming search."""
    (contraction, arch, dtype_bytes, reg_sizes, policy, max_configs,
     keep, shard, num_shards, batch_size) = payload
    enumerator = Enumerator(
        contraction, arch, dtype_bytes, reg_sizes=reg_sizes,
        policy=policy, max_configs=max_configs, batch_size=batch_size,
    )
    return enumerator._stream(keep, shard, num_shards)


def _merge_outcomes(
    outcomes: Sequence[_ShardOutcome], keep: int, workers: int = 1
) -> EnumerationResult:
    """Merge per-shard outcomes into one ranked :class:`EnumerationResult`.

    Pruning counters and phase timings are summed across shards; the
    bounded heads (and the fallback reject heads) are merged by
    :func:`_merge_scored`.  ``search_stats.total_s`` is left for the
    caller, whose clock spans the whole search.
    """
    stats = EnumerationStats()
    search_stats = SearchStats(workers=workers, shards=len(outcomes))
    for outcome in outcomes:
        stats.raw_combinations += outcome.stats.raw_combinations
        stats.hardware_pruned += outcome.stats.hardware_pruned
        stats.performance_pruned += outcome.stats.performance_pruned
        stats.accepted += outcome.stats.accepted
        search_stats.add(outcome.search)
    ranked = _merge_scored((o.top for o in outcomes), keep)
    rejects = _merge_scored((o.fallback for o in outcomes), keep)
    search_stats.kept = len(ranked)
    return EnumerationResult(
        configs=[cfg for _, _, cfg in ranked],
        stats=stats,
        feasible_rejects=[cfg for _, _, cfg in rejects],
        costs=[cost for cost, _, _ in ranked],
        reject_costs=[cost for cost, _, _ in rejects],
        search_stats=search_stats,
    )


def _push_candidates(
    top: TopK,
    space: ColumnarSpace,
    positions: np.ndarray,
    costs: np.ndarray,
    keep: int,
) -> None:
    """Feed one batch's scored rows into a bounded :class:`TopK`.

    Rows that cannot beat the collector's current worst entry are
    dropped wholesale, then ``np.argpartition`` preselects the cheapest
    ``keep`` rows (keeping all cost ties, which the canonical key
    breaks), so only genuine top-k candidates pay the canonical-key
    string construction.  The retained configs are positions — real
    :class:`KernelConfig` objects are built by :func:`_materialize`
    only for the final survivors.
    """
    bound = top.bound()
    if bound is not None:
        within = costs <= bound[0]
        positions, costs = positions[within], costs[within]
    if costs.size > keep:
        order = np.argpartition(costs, keep - 1)
        kth = costs[order[keep - 1]]
        within = costs <= kth
        positions, costs = positions[within], costs[within]
    for position, cost in zip(positions.tolist(), costs.tolist()):
        top.push(int(cost), space.key_at(position), position)


def _materialize(top: TopK, space: ColumnarSpace) -> List[Scored]:
    """Turn a TopK of positions into (cost, key, KernelConfig) entries."""
    return [
        (cost, key, space.config_at(position))
        for cost, key, position in top.items()
    ]


def _merge_scored(
    shard_items: Iterable[List[Scored]], keep: int
) -> List[Scored]:
    """Streaming merge of per-shard bounded heads.

    Shards score disjoint batches of the product space, so no canonical
    key appears in two heads; the merge is the ``keep`` smallest entries
    by (cost, canonical key) via :func:`heapq.nsmallest`.
    """
    return heapq.nsmallest(
        keep, itertools.chain.from_iterable(shard_items),
        key=lambda e: (e[0], e[1]),
    )
