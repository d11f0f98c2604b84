"""Multi-tensor contraction networks.

Real workloads (coupled-cluster residuals, tensor-network methods —
the paper's reference [1] is "Optimal contraction order of multiple
tensors") contract *chains* of tensors: ``E[...] = A * B * C * D``.
COGENT generates kernels for binary contractions; this module supplies
the two pieces of the layer above that need no kernels: the n-ary
einsum-like specification (:class:`NetworkSpec`, :func:`parse_network`)
and the optimal *pairwise contraction order* (:func:`optimal_path`), a
dynamic program over tensor subsets that minimises total FLOPs, with
the largest intermediate as a tie-breaker, and lowers each pairwise
step to a :class:`~repro.core.ir.Contraction`.  Compiling and running
the steps is :mod:`repro.core.pipeline`'s job.

Index convention matches the rest of the package (first index fastest);
intermediate tensors lay out their indices in the order: surviving
indices of the left operand (left-operand order), then surviving
indices of the right operand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from .ir import Contraction, ContractionError, TensorRef


@dataclass(frozen=True)
class NetworkSpec:
    """An n-ary contraction: input subscripts and the output subscript."""

    inputs: Tuple[Tuple[str, ...], ...]
    output: Tuple[str, ...]
    sizes: Mapping[str, int]

    def __post_init__(self) -> None:
        if len(self.inputs) < 2:
            raise ContractionError("a network needs at least two tensors")
        appearing = set(itertools.chain.from_iterable(self.inputs))
        for idx in self.output:
            if idx not in appearing:
                raise ContractionError(
                    f"output index {idx!r} appears in no input"
                )
        for idx in appearing:
            if idx not in self.sizes:
                raise ContractionError(f"no extent for index {idx!r}")


def parse_network(expr: str, sizes) -> NetworkSpec:
    """Parse ``"ab,bc,cd->ad"`` style n-ary specifications."""
    from .parser import resolve_sizes

    if "->" not in expr:
        raise ContractionError(f"network spec needs '->': {expr!r}")
    lhs, out = expr.split("->", 1)
    inputs = tuple(
        tuple(part.strip()) for part in lhs.split(",") if part.strip()
    )
    output = tuple(out.strip())
    indices = tuple(dict.fromkeys(
        itertools.chain.from_iterable(inputs)
    ))
    bound = resolve_sizes(indices, sizes)
    return NetworkSpec(inputs, output, bound)


@dataclass(frozen=True)
class PairwiseStep:
    """One binary contraction in the lowered sequence."""

    left: int   # node ids being contracted
    right: int
    result: int
    contraction: Contraction


@dataclass
class ContractionPath:
    """An ordered sequence of pairwise contractions.

    ``peak_intermediate`` is the largest single intermediate (elements),
    an output of the path search; ``planned_peak_bytes`` is filled in by
    the pipeline's liveness-based memory planner
    (:func:`repro.core.pipeline.plan_memory`) and is the total arena
    footprint needed to hold every live intermediate at once.
    """

    spec: NetworkSpec
    steps: List[PairwiseStep]
    total_flops: int
    peak_intermediate: int
    #: Arena bytes assigned by the memory planner (``None`` until a
    #: pipeline/planner run fills it in).
    planned_peak_bytes: Optional[int] = None

    def __str__(self) -> str:
        parts = [
            f"({s.left},{s.right})->{s.result} "
            f"[{s.contraction.flops / 1e6:.1f} MFLOP]"
            for s in self.steps
        ]
        return " ; ".join(parts)


class _Node:
    """Bookkeeping for one (input or intermediate) tensor."""

    def __init__(self, node_id: int, indices: Tuple[str, ...]) -> None:
        self.id = node_id
        self.indices = indices


def _pair_contraction(
    left: Tuple[str, ...],
    right: Tuple[str, ...],
    keep: FrozenSet[str],
    sizes: Mapping[str, int],
    names: Tuple[str, str, str],
) -> Contraction:
    """The binary contraction of two subscript tuples.

    Indices shared by both operands and not in ``keep`` are summed;
    shared-and-kept indices are unsupported by the binary IR (they
    would be batch dimensions) and rejected.
    """
    shared = set(left) & set(right)
    batch = shared & keep
    if batch:
        raise ContractionError(
            f"indices {sorted(batch)} would be batch dimensions of a "
            "pairwise step; reorder the network or use repro.core.batched"
        )
    out = tuple(i for i in left if i in keep and i not in shared) + tuple(
        i for i in right if i in keep and i not in shared
    )
    if not out:
        raise ContractionError(
            "pairwise step would produce a scalar; scalars are not "
            "supported by the kernel template"
        )
    c_name, a_name, b_name = names
    return Contraction(
        c=TensorRef(c_name, out),
        a=TensorRef(a_name, left),
        b=TensorRef(b_name, right),
        sizes={
            i: sizes[i] for i in {*left, *right}
        },
    )


#: Networks wider than this (or with more distinct indices than an
#: int64 bitmask holds) fall back to the per-pair DP, which implements
#: the identical cost and tie-break specification.
_VEC_MAX_TENSORS = 16
_VEC_MAX_INDICES = 62

#: Relative margin for the float near-tie prefilter of the vectorized
#: DP.  Products/sums of integer extents accumulate < 1e-14
#: relative float64 error, so any candidate whose *exact* cost ties the
#: winner lands inside this band; candidates inside the band are
#: re-compared with exact integer arithmetic.
_NEAR_TIE = 1e-9


class _SubsetTables:
    """Per-subset index bookkeeping shared by both path DPs.

    ``surviving(s)`` — the ordered indices of subset ``s`` still needed
    outside it — used to be recomputed for every (subset, half) pair of
    the Θ(3^n) DP inner loop; here every per-subset quantity (ordered
    tuple, index set, element-count product) is computed once and
    memoised, so even the per-pair DP does no redundant
    O(n·|indices|) work per candidate split.
    """

    def __init__(self, spec: NetworkSpec) -> None:
        self.spec = spec
        self.n = len(spec.inputs)
        self.sizes = spec.sizes
        self.output_set = set(spec.output)
        self.full = (1 << self.n) - 1
        self._surviving: Dict[int, Tuple[str, ...]] = {}
        self._surv_set: Dict[int, FrozenSet[str]] = {}
        self._elements: Dict[int, int] = {}

    def surviving(self, subset: int) -> Tuple[str, ...]:
        """Ordered surviving indices of ``subset`` (memoised)."""
        cached = self._surviving.get(subset)
        if cached is not None:
            return cached
        inside: List[str] = []
        seen = set()
        outside: set = set()
        for pos in range(self.n):
            for idx in self.spec.inputs[pos]:
                if subset >> pos & 1:
                    if idx not in seen:
                        seen.add(idx)
                        inside.append(idx)
                else:
                    outside.add(idx)
        keep = self.output_set | outside
        result = tuple(i for i in inside if i in keep)
        self._surviving[subset] = result
        return result

    def surv_set(self, subset: int) -> FrozenSet[str]:
        cached = self._surv_set.get(subset)
        if cached is None:
            cached = frozenset(self.surviving(subset))
            self._surv_set[subset] = cached
        return cached

    def step_flops(self, left: int, right: int) -> int:
        """Exact FLOPs of contracting two subset intermediates."""
        involved = self.surv_set(left) | self.surv_set(right)
        return 2 * math.prod(self.sizes[i] for i in involved)

    def elements(self, subset: int) -> int:
        """Exact element count of the subset's intermediate (min 1)."""
        cached = self._elements.get(subset)
        if cached is None:
            surv = self.surviving(subset)
            cached = math.prod(self.sizes[i] for i in surv) if surv else 1
            self._elements[subset] = cached
        return cached


def _cap_error(memory_cap: int) -> ContractionError:
    return ContractionError(
        f"no contraction path keeps every intermediate within the "
        f"memory cap of {memory_cap} elements; raise the cap or drop it"
    )


def _optimal_split_object(
    tables: _SubsetTables, memory_cap: Optional[int]
) -> Tuple[Dict[int, Tuple[int, int]], int, int]:
    """The per-pair DP: per-subset best splits, exact costs.

    Runs networks too wide for the vectorized DP's bitmask tables, and
    is the reference the vectorized DP is tested against.

    Candidate splits are ranked by the fully specified cost key
    ``(total_flops, peak_intermediate, left_half_bitmask)`` — the third
    component pins every remaining tie to the numerically smallest
    canonical left half, so path choice is deterministic and identical
    across both DPs (cost ties never depend on subset enumeration
    order).  With ``memory_cap`` set (elements), splits whose peak
    intermediate exceeds the cap are discarded; a subset with no
    surviving split is infeasible and skipped by its parents.
    """
    full = tables.full
    best_flops: Dict[int, int] = {}
    best_peak: Dict[int, int] = {}
    best_split: Dict[int, Tuple[int, int]] = {}
    for pos in range(tables.n):
        best_flops[1 << pos] = 0
        best_peak[1 << pos] = 0

    for subset in range(1, full + 1):
        if subset in best_flops or bin(subset).count("1") < 2:
            continue
        inter = tables.elements(subset)
        best: Optional[Tuple[int, int, int]] = None
        sub = (subset - 1) & subset
        while sub:
            other = subset ^ sub
            if sub < other:  # canonical halves only
                sub_flops = best_flops.get(sub)
                other_flops = best_flops.get(other)
                if sub_flops is not None and other_flops is not None:
                    flops = (
                        sub_flops + other_flops
                        + tables.step_flops(sub, other)
                    )
                    peak = max(
                        best_peak[sub], best_peak[other], inter
                    )
                    if memory_cap is None or peak <= memory_cap:
                        cand = (flops, peak, sub)
                        if best is None or cand < best:
                            best = cand
            sub = (sub - 1) & subset
        if best is None:
            if subset == full:
                if memory_cap is not None:
                    raise _cap_error(memory_cap)
                raise ContractionError("network is disconnected")
            continue  # infeasible under the cap; parents skip it
        best_flops[subset] = best[0]
        best_peak[subset] = best[1]
        best_split[subset] = (best[2], subset ^ best[2])

    return best_split, best_flops[full], best_peak[full]


def _optimal_split_vectorized(
    tables: _SubsetTables, memory_cap: Optional[int]
) -> Tuple[Dict[int, Tuple[int, int]], int, int]:
    """NumPy bitmask batch DP, bit-identical to the per-pair DP.

    All Θ(3^n) candidate splits are evaluated in one batch per subset
    cardinality: subsets of k tensors each have the same ``2^k - 1``
    half-enumeration, so their candidate FLOPs/peaks form dense
    ``(subsets, halves)`` matrices built from precomputed per-subset
    surviving-index bitmasks.  Winners are taken per row with a float
    argmin; rows whose minimum is not unique beyond the float near-tie
    margin are resolved with exact integer arithmetic under the same
    ``(flops, peak, left_half)`` key as the per-pair DP, so float rounding
    can never change the chosen path.  With ``memory_cap`` set, the
    float pass only *pre*-filters clearly infeasible candidates and the
    survivors are selected exactly per row (the capped variant trades
    batch speed for exactness at the cap boundary).
    """
    spec = tables.spec
    n, full = tables.n, tables.full
    letters = tuple(dict.fromkeys(
        itertools.chain.from_iterable(spec.inputs)
    ))
    m = len(letters)
    bit_of = {idx: pos for pos, idx in enumerate(letters)}
    sizes = spec.sizes

    # Per-subset index-union and surviving-index bitmasks.
    tensor_mask = np.zeros(n, dtype=np.int64)
    for pos, subscript in enumerate(spec.inputs):
        mask = 0
        for idx in subscript:
            mask |= 1 << bit_of[idx]
        tensor_mask[pos] = mask
    union = np.zeros(full + 1, dtype=np.int64)
    for s in range(1, full + 1):
        low = (s & -s).bit_length() - 1
        union[s] = union[s & (s - 1)] | tensor_mask[low]
    out_mask = np.int64(0)
    for idx in spec.output:
        out_mask |= np.int64(1) << np.int64(bit_of[idx])
    every = np.arange(full + 1)
    surv = union & (out_mask | union[full ^ every])

    # Float element-count products per index mask, via a log-sum table
    # (relative error ~1e-14, far inside the near-tie margin).  For
    # m <= 16 distinct indices the full 2^m log-product table makes the
    # per-candidate step cost a single fancy-indexing lookup; wider
    # networks expand candidate masks to bit matrices instead.
    sizes_f = np.array([float(sizes[i]) for i in letters])
    log_sizes = np.log(sizes_f)
    shifts = np.arange(m, dtype=np.int64)
    logp: Optional[np.ndarray] = None
    if m <= 16:
        logp = np.zeros(1 << m)
        for b in range(m):
            bit = 1 << b
            lower = np.arange(1 << b)
            upper_blocks = np.arange(0, 1 << m, bit << 1)
            idx = (upper_blocks[:, None] | bit | lower[None, :]).ravel()
            logp[idx] = logp[idx ^ bit] + log_sizes[b]
        inter_f = np.exp(logp[surv])
    else:
        surv_bits = ((surv[:, None] >> shifts) & 1).astype(bool)
        inter_f = np.where(surv_bits, sizes_f, 1.0).prod(axis=1)

    flops_f = np.full(full + 1, np.inf)
    peak_f = np.full(full + 1, np.inf)
    best_sub = np.full(full + 1, -1, dtype=np.int64)
    for pos in range(n):
        single = 1 << pos
        flops_f[single] = peak_f[single] = 0.0

    # Exact integer costs are materialised *lazily*: the hot loop runs
    # entirely on float64 (relative error « the near-tie margin), and
    # only near-tied rows plus the final totals walk the chosen splits
    # with exact Python-int arithmetic.
    _prod_memo: Dict[int, int] = {}
    flops_i: Dict[int, int] = {}
    peak_i: Dict[int, int] = {}

    def exact_prod(mask: int) -> int:
        cached = _prod_memo.get(mask)
        if cached is None:
            cached = 1
            probe = mask
            while probe:
                cached *= sizes[letters[(probe & -probe).bit_length() - 1]]
                probe &= probe - 1
            _prod_memo[mask] = cached
        return cached

    def exact_flops(subset: int) -> int:
        cached = flops_i.get(subset)
        if cached is None:
            sub = int(best_sub[subset])
            other = subset ^ sub
            cached = (
                exact_flops(sub) + exact_flops(other)
                + 2 * exact_prod(int(surv[sub] | surv[other]))
            )
            flops_i[subset] = cached
        return cached

    def exact_peak(subset: int) -> int:
        cached = peak_i.get(subset)
        if cached is None:
            sub = int(best_sub[subset])
            other = subset ^ sub
            cached = max(
                exact_peak(sub), exact_peak(other),
                exact_prod(int(surv[subset])),
            )
            peak_i[subset] = cached
        return cached

    for pos in range(n):
        flops_i[1 << pos] = peak_i[1 << pos] = 0

    def exact_pick(subset: int, cand_subs: np.ndarray) -> bool:
        """Exact lexicographic winner among prefiltered candidates."""
        best: Optional[Tuple[int, int, int]] = None
        inter_exact = exact_prod(int(surv[subset]))
        for sub in cand_subs.tolist():
            other = subset ^ sub
            flops = (
                exact_flops(sub) + exact_flops(other)
                + 2 * exact_prod(int(surv[sub] | surv[other]))
            )
            peak = max(exact_peak(sub), exact_peak(other), inter_exact)
            if memory_cap is not None and peak > memory_cap:
                continue
            cand = (flops, peak, sub)
            if best is None or cand < best:
                best = cand
        if best is None:
            return False
        best_sub[subset] = best[2]
        flops_i[subset] = best[0]
        peak_i[subset] = best[1]
        flops_f[subset] = float(best[0])
        peak_f[subset] = float(best[1])
        return True

    bit_cols = np.arange(n, dtype=np.int64)
    all_subsets = np.arange(full + 1, dtype=np.int64)
    all_bits = (all_subsets[:, None] >> bit_cols) & 1
    popcounts = all_bits.sum(axis=1)

    for k in range(2, n + 1):
        subsets_k = all_subsets[popcounts == k]
        halves = np.arange(1, 1 << k, dtype=np.int64)
        tbits = (halves[:, None] >> np.arange(k, dtype=np.int64)) & 1
        # Bound the per-chunk temporaries to ~4M floats.
        per_row = max(len(halves) * (1 if logp is not None else m), 1)
        chunk_rows = max(1, (1 << 22) // per_row)
        for start in range(0, len(subsets_k), chunk_rows):
            chunk = subsets_k[start:start + chunk_rows]
            bits_n = all_bits[chunk]
            positions = np.argsort(-bits_n, kind="stable", axis=1)[:, :k]
            weights = np.int64(1) << positions          # (rows, k)
            subs = weights @ tbits.T                    # (rows, halves)
            others = chunk[:, None] - subs
            valid = subs < others                       # canonical halves
            cand_f = flops_f[subs] + flops_f[others]
            valid &= np.isfinite(cand_f)
            un = surv[subs] | surv[others]
            if logp is not None:
                step_f = 2.0 * np.exp(logp[un])
            else:
                un_bits = ((un[..., None] >> shifts) & 1).astype(bool)
                step_f = 2.0 * np.where(un_bits, sizes_f, 1.0).prod(axis=2)
            cand_f = cand_f + step_f
            cand_p = np.maximum(
                np.maximum(peak_f[subs], peak_f[others]),
                inter_f[chunk][:, None],
            )
            if memory_cap is not None:
                valid &= cand_p <= memory_cap * (1.0 + _NEAR_TIE)
            cand_f = np.where(valid, cand_f, np.inf)
            row_min = cand_f.min(axis=1)
            row_arg = cand_f.argmin(axis=1)
            near = valid & (cand_f <= row_min[:, None] * (1.0 + _NEAR_TIE))
            near_counts = near.sum(axis=1)

            # Fast path (the overwhelmingly common case): a unique
            # float winner with no cap — commit whole rows in batch.
            feasible = np.isfinite(row_min)
            if memory_cap is None:
                fast = feasible & (near_counts == 1)
                rows = np.nonzero(fast)[0]
                fast_subsets = chunk[rows]
                best_sub[fast_subsets] = subs[rows, row_arg[rows]]
                flops_f[fast_subsets] = row_min[rows]
                peak_f[fast_subsets] = cand_p[rows, row_arg[rows]]
                slow = np.nonzero(feasible & ~fast)[0]
            else:
                slow = np.nonzero(feasible)[0]

            for row in slow.tolist():
                # Exact resolution: every float-near candidate (or,
                # under a cap, every prefiltered candidate) re-ranked
                # with integer arithmetic.
                subset = int(chunk[row])
                cols = np.nonzero(
                    valid[row] if memory_cap is not None else near[row]
                )[0]
                if not exact_pick(subset, subs[row, cols]):
                    if subset == full:
                        raise _cap_error(memory_cap)

            if not feasible.all():
                for row in np.nonzero(~feasible)[0].tolist():
                    if int(chunk[row]) == full:
                        if memory_cap is not None:
                            raise _cap_error(memory_cap)
                        raise ContractionError("network is disconnected")
                    # else: infeasible under the cap; parents skip it

    if best_sub[full] < 0:
        # n == 1 handled by NetworkSpec; reaching here means every
        # split of the full set was infeasible.
        if memory_cap is not None:
            raise _cap_error(memory_cap)
        raise ContractionError("network is disconnected")

    # Materialise the chosen split tree (n - 1 internal subsets) and
    # its exact integer totals.
    best_split: Dict[int, Tuple[int, int]] = {}
    stack = [full]
    while stack:
        subset = stack.pop()
        if bin(subset).count("1") < 2:
            continue
        sub = int(best_sub[subset])
        best_split[subset] = (sub, subset ^ sub)
        stack.extend((sub, subset ^ sub))
    return best_split, exact_flops(full), exact_peak(full)


def _emit_steps(
    tables: _SubsetTables, best_split: Dict[int, Tuple[int, int]]
) -> List[PairwiseStep]:
    """Lower the chosen splits to an ordered pairwise-step sequence."""
    spec = tables.spec
    steps: List[PairwiseStep] = []
    node_indices: Dict[int, Tuple[str, ...]] = {
        pos: spec.inputs[pos] for pos in range(tables.n)
    }
    next_id = tables.n

    def emit(subset: int) -> int:
        nonlocal next_id
        if bin(subset).count("1") == 1:
            return subset.bit_length() - 1
        left_sub, right_sub = best_split[subset]
        left_id = emit(left_sub)
        right_id = emit(right_sub)
        keep = tables.surv_set(subset)
        contraction = _pair_contraction(
            node_indices[left_id],
            node_indices[right_id],
            keep,
            spec.sizes,
            (f"T{next_id}", f"T{left_id}", f"T{right_id}"),
        )
        node_indices[next_id] = contraction.c.indices
        steps.append(
            PairwiseStep(left_id, right_id, next_id, contraction)
        )
        next_id += 1
        return next_id - 1

    emit(tables.full)
    return steps


def optimal_path(
    spec: NetworkSpec,
    memory_cap: Optional[int] = None,
) -> ContractionPath:
    """Optimal pairwise contraction order over tensor subsets.

    Dynamic programming over the Θ(3^n) (subset, half) pairs, minimising
    the fully specified key ``(total_flops, peak_intermediate,
    left_half_bitmask)`` — the last component makes tie-breaking
    deterministic.  Candidate splits are evaluated as NumPy bitmask
    batches with exact integer resolution of near-ties; networks too
    wide for the bitmask tables run the per-pair DP, which returns the
    identical path.

    ``memory_cap`` (elements) discards any split whose largest
    intermediate exceeds the cap and raises :class:`ContractionError`
    when no path fits.  The capped DP filters on each subset's *chosen*
    sub-path peak (not a full Pareto front), so it may conservatively
    reject networks where only a FLOP-suboptimal sub-path would fit.
    """
    tables = _SubsetTables(spec)
    n_letters = len(set(itertools.chain.from_iterable(spec.inputs)))
    if tables.n > _VEC_MAX_TENSORS or n_letters > _VEC_MAX_INDICES:
        optimal_split = _optimal_split_object  # bitmask tables won't fit
    else:
        optimal_split = _optimal_split_vectorized
    best_split, total, peak = optimal_split(tables, memory_cap)
    steps = _emit_steps(tables, best_split)
    return ContractionPath(spec, steps, total, peak)
