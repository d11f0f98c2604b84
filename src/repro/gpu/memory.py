"""Warp-level global-memory transaction counting from address traces.

This module is the *ground truth* the analytical cost model
(:mod:`repro.core.costmodel`) is validated against.  It replays exactly
the addresses the generated kernels issue:

* **Input loads**: each staged tile is flattened in the tensor's own
  storage order and loaded cooperatively — thread ``tid`` handles flat
  elements ``tid, tid + nthreads, ...``.  For every load iteration, each
  warp (32 consecutive ``tid``) touches some set of aligned 128-byte
  lines; every distinct line is one transaction.  Out-of-bounds lanes are
  predicated off and issue no transaction.
* **Output stores**: each thread stores its ``REG_x x REG_y`` accumulator
  elements with one instruction per register element; transactions are
  counted per warp per instruction the same way.

Two exact replays are provided.  :class:`TransactionCounter` is the
original per-block/per-step loop — slow but simple, retained as the
reference oracle.  :class:`VectorizedReplay` computes the identical
counts with batched address arithmetic: because the replayed address of
a tile element is the sum of a within-tile term, a block-offset term and
a step-offset term (and the bounds predicate factors the same way), the
whole kernel's trace is built by broadcasting three small arrays, and
the distinct ``(block, step, issue, line)`` transactions are counted
with one :func:`numpy.unique` per chunk.  This makes ``exact=True``
counting feasible at full TCCG problem sizes.

:func:`count_transactions` can also sample one interior (full-tile)
block and one step and scale up (``exact=False``); that over-counts when
tiles do not divide extents (edge blocks have predicated-off lanes) and
mis-counts when block offsets are not 128-byte aligned.  ``exact="auto"``
replays exactly whenever the sampled shortcut is not provably exact
(see :func:`sampled_is_exact`).

When the emitters vectorise a staging load (``double2``/``float4``),
thread-to-element ownership changes but each warp iteration still
touches the same contiguous span of lines, so the counts below remain
valid for the vectorised kernels as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from ..core.ir import TensorRef
from ..core.plan import Axis, KernelPlan, ceil_div
from ..core.mapping import Dim

TRANSACTION_BYTES = 128
WARP_SIZE = 32

#: Element-visit budget per chunk of the vectorized replay; bounds peak
#: memory at a few tens of MB (three int64 temporaries per chunk).
DEFAULT_CHUNK_ELEMENTS = 1 << 21


@dataclass(frozen=True)
class MeasuredTransactions:
    """Transaction counts observed from replayed addresses."""

    load_a: int
    load_b: int
    store_c: int

    @property
    def total(self) -> int:
        return self.load_a + self.load_b + self.store_c

    @property
    def bytes(self) -> int:
        return self.total * TRANSACTION_BYTES


def _count_warp_lines(
    issue_ids: np.ndarray, addresses: np.ndarray, valid: np.ndarray
) -> int:
    """Distinct (issue, warp, 128B-line) triples among valid lanes."""
    if not valid.any():
        return 0
    lines = addresses[valid] // TRANSACTION_BYTES
    issues = issue_ids[valid]
    # Pack (issue, line) into one integer key for np.unique.
    span = int(lines.max()) + 1
    keys = issues.astype(np.int64) * span + lines.astype(np.int64)
    return int(np.unique(keys).size)


class TransactionCounter:
    """Replays generated-kernel addressing for one plan.

    Per-block/per-step loop primitives.  :meth:`load_transactions` and
    :meth:`store_transactions` replay a single tile each; the sampled
    count scales one tile up, and the per-block/per-step loop reference
    in ``tests/oracles`` iterates them over every block and step (the
    slow oracle the vectorized replay is tested against).
    """

    def __init__(self, plan: KernelPlan) -> None:
        self.plan = plan
        self.dtype_bytes = plan.dtype_bytes
        contraction = plan.contraction
        self._strides = {
            tensor.name: contraction.strides_of(tensor)
            for tensor in (contraction.a, contraction.b, contraction.c)
        }

    # -- input loads ---------------------------------------------------------

    def load_transactions(
        self, tensor: TensorRef, block_id: int, step_id: int
    ) -> int:
        """Transactions to stage one tile of an input tensor."""
        plan = self.plan
        axes = plan.tensor_tile_axes(tensor)
        tiles = [a.tile for a in axes]
        extents = [a.extent for a in axes]
        strides = self._strides[tensor.name]
        offsets = self._tile_offsets(tensor, block_id, step_id)

        n_elems = int(np.prod(tiles)) if tiles else 1
        nthreads = plan.threads_per_block
        flats = np.arange(n_elems, dtype=np.int64)
        tid = flats % nthreads
        iteration = flats // nthreads
        warp = tid // WARP_SIZE
        n_warps = -(-nthreads // WARP_SIZE)
        issue_ids = iteration * n_warps + warp

        addr = np.zeros(n_elems, dtype=np.int64)
        valid = np.ones(n_elems, dtype=bool)
        rem = flats
        for tile, extent, stride, offset in zip(
            tiles, extents, strides, offsets
        ):
            coord = rem % tile
            rem = rem // tile
            global_idx = coord + offset
            valid &= global_idx < extent
            addr += global_idx * stride
        addr *= self.dtype_bytes
        return _count_warp_lines(issue_ids, addr, valid)

    # -- output stores ----------------------------------------------------------

    def store_transactions(self, block_id: int) -> int:
        """Transactions to write one block's output tile."""
        plan = self.plan
        contraction = plan.contraction
        c = contraction.c
        strides = dict(zip(c.indices, self._strides[c.name]))
        extents = {i: contraction.extent(i) for i in c.indices}
        offsets = plan.block_offsets(block_id)

        nthreads = plan.threads_per_block
        tid = np.arange(nthreads, dtype=np.int64)
        x = tid % plan.tb_x
        y = tid // plan.tb_x
        warp = tid // WARP_SIZE
        n_warps = -(-nthreads // WARP_SIZE)

        def local_coords(flat: np.ndarray, dim_entries) -> Dict[str, np.ndarray]:
            coords = {}
            rem = flat
            for m in dim_entries:
                coords[m.index] = rem % m.tile
                rem = rem // m.tile
            return coords

        tbx_entries = plan.config.by_dim(Dim.TB_X)
        tby_entries = plan.config.by_dim(Dim.TB_Y)
        regx_entries = plan.config.by_dim(Dim.REG_X)
        regy_entries = plan.config.by_dim(Dim.REG_Y)

        base_coords: Dict[str, np.ndarray] = {}
        base_coords.update(local_coords(x, tbx_entries))
        base_coords.update(local_coords(y, tby_entries))

        total = 0
        issue = 0
        for ry in range(plan.reg_y):
            ry_coords = local_coords(np.int64(ry), regy_entries)
            for rx in range(plan.reg_x):
                rx_coords = local_coords(np.int64(rx), regx_entries)
                addr = np.zeros(nthreads, dtype=np.int64)
                valid = np.ones(nthreads, dtype=bool)
                for index in c.indices:
                    if index in base_coords:
                        coord = base_coords[index]
                    elif index in rx_coords:
                        coord = rx_coords[index]
                    elif index in ry_coords:
                        coord = ry_coords[index]
                    else:
                        coord = np.int64(0)  # GRID-mapped: tile 1
                    global_idx = coord + offsets[index]
                    valid &= global_idx < extents[index]
                    addr += global_idx * strides[index]
                addr *= self.dtype_bytes
                total += _count_warp_lines(
                    issue * n_warps + warp, addr, valid
                )
                issue += 1
        return total

    # -- helpers -----------------------------------------------------------------

    def _tile_offsets(
        self, tensor: TensorRef, block_id: int, step_id: int
    ) -> Tuple[int, ...]:
        plan = self.plan
        block = plan.block_offsets(block_id)
        step = plan.step_offsets(step_id)
        offsets = []
        for index in tensor.indices:
            if index in block:
                offsets.append(block[index])
            else:
                offsets.append(step[index])
        return tuple(offsets)


# -- vectorized replay --------------------------------------------------------


def _axis_offsets(
    axes: Sequence[Axis], ids: np.ndarray
) -> Dict[str, np.ndarray]:
    """Per-index global offsets of every decomposed linear id.

    Mirrors :meth:`KernelPlan.block_offsets` / ``step_offsets`` for a
    whole ``np.arange`` of ids at once (mixed radix, fastest-first).
    """
    offsets: Dict[str, np.ndarray] = {}
    radix = 1
    for axis in axes:
        digit = (ids // radix) % axis.num_tiles
        offsets[axis.index] = digit * axis.tile
        radix *= axis.num_tiles
    return offsets


def _offset_classes(
    offsets_by_index: Dict[str, np.ndarray],
    axes: Sequence[Tuple[str, int, int, int]],
    count: int,
    dtype_bytes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Group linear ids into transaction-equivalence classes.

    ``axes`` lists the tensor-relevant ``(index, extent, tile, stride)``
    whose offsets vary with the id.  Two ids land in the same class when
    every axis keeps the same valid tile length (``min(tile, extent -
    offset)`` — what the bounds predicate sees) and the summed byte
    offset is congruent mod :data:`TRANSACTION_BYTES` (addresses then
    differ by whole 128-byte lines, so per-warp line counts are
    identical).  Returns ``(representative ids, multiplicities)``.
    """
    key = np.zeros(count, dtype=np.int64)
    shift = np.zeros(count, dtype=np.int64)
    for index, extent, tile, stride in axes:
        off = offsets_by_index[index]
        shift += off * stride
        if extent % tile:
            valid_len = np.minimum(tile, extent - off)
            key = key * (tile + 1) + valid_len
    key = key * TRANSACTION_BYTES + (shift * dtype_bytes) % TRANSACTION_BYTES
    _, reps, mult = np.unique(key, return_index=True, return_counts=True)
    return reps.astype(np.int64), mult.astype(np.int64)


class VectorizedReplay:
    """Batched exact replay of every block and step of one plan.

    Produces bit-for-bit the totals of the per-block/per-step loop
    reference (``tests/oracles``) by exploiting two structural
    facts of the generated kernels' addressing:

    * **Separability** — the byte address of a replayed element is
      ``(within-tile term) + (block-offset term) + (step-offset term)``,
      and the out-of-bounds predicate is a per-axis conjunction in which
      each axis depends on the block id *or* the step id, never both.
      All terms are built as flat arrays and combined by broadcasting.
    * **Congruence** — two blocks (or steps) whose offsets keep the same
      per-axis valid tile lengths and the same summed byte offset mod
      128 replay the *same* transaction count: their addresses differ by
      whole 128-byte lines under identical predicates.  Blocks and steps
      are therefore grouped into equivalence classes with one
      :func:`numpy.unique` each (:func:`_offset_classes`), only one
      representative per (block-class, step-class) pair is replayed, and
      its distinct-line count is weighted by the class multiplicities.

    Together these reduce the exact count from "replay every element the
    kernel touches" to "replay one tile per distinct boundary/alignment
    situation", which is what makes ``exact=True`` feasible at full TCCG
    problem sizes.
    """

    def __init__(
        self, plan: KernelPlan,
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ) -> None:
        self.plan = plan
        self.dtype_bytes = plan.dtype_bytes
        self.chunk_elements = max(1, int(chunk_elements))
        contraction = plan.contraction
        self._strides = {
            tensor.name: contraction.strides_of(tensor)
            for tensor in (contraction.a, contraction.b, contraction.c)
        }
        self._block_ids = np.arange(plan.num_blocks, dtype=np.int64)
        self._step_ids = np.arange(plan.num_steps, dtype=np.int64)
        self._block_offsets = _axis_offsets(plan.block_axes, self._block_ids)
        self._step_offsets = _axis_offsets(plan.step_axes, self._step_ids)

    # -- input loads ---------------------------------------------------------

    def load_transactions(self, tensor: TensorRef) -> int:
        """Total staging transactions for ``tensor`` over all blocks/steps."""
        plan = self.plan
        axes = plan.tensor_tile_axes(tensor)
        strides = self._strides[tensor.name]
        n_elems = math.prod(a.tile for a in axes) if axes else 1

        nthreads = plan.threads_per_block
        flats = np.arange(n_elems, dtype=np.int64)
        tid = flats % nthreads
        warp = tid // WARP_SIZE
        n_warps = ceil_div(nthreads, WARP_SIZE)
        issue = (flats // nthreads) * n_warps + warp
        n_issues = ceil_div(n_elems, nthreads) * n_warps

        block_axes = [
            (a.index, a.extent, a.tile, s)
            for a, s in zip(axes, strides)
            if a.index in self._block_offsets
        ]
        step_axes = [
            (a.index, a.extent, a.tile, s)
            for a, s in zip(axes, strides)
            if a.index not in self._block_offsets
        ]
        rep_b, mult_b = _offset_classes(
            self._block_offsets, block_axes, plan.num_blocks,
            self.dtype_bytes,
        )
        rep_s, mult_s = _offset_classes(
            self._step_offsets, step_axes, plan.num_steps, self.dtype_bytes,
        )

        base = np.zeros(n_elems, dtype=np.int64)
        block_addr = np.zeros(rep_b.size, dtype=np.int64)
        step_addr = np.zeros(rep_s.size, dtype=np.int64)
        valid_block = np.ones((rep_b.size, 1), dtype=bool)
        valid_step = np.ones((rep_s.size, 1), dtype=bool)

        rem = flats
        for axis, stride in zip(axes, strides):
            coord = rem % axis.tile
            rem = rem // axis.tile
            base += coord * stride
            if axis.index in self._block_offsets:
                off = self._block_offsets[axis.index][rep_b]
                block_addr += off * stride
                if axis.extent % axis.tile:
                    valid_block = valid_block & (
                        off[:, None] + coord[None, :] < axis.extent
                    )
            else:
                off = self._step_offsets[axis.index][rep_s]
                step_addr += off * stride
                if axis.extent % axis.tile:
                    valid_step = valid_step & (
                        off[:, None] + coord[None, :] < axis.extent
                    )

        weights = mult_b[:, None] * mult_s[None, :]
        return self._count(
            base, issue, n_issues,
            block_addr, valid_block, step_addr, valid_step,
            weights=weights,
        )

    # -- output stores -------------------------------------------------------

    def store_transactions(self) -> int:
        """Total output-store transactions over all blocks."""
        plan = self.plan
        contraction = plan.contraction
        c = contraction.c
        strides = dict(zip(c.indices, self._strides[c.name]))
        extents = {i: contraction.extent(i) for i in c.indices}

        nthreads = plan.threads_per_block
        tid = np.arange(nthreads, dtype=np.int64)
        warp = tid // WARP_SIZE
        n_warps = ceil_div(nthreads, WARP_SIZE)
        n_issues = plan.reg_y * plan.reg_x
        issues = np.arange(n_issues, dtype=np.int64)

        def local_coords(flat: np.ndarray, dim_entries):
            coords = {}
            rem = flat
            for m in dim_entries:
                coords[m.index] = rem % m.tile
                rem = rem // m.tile
            return coords

        config = plan.config
        thread_coords: Dict[str, np.ndarray] = {}
        thread_coords.update(
            local_coords(tid % plan.tb_x, config.by_dim(Dim.TB_X))
        )
        thread_coords.update(
            local_coords(tid // plan.tb_x, config.by_dim(Dim.TB_Y))
        )
        # Issue q stores register element (ry, rx) with rx fastest,
        # matching the loop reference's ``for ry: for rx:`` order.
        issue_coords: Dict[str, np.ndarray] = {}
        issue_coords.update(
            local_coords(issues % plan.reg_x, config.by_dim(Dim.REG_X))
        )
        issue_coords.update(
            local_coords(issues // plan.reg_x, config.by_dim(Dim.REG_Y))
        )

        class_axes = [
            (index, extents[index], plan.tile_of(index), strides[index])
            for index in c.indices
        ]
        rep_b, mult_b = _offset_classes(
            self._block_offsets, class_axes, plan.num_blocks,
            self.dtype_bytes,
        )

        thread_addr = np.zeros(nthreads, dtype=np.int64)
        issue_addr = np.zeros(n_issues, dtype=np.int64)
        block_addr = np.zeros(rep_b.size, dtype=np.int64)
        valid_thread = np.ones((rep_b.size, 1), dtype=bool)
        valid_issue = np.ones((rep_b.size, 1), dtype=bool)

        for index in c.indices:
            stride = strides[index]
            off = self._block_offsets[index][rep_b]
            block_addr += off * stride
            tile = plan.tile_of(index)
            divisible = extents[index] % tile == 0
            if index in thread_coords:
                coord = thread_coords[index]
                thread_addr += coord * stride
                if not divisible:
                    valid_thread = valid_thread & (
                        off[:, None] + coord[None, :] < extents[index]
                    )
            elif index in issue_coords:
                coord = issue_coords[index]
                issue_addr += coord * stride
                if not divisible:
                    valid_issue = valid_issue & (
                        off[:, None] + coord[None, :] < extents[index]
                    )
            # GRID-mapped (tile 1): coord 0, offset always in bounds.

        # Reuse the load-side counter with the roles (step -> issue): the
        # distinct key there is (block, step, issue, line); here issues
        # play the step role and threads the element role, giving
        # distinct (block, issue, warp, line) — the store's transaction
        # identity.  Both store masks depend on the block id, so the
        # issue-bound mask rides in ``valid_block_step``.
        return self._count(
            thread_addr, warp, n_warps,
            block_addr, valid_thread,
            issue_addr, np.ones((n_issues, 1), dtype=bool),
            valid_block_step=valid_issue,
            weights=np.broadcast_to(mult_b[:, None], (rep_b.size, n_issues)),
        )

    # -- totals --------------------------------------------------------------

    def count(self) -> MeasuredTransactions:
        contraction = self.plan.contraction
        return MeasuredTransactions(
            load_a=self.load_transactions(contraction.a),
            load_b=self.load_transactions(contraction.b),
            store_c=self.store_transactions(),
        )

    # -- core counting kernel ------------------------------------------------

    def _count(
        self,
        base: np.ndarray,
        issue: np.ndarray,
        n_issues: int,
        block_addr: np.ndarray,
        valid_block: np.ndarray,
        step_addr: np.ndarray,
        valid_step: np.ndarray,
        valid_block_step: "np.ndarray | None" = None,
        weights: "np.ndarray | None" = None,
    ) -> int:
        """Weighted distinct (block, step, issue, line) count.

        ``base``/``issue`` are per-element (innermost axis), the block
        and step terms broadcast along the two outer axes.  ``valid_*``
        are either ``(N, 1)`` all-true placeholders or full ``(N, E)``
        bound masks; ``valid_block_step`` optionally adds a mask over
        the (block, step) plane (the store path, where the register-tile
        bound depends on the block).  ``weights`` — shape
        ``(num_blocks, num_steps)`` — multiplies each replay's distinct
        count (class multiplicities).  Chunked over blocks: distinctness
        is scoped within one ``(block, step)`` replay, so per-chunk
        counts add up.
        """
        n_elems = base.size
        num_blocks = block_addr.size
        num_steps = step_addr.size
        per_block = num_steps * n_elems
        chunk = max(1, self.chunk_elements // max(per_block, 1))
        dtype_bytes = self.dtype_bytes

        step_ids = np.arange(num_steps, dtype=np.int64)
        total = 0
        for lo in range(0, num_blocks, chunk):
            hi = min(num_blocks, lo + chunk)
            nb = hi - lo
            addr = (
                base[None, None, :]
                + step_addr[None, :, None]
                + block_addr[lo:hi, None, None]
            ) * dtype_bytes
            lines = addr // TRANSACTION_BYTES
            vb = valid_block[lo:hi]
            valid = vb[:, None, :] & valid_step[None, :, :]
            if valid_block_step is not None:
                valid = valid & valid_block_step[lo:hi][:, :, None]
            valid = np.broadcast_to(valid, (nb, num_steps, n_elems))
            if not valid.any():
                continue
            replay = (
                np.arange(nb, dtype=np.int64)[:, None, None] * num_steps
                + step_ids[None, :, None]
            )
            lines_v = lines[valid]
            span = int(lines_v.max()) + 1
            group = (replay * n_issues + issue[None, None, :])[valid]
            uniq = np.unique(group * span + lines_v)
            if weights is None:
                total += int(uniq.size)
                continue
            per_replay = np.bincount(
                uniq // (n_issues * span), minlength=nb * num_steps
            )
            total += int(
                (per_replay.reshape(nb, num_steps)
                 * weights[lo:hi]).sum()
            )
        return total


# -- sampled-mode validity ----------------------------------------------------


def sampled_is_exact(plan: KernelPlan) -> bool:
    """Whether sampling one interior block/step provably matches exact.

    The sampled shortcut replays block 0 / step 0 and scales by the
    block and step counts.  That equals the exact count when every
    replayed block is a congruent copy of block 0, which holds when

    * every tile divides its extent (no predicated-off edge lanes), and
    * every non-trivial block/step offset shifts addresses by a multiple
      of the 128-byte transaction size (tiles whose ``tile * stride *
      dtype_bytes`` is not 128-byte aligned can straddle different line
      counts in different blocks).
    """
    contraction = plan.contraction
    for axes in (plan.block_axes, plan.step_axes):
        for axis in axes:
            if axis.extent % axis.tile:
                return False
    for tensor in (contraction.a, contraction.b, contraction.c):
        strides = contraction.strides_of(tensor)
        for index, stride in zip(tensor.indices, strides):
            tile = plan.tile_of(index)
            if contraction.extent(index) // tile <= 1:
                continue  # single tile: no offset ever applied
            if (tile * stride * plan.dtype_bytes) % TRANSACTION_BYTES:
                return False
    return True


# -- entry points -------------------------------------------------------------


def _count_sampled(plan: KernelPlan) -> MeasuredTransactions:
    """Replay one interior block/step and scale up."""
    counter = TransactionCounter(plan)
    contraction = plan.contraction
    load_a = (
        counter.load_transactions(contraction.a, 0, 0)
        * plan.num_blocks * plan.num_steps
    )
    load_b = (
        counter.load_transactions(contraction.b, 0, 0)
        * plan.num_blocks * plan.num_steps
    )
    store_c = counter.store_transactions(0) * plan.num_blocks
    return MeasuredTransactions(load_a, load_b, store_c)


def count_transactions(
    plan: KernelPlan, exact: Union[bool, str] = False
) -> MeasuredTransactions:
    """Count the kernel's global-memory transactions.

    ``exact`` selects the replay strategy:

    * ``True`` — every block and step is replayed, via the vectorized
      batched-address path (:class:`VectorizedReplay`).
    * ``False`` — a single interior block/step is replayed and scaled by
      the block and step counts; exact only under the conditions of
      :func:`sampled_is_exact`, otherwise typically an over-count.
    * ``"auto"`` — sampled when provably exact, full replay otherwise.
    """
    from .. import obs

    if exact == "auto":
        exact = not sampled_is_exact(plan)
    if exact is not True and exact is not False:
        raise ValueError(
            f"exact must be True, False or 'auto', got {exact!r}"
        )
    mode = "full" if exact else "sampled"
    with obs.span("replay", mode=mode):
        if exact:
            measured = VectorizedReplay(plan).count()
        else:
            measured = _count_sampled(plan)
    obs.inc(f"replay.{mode}")
    obs.inc("replay.transactions", measured.total)
    return measured
