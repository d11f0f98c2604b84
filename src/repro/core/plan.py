"""Fully-resolved kernel plans.

A :class:`KernelPlan` binds a contraction to a :class:`KernelConfig` and an
element width, and precomputes the geometry shared by the CUDA emitter, the
C-emulation emitter, the numpy executor, the address-trace transaction
counter, and the performance simulator:

* the grid decomposition (one thread block per output tile),
* the serial step decomposition over contraction-index tiles,
* per-tensor tile shapes in each tensor's own storage order,
* shared-memory staging layouts for the two input buffers.

Conventions (matching Algorithm 1 of the paper):

* One thread block is ``TB_x * TB_y`` threads; thread ``x`` is the fast
  dimension (``tid = x + TB_x * y``).
* The staging buffer for the x-side input is laid out
  ``s_a[int_flat][ext_flat]`` with ``ext_flat`` contiguous, where
  ``ext_flat = x + TB_x * rx`` (thread-block part fastest), and
  symmetrically for the y-side input.
* Linearised ids (block id, flattened tile coordinates) always decompose
  fastest-first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .ir import Contraction, TensorRef
from .mapping import Dim, KernelConfig


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class Axis:
    """One index's resolved tiling along some decomposition."""

    index: str
    extent: int
    tile: int

    @property
    def num_tiles(self) -> int:
        return ceil_div(self.extent, self.tile)


def decompose(flat: int, sizes: Sequence[int]) -> Tuple[int, ...]:
    """Decompose a linear id into mixed-radix digits, fastest-first."""
    coords = []
    for size in sizes:
        coords.append(flat % size)
        flat //= size
    return tuple(coords)


def decompose_array(flat, sizes: Sequence[int]) -> Tuple:
    """Vectorized :func:`decompose` over an array of linear ids.

    Works on anything supporting ``%`` and ``//`` element-wise (numpy
    arrays in the columnar search engine); this module stays numpy-free.
    """
    coords = []
    for size in sizes:
        coords.append(flat % size)
        flat = flat // size
    return tuple(coords)


@dataclass(frozen=True)
class KernelPlan:
    """A contraction bound to a configuration and element width."""

    contraction: Contraction
    config: KernelConfig
    dtype_bytes: int = 8

    def __post_init__(self) -> None:
        self.config.validate_for(self.contraction)
        if self.dtype_bytes not in (4, 8):
            raise ValueError("dtype_bytes must be 4 (SP) or 8 (DP)")

    # -- grid / step decomposition -----------------------------------------

    @cached_property
    def block_axes(self) -> Tuple[Axis, ...]:
        """External indices in block-id decomposition order.

        Order: TB_x indices, REG_x, TB_y, REG_y, then GRID — the x-side
        fastest so that consecutive block ids touch nearby output memory.
        """
        order = (Dim.TB_X, Dim.REG_X, Dim.TB_Y, Dim.REG_Y, Dim.GRID)
        axes: List[Axis] = []
        for dim in order:
            for m in self.config.by_dim(dim):
                axes.append(
                    Axis(m.index, self.contraction.extent(m.index), m.tile)
                )
        return tuple(axes)

    @cached_property
    def step_axes(self) -> Tuple[Axis, ...]:
        """Internal indices in step-id decomposition order (TB_k order)."""
        return tuple(
            Axis(m.index, self.contraction.extent(m.index), m.tile)
            for m in self.config.by_dim(Dim.TB_K)
        )

    @property
    def num_blocks(self) -> int:
        return math.prod(a.num_tiles for a in self.block_axes) or 1

    @property
    def num_steps(self) -> int:
        return math.prod(a.num_tiles for a in self.step_axes) or 1

    def block_offsets(self, block_id: int) -> Dict[str, int]:
        """Global offset of every external index for ``block_id``."""
        digits = decompose(block_id, [a.num_tiles for a in self.block_axes])
        return {
            axis.index: digit * axis.tile
            for axis, digit in zip(self.block_axes, digits)
        }

    def step_offsets(self, step_id: int) -> Dict[str, int]:
        """Global offset of every internal index for serial step ``step_id``."""
        digits = decompose(step_id, [a.num_tiles for a in self.step_axes])
        return {
            axis.index: digit * axis.tile
            for axis, digit in zip(self.step_axes, digits)
        }

    # -- per-tensor tiles ---------------------------------------------------

    def tile_of(self, index: str) -> int:
        return self.config.tile(index)

    def tensor_tile_axes(self, tensor: TensorRef) -> Tuple[Axis, ...]:
        """Tile axes of ``tensor`` in its own storage order (FVI first)."""
        return tuple(
            Axis(i, self.contraction.extent(i), self.tile_of(i))
            for i in tensor.indices
        )

    def tile_elements(self, tensor: TensorRef) -> int:
        """Elements in one staged tile of ``tensor`` (per block per step)."""
        return math.prod(a.tile for a in self.tensor_tile_axes(tensor))

    # -- thread geometry -------------------------------------------------------

    @property
    def tb_x(self) -> int:
        return self.config.tb_x_size

    @property
    def tb_y(self) -> int:
        return self.config.tb_y_size

    @property
    def reg_x(self) -> int:
        return self.config.reg_x_size

    @property
    def reg_y(self) -> int:
        return self.config.reg_y_size

    @property
    def threads_per_block(self) -> int:
        return self.config.threads_per_block

    @property
    def tb_k_tile(self) -> int:
        return self.config.tb_k_tile

    # -- shared-memory staging layouts ----------------------------------------

    def smem_ext_order(self, which: str) -> Tuple[str, ...]:
        """External-index order of a staging buffer's ``ext_flat`` axis.

        ``which`` is ``"x"`` or ``"y"``.  The thread-block-mapped indices
        come first (fastest), then the register-mapped indices, matching
        ``ext_flat = x + TB * r``.
        """
        if which == "x":
            dims = (Dim.TB_X, Dim.REG_X)
        elif which == "y":
            dims = (Dim.TB_Y, Dim.REG_Y)
        else:
            raise ValueError("which must be 'x' or 'y'")
        order: List[str] = []
        for dim in dims:
            order.extend(self.config.indices_on(dim))
        return tuple(order)

    @property
    def smem_x_elements(self) -> int:
        """Elements of the x-side staging buffer (s_a)."""
        return self.config.block_tile_x * self.tb_k_tile

    @property
    def smem_y_elements(self) -> int:
        """Elements of the y-side staging buffer (s_b)."""
        return self.config.block_tile_y * self.tb_k_tile

    @property
    def smem_bytes(self) -> int:
        return (self.smem_x_elements + self.smem_y_elements) * self.dtype_bytes

    # -- emitted C entry arguments -------------------------------------------

    @cached_property
    def extent_args(self) -> Tuple[int, ...]:
        """Every index's extent in ``all_indices`` order: the ``int``
        arguments of an emitted C entry after its three pointers."""
        c = self.contraction
        return tuple(c.extent(i) for i in c.all_indices)

    @cached_property
    def runtime_tiled_args(self) -> Tuple[int, ...]:
        """:attr:`extent_args`, then the TB_K tile sizes in step order:
        the ``int`` arguments of the runtime-tiled OpenMP entry."""
        return self.extent_args + tuple(a.tile for a in self.step_axes)

    @cached_property
    def tensor_shapes(self) -> Tuple[Tuple[int, ...], ...]:
        """The shapes of A, B and C, in that order."""
        c = self.contraction
        return tuple(c.extents_of(t) for t in (c.a, c.b, c.c))

    # -- convenience ----------------------------------------------------

    @property
    def x_input(self) -> TensorRef:
        return self.contraction.x_input

    @property
    def y_input(self) -> TensorRef:
        return self.contraction.y_input

    def input_side(self, tensor: TensorRef) -> str:
        """``"x"`` or ``"y"`` depending on which side ``tensor`` feeds."""
        if tensor is self.x_input or tensor.name == self.x_input.name:
            return "x"
        return "y"

    @property
    def flops(self) -> int:
        return self.contraction.flops

    def loads_per_thread(self, tensor: TensorRef) -> int:
        """Staged-load iterations per thread for ``tensor`` (per step)."""
        return ceil_div(self.tile_elements(tensor), self.threads_per_block)

    def staging_vector_width(
        self, tensor: TensorRef, max_vector_bytes: int = 16
    ) -> int:
        """Widest legal vector load for staging ``tensor`` (elements).

        A group of ``V`` consecutive flat tile elements is one aligned,
        contiguous global access exactly when ``V`` divides both the
        tile size and the full extent of the tensor's FVI: every other
        index then contributes address terms that are multiples of the
        FVI extent (hence of ``V``), and a group never crosses the
        FVI-tile boundary.  ``V`` is capped at 16 bytes (``double2`` /
        ``float4``).
        """
        max_elems = max(1, max_vector_bytes // self.dtype_bytes)
        fvi = tensor.fvi
        tile = self.tile_of(fvi)
        extent = self.contraction.extent(fvi)
        width = max_elems
        while width > 1:
            if tile % width == 0 and extent % width == 0:
                return width
            width //= 2
        return 1

    def smem_lane_stride(self, tensor: TensorRef) -> int:
        """Staging-buffer index distance between vector lanes.

        Consecutive flat tile elements advance the tensor's FVI
        coordinate by one; this returns the corresponding step in the
        staging buffer's flat index (the FVI's mixed-radix factor).
        """
        side = self.input_side(tensor)
        fvi = tensor.fvi
        scale = 1
        for index in self.smem_ext_order(side):
            if index == fvi:
                return scale
            scale *= self.tile_of(index)
        ext_size = (
            self.config.block_tile_x if side == "x"
            else self.config.block_tile_y
        )
        scale = ext_size
        for m in self.config.by_dim(Dim.TB_K):
            if m.index == fvi:
                return scale
            scale *= m.tile
        # FVI not staged with a varying coordinate (tile 1): stride 0.
        return 0

    def summary(self) -> str:
        """Multi-line human-readable description of the plan."""
        c = self.contraction
        lines = [
            f"contraction : {c}",
            f"config      : {self.config.describe()}",
            f"threads     : {self.tb_x} x {self.tb_y} "
            f"(= {self.threads_per_block})",
            f"register    : {self.reg_x} x {self.reg_y} per thread",
            f"grid        : {self.num_blocks} blocks, "
            f"{self.num_steps} serial steps",
            f"smem        : {self.smem_bytes} bytes "
            f"({self.smem_x_elements} + {self.smem_y_elements} elements)",
        ]
        return "\n".join(lines)
