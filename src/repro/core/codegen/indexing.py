"""Index-arithmetic fragments shared by the CUDA and C-emulation emitters.

Both backends emit the same kernel schema (paper Algorithm 1); the pieces
that involve strides, mixed-radix decompositions and bounds checks are
built here once, as lists of C statements, so the two backends cannot
drift apart.

Naming conventions used in generated code (for an index named ``a`` and a
tensor named ``A``):

``n_a``      extent of ``a`` (kernel parameter)
``t_a``      tile size of ``a`` (kernel parameter, runtime tiles only)
``st_A_a``   element stride of ``a`` within tensor ``A``
``nt_a``     number of tiles covering ``a``
``boff_a``   this block's global offset along ``a``
``soff_e``   this step's global offset along internal index ``e``

Tile sizes are literals by default.  With ``runtime_tiles=True``
:func:`tile_count_definitions` and :func:`decompose_offsets` spell each
tile as its ``t_<i>`` parameter instead, so one emitted program serves
every tiling of one kernel structure.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple, Union

from ..ir import TensorRef
from ..mapping import Dim
from ..plan import Axis, KernelPlan


def extent_param(index: str) -> str:
    return f"n_{index}"


def stride_var(tensor: str, index: str) -> str:
    return f"st_{tensor}_{index}"


def ntiles_var(index: str) -> str:
    return f"nt_{index}"


def block_offset_var(index: str) -> str:
    return f"boff_{index}"


def step_offset_var(index: str) -> str:
    return f"soff_{index}"


def tile_param(index: str) -> str:
    return f"t_{index}"


def spell_tile(index: str, tile: int, runtime_tiles: bool) -> str:
    """A tile size as emitted: the literal, or its runtime parameter."""
    return tile_param(index) if runtime_tiles else str(tile)


def spell_product(factors: Sequence[Union[int, str]]) -> str:
    """The product of literal and named factors, folded where literal."""
    literal = math.prod(f for f in factors if isinstance(f, int))
    names = [f for f in factors if isinstance(f, str)]
    if not names:
        return str(literal)
    return " * ".join(names if literal == 1 else [str(literal), *names])


def stride_definitions(tensor: TensorRef) -> List[str]:
    """Column-major stride definitions for ``tensor`` (FVI stride 1)."""
    lines: List[str] = []
    acc_terms: List[str] = []
    for index in tensor.indices:
        if acc_terms:
            expr = " * ".join(acc_terms)
        else:
            expr = "1"
        lines.append(
            f"const long {stride_var(tensor.name, index)} = {expr};"
        )
        acc_terms.append(f"(long){extent_param(index)}")
    return lines


def tile_count_definitions(
    axes: Sequence[Axis], runtime_tiles: bool = False
) -> List[str]:
    """``nt_<i> = ceil(n_<i> / T_i)`` for every axis."""
    lines = []
    for a in axes:
        tile = spell_tile(a.index, a.tile, runtime_tiles)
        lines.append(
            f"const int {ntiles_var(a.index)} = "
            f"({extent_param(a.index)} + {tile} - 1) / {tile};"
        )
    return lines


def decompose_offsets(
    source: str, axes: Sequence[Axis], offset_namer, temp: str,
    runtime_tiles: bool = False,
) -> List[str]:
    """Decompose a linear id into per-axis tile offsets, fastest-first."""
    lines = [f"int {temp} = {source};"]
    for i, axis in enumerate(axes):
        off = offset_namer(axis.index)
        tile = spell_tile(axis.index, axis.tile, runtime_tiles)
        if i + 1 < len(axes):
            lines.append(
                f"const int {off} = ({temp} % {ntiles_var(axis.index)})"
                f" * {tile};"
            )
            lines.append(f"{temp} /= {ntiles_var(axis.index)};")
        else:
            lines.append(f"const int {off} = {temp} * {tile};")
    if not axes:
        lines.append(f"(void){temp};")
    return lines


def flatten_expr(
    coords: Dict[str, str], order: Sequence[Tuple[str, Union[int, str]]]
) -> str:
    """Mixed-radix flatten of named coordinates, fastest-first.

    ``order`` is a list of ``(index, radix)`` pairs, each radix a
    literal or a name; ``coords`` maps index names to C expressions for
    the local coordinate.
    """
    if not order:
        return "0"
    expr = ""
    radices: List[Union[int, str]] = []
    for index, radix in order:
        term = coords[index]
        scale = spell_product(radices)
        if scale == "1":
            expr = term
        else:
            expr = f"{expr} + {scale} * ({term})"
        radices.append(radix)
    return expr


class TileLoadFragment:
    """Per-element body of a staged input load, for tile element ``l``.

    Decomposes ``l`` in the tensor's storage order, computes the global
    address, the bounds predicate, and the staging-buffer address.
    """

    def __init__(self, plan: KernelPlan, tensor: TensorRef) -> None:
        self.plan = plan
        self.tensor = tensor
        self.side = plan.input_side(tensor)

    def body(self, flat_var: str = "l") -> Tuple[List[str], str, str, str]:
        """Return (statements, global_addr_expr, bounds_expr, smem_idx).

        The statements declare local coordinates ``lc_<i>`` for every
        tensor index; the returned expressions reference them.
        """
        plan = self.plan
        tensor = self.tensor
        axes = plan.tensor_tile_axes(tensor)
        lines: List[str] = [f"int rem_ = {flat_var};"]
        coords: Dict[str, str] = {}
        for i, axis in enumerate(axes):
            cvar = f"lc_{axis.index}"
            coords[axis.index] = cvar
            lines.append(f"const int {cvar} = rem_ % {axis.tile};")
            if i + 1 < len(axes):
                lines.append(f"rem_ /= {axis.tile};")
        lines.append("(void)rem_;")
        lines += [self.global_coord_decl(axis.index, coords[axis.index])
                  for axis in axes]
        addr, bounds = self.address_and_bounds()
        return lines, addr, bounds, self.smem_index_expr(coords)

    def global_coord_decl(self, index: str, coord: str) -> str:
        """Declare ``g_<index>``: the tile's offset plus ``coord``."""
        if any(a.index == index for a in self.plan.block_axes):
            offset = block_offset_var(index)
        else:
            offset = step_offset_var(index)
        return f"const int g_{index} = {offset} + {coord};"

    def address_and_bounds(self) -> Tuple[str, str]:
        """Global address and bounds predicate over the ``g_<i>`` coords.

        Bounds checks are always emitted; the compiler removes them when
        extents are compile-time known.
        """
        addr_terms: List[str] = []
        bound_terms: List[str] = []
        for index in self.tensor.indices:
            gvar = f"g_{index}"
            addr_terms.append(
                f"(long){gvar} * {stride_var(self.tensor.name, index)}"
            )
            bound_terms.append(f"({gvar} < {extent_param(index)})")
        addr = " + ".join(addr_terms) if addr_terms else "0"
        bounds = " && ".join(bound_terms) if bound_terms else "1"
        return addr, bounds

    def smem_index_expr(self, coords: Dict[str, str]) -> str:
        """Staging-buffer flat index ``int_flat * EXT + ext_flat``."""
        plan = self.plan
        ext_order = [
            (index, plan.tile_of(index))
            for index in plan.smem_ext_order(self.side)
        ]
        int_order = [
            (m.index, m.tile) for m in plan.config.by_dim(Dim.TB_K)
        ]
        # GRID-mapped externals of this tensor have tile 1 => coord "0";
        # they do not participate in the staging layout.
        ext_coords = {idx: coords.get(idx, "0") for idx, _ in ext_order}
        int_coords = {idx: coords.get(idx, "0") for idx, _ in int_order}
        ext_flat = flatten_expr(ext_coords, ext_order)
        int_flat = flatten_expr(int_coords, int_order)
        if int_flat == "0":
            return f"({ext_flat})"
        config = plan.config
        block_tile = (
            config.block_tile_x if self.side == "x" else config.block_tile_y
        )
        return f"({int_flat}) * {block_tile} + ({ext_flat})"


class StoreFragment:
    """Per-register-element output store addressing."""

    def __init__(self, plan: KernelPlan) -> None:
        self.plan = plan

    def thread_coord_decls(
        self, tx_var: str = "tx_", ty_var: str = "ty_"
    ) -> Tuple[List[str], Dict[str, str]]:
        """Declare per-index coordinates carried by thread x/y position."""
        x_lines, x_coords = self.dim_coord_decls(Dim.TB_X, tx_var)
        y_lines, y_coords = self.dim_coord_decls(Dim.TB_Y, ty_var)
        return x_lines + y_lines, {**x_coords, **y_coords}

    def reg_coord_decls(
        self, rx_var: str, ry_var: str
    ) -> Tuple[List[str], Dict[str, str]]:
        """Declare per-index coordinates carried by register position."""
        x_lines, x_coords = self.dim_coord_decls(Dim.REG_X, rx_var)
        y_lines, y_coords = self.dim_coord_decls(Dim.REG_Y, ry_var)
        return x_lines + y_lines, {**x_coords, **y_coords}

    def dim_coord_decls(
        self, dim: Dim, source: str
    ) -> Tuple[List[str], Dict[str, str]]:
        """Decompose ``source`` into the coordinates of ``dim``'s indices.

        Thread dimensions name their coordinates ``tc_<i>``, register
        dimensions ``rc_<i>``.
        """
        prefix = "tc_" if dim in (Dim.TB_X, Dim.TB_Y) else "rc_"
        entries = self.plan.config.by_dim(dim)
        rem = f"rem{source}"
        lines = [f"int {rem} = {source};"]
        coords: Dict[str, str] = {}
        for i, m in enumerate(entries):
            cvar = f"{prefix}{m.index}"
            coords[m.index] = cvar
            lines.append(f"const int {cvar} = {rem} % {m.tile};")
            if i + 1 < len(entries):
                lines.append(f"{rem} /= {m.tile};")
        lines.append(f"(void){rem};")
        return lines, coords

    def address_and_bounds(
        self, coords: Dict[str, str]
    ) -> Tuple[List[str], str, str]:
        """Global C address + bounds from combined coordinates."""
        plan = self.plan
        c = plan.contraction.c
        lines: List[str] = []
        addr_terms: List[str] = []
        bound_terms: List[str] = []
        for index in c.indices:
            local = coords.get(index, "0")
            gvar = f"gc_{index}"
            lines.append(
                f"const int {gvar} = {block_offset_var(index)} + {local};"
            )
            addr_terms.append(
                f"(long){gvar} * {stride_var(c.name, index)}"
            )
            bound_terms.append(f"({gvar} < {extent_param(index)})")
        addr = " + ".join(addr_terms) if addr_terms else "0"
        bounds = " && ".join(bound_terms) if bound_terms else "1"
        return lines, addr, bounds


def indent(lines: Sequence[str], level: int) -> List[str]:
    pad = "    " * level
    return [pad + line if line else line for line in lines]
