"""Intermediate representation for tensor contractions.

A tensor contraction ``C[ext] = A[...] * B[...]`` (Einstein convention) is
represented by :class:`Contraction`.  The IR captures the one structural
property COGENT exploits (paper, Section II): every loop index occurs in
exactly two of the three tensors, so each index is a *reuse direction* for
exactly one tensor — the tensor it does not appear in.

Index-order convention: the *leftmost* index of a tensor is its fastest
varying index (FVI), i.e. tensors are stored column-major, matching the
quantum-chemistry convention the paper uses ("``T_a`` elements are
contiguous in global memory because ``a`` is the fastest varying index in
``A[a,e,b,f]``").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple


class IndexKind(Enum):
    """Role of a loop index in a contraction."""

    EXTERNAL = "external"  # appears in the output and one input
    INTERNAL = "internal"  # contraction index: appears in both inputs only


class ContractionError(ValueError):
    """Raised for structurally invalid contraction expressions."""


@dataclass(frozen=True)
class TensorRef:
    """A named tensor with an ordered list of index names.

    ``indices[0]`` is the fastest varying index (FVI); ``indices[-1]`` is
    the slowest varying index (SVI).
    """

    name: str
    indices: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ContractionError("tensor name must be non-empty")
        if not self.indices:
            raise ContractionError(f"tensor {self.name!r} has no indices")
        if len(set(self.indices)) != len(self.indices):
            raise ContractionError(
                f"tensor {self.name!r} repeats an index: {self.indices}"
            )

    @property
    def fvi(self) -> str:
        """The fastest varying index (leftmost)."""
        return self.indices[0]

    @property
    def svi(self) -> str:
        """The slowest varying index (rightmost)."""
        return self.indices[-1]

    @property
    def ndim(self) -> int:
        return len(self.indices)

    def position(self, index: str) -> int:
        """Return the position of ``index`` in this tensor."""
        try:
            return self.indices.index(index)
        except ValueError:
            raise ContractionError(
                f"index {index!r} does not appear in tensor {self.name!r}"
            ) from None

    def __contains__(self, index: str) -> bool:
        return index in self.indices

    def __str__(self) -> str:
        return f"{self.name}[{','.join(self.indices)}]"


def column_major_strides(extents: Sequence[int]) -> Tuple[int, ...]:
    """Strides for a column-major layout (first dimension fastest)."""
    strides: List[int] = []
    acc = 1
    for extent in extents:
        strides.append(acc)
        acc *= extent
    return tuple(strides)


@dataclass(frozen=True)
class Contraction:
    """A binary tensor contraction ``C = A * B`` with bound index extents.

    Parameters
    ----------
    c, a, b:
        Tensor references for the output and the two inputs.
    sizes:
        Representative extent for every index name.  Used for performance
        modelling; generated code remains correct for other extents.
    """

    c: TensorRef
    a: TensorRef
    b: TensorRef
    sizes: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._validate_structure()
        self._validate_sizes()

    # -- validation ---------------------------------------------------

    def _validate_structure(self) -> None:
        c_set, a_set, b_set = (
            set(self.c.indices),
            set(self.a.indices),
            set(self.b.indices),
        )
        all_indices = c_set | a_set | b_set
        for idx in sorted(all_indices):
            count = (idx in c_set) + (idx in a_set) + (idx in b_set)
            if count != 2:
                raise ContractionError(
                    f"index {idx!r} appears in {count} tensors; a valid "
                    "contraction index appears in exactly two"
                )
        if c_set != (a_set & c_set) | (b_set & c_set):
            raise ContractionError("output indices must come from the inputs")
        if not (a_set & b_set):
            # A pure outer product has no contraction index.  The paper's
            # schema still applies (TB_k degenerates to a single step), so
            # we allow it but it is unusual enough to flag in validation of
            # callers; nothing to do here.
            pass

    def _validate_sizes(self) -> None:
        for idx in self.all_indices:
            extent = self.sizes.get(idx)
            if extent is None:
                raise ContractionError(f"no extent given for index {idx!r}")
            if not isinstance(extent, int) or extent < 1:
                raise ContractionError(
                    f"extent of index {idx!r} must be a positive int, "
                    f"got {extent!r}"
                )

    # -- index classification ------------------------------------------

    @property
    def all_indices(self) -> Tuple[str, ...]:
        """All distinct indices: output order first, then internals."""
        return self.c.indices + self.internal_indices

    @property
    def external_indices(self) -> Tuple[str, ...]:
        """Indices that appear in the output (in output order)."""
        return self.c.indices

    @property
    def internal_indices(self) -> Tuple[str, ...]:
        """Contraction indices, in the order they appear in input A."""
        c_set = set(self.c.indices)
        return tuple(i for i in self.a.indices if i not in c_set)

    def kind(self, index: str) -> IndexKind:
        """Classify ``index`` as external or internal."""
        if index in self.c:
            return IndexKind.EXTERNAL
        if index in self.a and index in self.b:
            return IndexKind.INTERNAL
        raise ContractionError(f"unknown index {index!r}")

    def reuse_tensor(self, index: str) -> str:
        """Name of the tensor for which ``index`` is a reuse direction.

        Every index appears in exactly two tensors, so iterating it
        re-reads the same elements of the third tensor (paper, Section II).
        """
        kind = self.kind(index)
        if kind is IndexKind.INTERNAL:
            return self.c.name
        return self.b.name if index in self.a else self.a.name

    def reuse_groups(self) -> Dict[str, Tuple[str, ...]]:
        """Partition all indices into the three reuse groups.

        Returns a map ``tensor name -> indices that are reuse directions
        for that tensor``.
        """
        groups: Dict[str, List[str]] = {
            self.a.name: [],
            self.b.name: [],
            self.c.name: [],
        }
        for idx in self.all_indices:
            groups[self.reuse_tensor(idx)].append(idx)
        return {name: tuple(idxs) for name, idxs in groups.items()}

    def externals_of(self, tensor: TensorRef) -> Tuple[str, ...]:
        """External indices appearing in ``tensor``, in tensor order."""
        c_set = set(self.c.indices)
        return tuple(i for i in tensor.indices if i in c_set)

    # -- input orientation ----------------------------------------------

    @property
    def x_input(self) -> TensorRef:
        """The input tensor that contains the output's FVI.

        Algorithm 2 assumes "A" holds the output FVI; its external indices
        feed the ``TB_x``/``REG_x`` mappings.  If (degenerately) both
        inputs contain it, prefer ``a``.
        """
        fvi = self.c.fvi
        return self.a if fvi in self.a else self.b

    @property
    def y_input(self) -> TensorRef:
        """The other input tensor; feeds ``TB_y``/``REG_y`` mappings."""
        return self.b if self.x_input is self.a else self.a

    # -- geometry --------------------------------------------------------

    def extent(self, index: str) -> int:
        """Representative extent of ``index``."""
        return self.sizes[index]

    def extents_of(self, tensor: TensorRef) -> Tuple[int, ...]:
        return tuple(self.sizes[i] for i in tensor.indices)

    def strides_of(self, tensor: TensorRef) -> Tuple[int, ...]:
        """Column-major element strides of ``tensor``."""
        return column_major_strides(self.extents_of(tensor))

    def num_elements(self, tensor: TensorRef) -> int:
        return math.prod(self.extents_of(tensor))

    @property
    def flops(self) -> int:
        """Total floating point operations (one multiply + one add each)."""
        return 2 * math.prod(self.sizes[i] for i in self.all_indices)

    @property
    def iteration_space(self) -> int:
        """Number of points in the full contraction iteration space."""
        return math.prod(self.sizes[i] for i in self.all_indices)

    def arithmetic_intensity(self, dtype_bytes: int = 8) -> float:
        """FLOPs per byte assuming each tensor is touched exactly once."""
        moved = dtype_bytes * (
            self.num_elements(self.a)
            + self.num_elements(self.b)
            + self.num_elements(self.c)
        )
        return self.flops / moved

    # -- misc -------------------------------------------------------------

    def with_sizes(self, sizes: Mapping[str, int]) -> "Contraction":
        """A copy of this contraction bound to different extents."""
        return Contraction(self.c, self.a, self.b, dict(sizes))

    def operand_sizes(self, a, b) -> Dict[str, int]:
        """Index extents read off the shapes of operands ``a``/``b``."""
        return operand_extents(
            (t.name, t.indices, x) for t, x in ((self.a, a), (self.b, b))
        )

    def einsum_spec(self) -> str:
        """The numpy.einsum subscript string for this contraction.

        Index names are compressed to single letters.  numpy.einsum is
        row-major over the *subscript order*, which is layout-agnostic:
        we keep tensor index order as written.
        """
        return einsum_subscripts(
            self.a.indices, self.b.indices, self.c.indices
        )

    def __str__(self) -> str:
        return f"{self.c} = {self.a} * {self.b}"


def einsum_subscripts(
    a_indices: Sequence[str],
    b_indices: Sequence[str],
    c_indices: Sequence[str],
) -> str:
    """``A,B->C`` einsum subscripts with index names compressed to
    single letters (shared by :class:`Contraction` and the batched
    extension, which einsum handles identically)."""
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    names = sorted({*a_indices, *b_indices, *c_indices})
    if len(names) > len(alphabet):
        raise ContractionError("too many distinct indices for einsum")
    short = {name: alphabet[i] for i, name in enumerate(names)}
    a_sub = "".join(short[i] for i in a_indices)
    b_sub = "".join(short[i] for i in b_indices)
    c_sub = "".join(short[i] for i in c_indices)
    return f"{a_sub},{b_sub}->{c_sub}"


def operand_extents(
    operands: Iterable[Tuple[str, Sequence[str], Any]],
) -> Dict[str, int]:
    """Index extents read off array shapes.

    ``operands`` yields ``(name, indices, array)`` triples.  Raises
    :class:`ValueError` when an array's rank is not its index count or
    when two axes bind one index to different extents.
    """
    sizes: Dict[str, int] = {}
    for name, indices, array in operands:
        if array.ndim != len(indices):
            raise ValueError(
                f"operand {name} has {array.ndim} axes, expected "
                f"{len(indices)}"
            )
        for index, extent in zip(indices, array.shape):
            if sizes.setdefault(index, extent) != extent:
                raise ValueError(
                    f"inconsistent extent for index {index!r}: "
                    f"{sizes[index]} vs {extent}"
                )
    return sizes


def make_contraction(
    c_indices: Iterable[str],
    a_indices: Iterable[str],
    b_indices: Iterable[str],
    sizes: Mapping[str, int],
    names: Tuple[str, str, str] = ("C", "A", "B"),
) -> Contraction:
    """Convenience constructor from plain index name sequences."""
    c_name, a_name, b_name = names
    return Contraction(
        c=TensorRef(c_name, tuple(c_indices)),
        a=TensorRef(a_name, tuple(a_indices)),
        b=TensorRef(b_name, tuple(b_indices)),
        sizes=dict(sizes),
    )
