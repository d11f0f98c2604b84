"""The per-pair contraction-order DP, run on every network size."""

from __future__ import annotations

from typing import Optional

from repro.core.network import (
    ContractionPath,
    NetworkSpec,
    _emit_steps,
    _optimal_split_object,
    _SubsetTables,
)


def object_optimal_path(
    spec: NetworkSpec, memory_cap: Optional[int] = None
) -> ContractionPath:
    """:func:`repro.core.network.optimal_path` through the per-pair DP.

    ``optimal_path`` runs the vectorized DP whenever the bitmask tables
    fit and the per-pair DP only past that size; this always runs the
    per-pair DP, so the two can be compared on any network.
    """
    tables = _SubsetTables(spec)
    best_split, total, peak = _optimal_split_object(tables, memory_cap)
    return ContractionPath(spec, _emit_steps(tables, best_split), total, peak)
