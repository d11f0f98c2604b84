"""Differential-testing oracles: slow, direct reimplementations.

Each oracle computes, the straightforward way, what a fast path in
``repro`` computes: the per-plan configuration search
(:func:`object_search`, against the columnar search), the per-pair
contraction-order DP (:func:`object_optimal_path`, against the
vectorized DP), the per-block/per-step transaction replay
(:func:`count_transactions_reference`, against the vectorized replay)
and the per-block/per-step tile interpreter
(:func:`tile_loop_interpret`, against the per-step interpreter).
Tests and benchmarks import them from here; no ``repro`` code path
runs them.  Import with the repository root on ``sys.path``
(``python -m pytest`` from the root does this).
"""

from .interpreter import tile_loop_interpret
from .paths import object_optimal_path
from .replay import count_transactions_reference
from .search import AdaptiveChecker, object_search

__all__ = [
    "AdaptiveChecker",
    "count_transactions_reference",
    "object_optimal_path",
    "object_search",
    "tile_loop_interpret",
]
