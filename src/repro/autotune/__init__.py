"""Empirical autotuning strategies over the raw configuration space,
plus the model-driven approaches in the same interface (paper Section
VI: model-driven selection complements search-based optimisation, and
Fig. 8's model-guided loop needs only a handful of measurements)."""

from .base import Evaluator, ReplayEvaluator, Tuner, TuneTrace
from .space import ConfigSpace, TILE_CHOICES
from .strategies import (
    ALL_STRATEGIES,
    GeneticSearch,
    GuidedReport,
    GuidedTuneResult,
    HillClimb,
    ModelDriven,
    ModelGuidedStrategy,
    RandomSearch,
    SimulatedAnnealing,
)

__all__ = [
    "ALL_STRATEGIES",
    "ConfigSpace",
    "Evaluator",
    "GeneticSearch",
    "GuidedReport",
    "GuidedTuneResult",
    "HillClimb",
    "ModelDriven",
    "ModelGuidedStrategy",
    "RandomSearch",
    "ReplayEvaluator",
    "SimulatedAnnealing",
    "TILE_CHOICES",
    "Tuner",
    "TuneTrace",
]
