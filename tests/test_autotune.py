"""Tests for the autotuning strategies (repro.autotune)."""

import math

import numpy as np
import pytest

from repro import Cogent, parse
from repro.autotune import (
    ALL_STRATEGIES,
    ConfigSpace,
    Evaluator,
    GeneticSearch,
    HillClimb,
    ModelDriven,
    ModelGuidedStrategy,
    RandomSearch,
    ReplayEvaluator,
    SimulatedAnnealing,
)
from repro.autotune.strategies import (
    FEATURE_NAMES,
    REGIMES,
    contiguity_regime,
    fit_head,
    plan_features,
)
from repro.core.mapping import Dim
from repro.core.plan import KernelPlan
from repro.gpu.arch import VOLTA_V100
from repro.tccg import get


@pytest.fixture
def contraction():
    return parse("abcd-aebf-dfce", 32)


@pytest.fixture
def evaluator(contraction, v100):
    return Evaluator(contraction, v100)


class TestConfigSpace:
    def test_random_configs_are_valid(self, contraction):
        space = ConfigSpace(contraction)
        rng = np.random.default_rng(0)
        for _ in range(30):
            space.random_config(rng).validate_for(contraction)

    def test_grid_tiles_are_one(self, contraction):
        space = ConfigSpace(contraction)
        rng = np.random.default_rng(1)
        for _ in range(30):
            config = space.random_config(rng)
            for m in config.by_dim(Dim.GRID):
                assert m.tile == 1

    def test_mutation_preserves_validity(self, contraction):
        space = ConfigSpace(contraction)
        rng = np.random.default_rng(2)
        config = space.random_config(rng)
        for _ in range(20):
            config = space.mutate(config, rng)
            config.validate_for(contraction)

    def test_crossover_preserves_validity(self, contraction):
        space = ConfigSpace(contraction)
        rng = np.random.default_rng(3)
        a = space.random_config(rng)
        b = space.random_config(rng)
        child = space.crossover(a, b, rng)
        child.validate_for(contraction)

    def test_neighbor_changes_at_most_one_index(self, contraction):
        space = ConfigSpace(contraction)
        rng = np.random.default_rng(4)
        config = space.random_config(rng)
        neighbor = space.neighbor(config, rng)
        changed = [
            m for m, n in zip(config.mappings, neighbor.mappings)
            if (m.dim, m.tile) != (n.dim, n.tile)
        ]
        assert len(changed) <= 1


class TestEvaluator:
    def test_counts_evaluations(self, evaluator, contraction):
        space = ConfigSpace(contraction)
        rng = np.random.default_rng(0)
        for _ in range(5):
            evaluator.fitness(space.random_config(rng))
        assert evaluator.evaluations == 5

    def test_cache_returns_same_value(self, evaluator, contraction):
        space = ConfigSpace(contraction)
        rng = np.random.default_rng(1)
        config = space.random_config(rng)
        assert evaluator.fitness(config) == evaluator.fitness(config)

    def test_infeasible_scores_zero(self, evaluator, contraction):
        from repro.core.mapping import config_from_spec

        config = config_from_spec(
            contraction,
            tb_x=[("a", 32), ("b", 32)], tb_y=[("d", 32)],
        )
        assert evaluator.fitness(config) == 0.0


class TestStrategies:
    @pytest.mark.parametrize("cls", ALL_STRATEGIES,
                             ids=lambda c: c.name)
    def test_respects_budget(self, cls, contraction, v100):
        evaluator = Evaluator(contraction, v100)
        trace = cls(budget=40, seed=0).tune(evaluator)
        assert trace.evaluations == 40

    @pytest.mark.parametrize("cls", ALL_STRATEGIES,
                             ids=lambda c: c.name)
    def test_curve_monotone(self, cls, contraction, v100):
        trace = cls(budget=40, seed=0).tune(Evaluator(contraction, v100))
        assert all(b >= a for a, b in zip(trace.curve, trace.curve[1:]))

    @pytest.mark.parametrize("cls", ALL_STRATEGIES,
                             ids=lambda c: c.name)
    def test_deterministic(self, cls, contraction, v100):
        t1 = cls(budget=30, seed=9).tune(Evaluator(contraction, v100))
        t2 = cls(budget=30, seed=9).tune(Evaluator(contraction, v100))
        assert t1.curve == t2.curve

    def test_finds_something_feasible(self, contraction, v100):
        trace = RandomSearch(budget=80, seed=2).tune(
            Evaluator(contraction, v100)
        )
        assert trace.best_gflops > 0
        assert trace.best_config is not None

    def test_model_driven_beats_search_at_equal_budget(
        self, contraction, v100
    ):
        """The paper's thesis in one assertion."""
        budget = 64
        model = ModelDriven().tune(Evaluator(contraction, v100))
        for cls in ALL_STRATEGIES:
            search = cls(budget=budget, seed=0).tune(
                Evaluator(contraction, v100)
            )
            assert model.best_gflops > search.best_gflops

    def test_evaluations_to_reach(self, contraction, v100):
        trace = SimulatedAnnealing(budget=60, seed=1).tune(
            Evaluator(contraction, v100)
        )
        hit = trace.evaluations_to_reach(trace.best_gflops)
        assert hit is not None
        assert trace.curve[hit - 1] >= trace.best_gflops
        assert trace.evaluations_to_reach(trace.best_gflops * 10) is None


class TestReplayEvaluator:
    def test_positive_fitness_on_ranked_config(self, contraction, v100):
        from repro import Cogent

        config, _cost = Cogent(
            arch="V100", allow_split=False
        ).rank_configs(contraction)[0]
        evaluator = ReplayEvaluator(contraction, v100)
        assert evaluator.fitness(config) > 0

    def test_infeasible_scores_zero(self, contraction, v100):
        from repro.core.mapping import config_from_spec

        config = config_from_spec(
            contraction,
            tb_x=[("a", 32), ("b", 32)], tb_y=[("d", 32)],
        )
        assert ReplayEvaluator(contraction, v100).fitness(config) == 0.0


class TestModelGuided:
    def test_respects_budget(self, contraction, v100):
        strategy = ModelGuidedStrategy(budget=8, shortlist=24)
        trace = strategy.tune(ReplayEvaluator(contraction, v100))
        assert trace.evaluations <= 8
        assert strategy.last_report.measurements == trace.evaluations
        assert strategy.last_report.shortlist <= 24

    def test_deterministic(self, contraction, v100):
        t1 = ModelGuidedStrategy(budget=8, shortlist=24).tune(
            ReplayEvaluator(contraction, v100)
        )
        t2 = ModelGuidedStrategy(budget=8, shortlist=24).tune(
            ReplayEvaluator(contraction, v100)
        )
        assert t1.curve == t2.curve
        assert t1.best_config.describe() == t2.best_config.describe()

    def test_stops_when_predicted_best_stabilizes(self, contraction, v100):
        strategy = ModelGuidedStrategy(budget=64, shortlist=16)
        trace = strategy.tune(ReplayEvaluator(contraction, v100))
        report = strategy.last_report
        # With a generous budget the loop must stop early, either by
        # stabilising or by exhausting the shortlist.
        assert report.stabilized or trace.evaluations == report.shortlist
        assert trace.evaluations < 64

    @staticmethod
    def assert_within_five_percent(contraction, v100):
        """Guided best >= 95% of measuring the whole shortlist."""
        shortlist = 24
        strategy = ModelGuidedStrategy(budget=8, shortlist=shortlist)
        trace = strategy.tune(ReplayEvaluator(contraction, v100))
        assert trace.evaluations <= 8

        generator = Cogent(arch="V100", allow_split=False)
        exhaustive = ReplayEvaluator(contraction, v100)
        best = max(
            exhaustive.fitness(config)
            for config, _cost in generator.rank_configs(
                contraction
            )[:shortlist]
        )
        assert trace.best_gflops >= 0.95 * best

    def test_within_five_percent_of_exhaustive_shortlist(
        self, contraction, v100
    ):
        """The Fig. 8 claim on one contraction, pinned as a test."""
        self.assert_within_five_percent(contraction, v100)

    @pytest.mark.parametrize("name", ["mo_stage1", "sd_t_d2_1"])
    def test_within_five_percent_of_exhaustive_shortlist_tccg(
        self, name, v100
    ):
        """The same claim on the two full-size TCCG entries where the
        deleted offline calibration fell furthest from the best."""
        self.assert_within_five_percent(get(name).contraction(), v100)


def test_fit_head_intercept_only_fallback():
    """Fewer rows than features -> mean-residual intercept, zero rest."""
    features = np.ones((2, len(FEATURE_NAMES)))
    residuals = np.array([0.2, 0.4])
    coeffs = fit_head(features, residuals)
    assert coeffs[0] == pytest.approx(0.3)
    assert all(c == 0.0 for c in coeffs[1:])
    assert fit_head(np.empty((0, len(FEATURE_NAMES))), np.empty(0)) == (
        (0.0,) * len(FEATURE_NAMES)
    )


def test_regime_and_features_match_plan(matmul):
    config, _cost = Cogent(arch="V100", allow_split=False).rank_configs(
        matmul
    )[0]
    plan = KernelPlan(matmul, config, 8)
    assert contiguity_regime(plan) in REGIMES
    features = plan_features(plan, VOLTA_V100)
    assert len(features) == len(FEATURE_NAMES)
    assert features[0] == 1.0
    assert all(math.isfinite(f) for f in features)


class TestApiGuidedTune:
    def test_guided_tune_smoke(self, contraction):
        from repro import api

        result = api.tune(
            contraction, guided=True, budget=6, shortlist=16
        )
        assert result.evaluations <= 6
        assert result.best_gflops > 0
        payload = result.as_dict()
        assert payload["strategy"] == "model-guided"
        assert payload["report"]["measurements"] == result.evaluations

    def test_options_validate_calibration(self):
        """The offline calibration and its option are gone."""
        from repro import api

        with pytest.raises(TypeError, match="calibration"):
            api.Options(calibration="auto")

    def test_cli_tune_rejects_store_dir(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["tune", "ab-ak-kb", "--sizes", "16", "--guided",
                  "--store-dir", "x"])
        assert exc.value.code == 2
        assert "--store-dir" in capsys.readouterr().err
