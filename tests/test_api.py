"""Tests for the blessed high-level API (repro.api)."""

import dataclasses
import warnings

import pytest

from repro import api, obs
from repro.core.generator import Cogent
from repro.evaluation.runner import SuiteRunner
from repro.tccg import get


class TestOptions:
    def test_defaults(self):
        opts = api.Options()
        assert opts.workers == 1
        assert opts.top_k == 64
        assert opts.store_dir is None
        assert opts.arch == "V100"
        assert opts.dtype == "double"
        assert opts.trace is False

    def test_one_directory_field(self):
        """``store_dir`` is the one persistent directory knob."""
        names = [f.name for f in dataclasses.fields(api.Options)]
        assert len(names) == 9
        assert [n for n in names if n.endswith("_dir")] == ["store_dir"]

    def test_frozen(self):
        opts = api.Options()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.workers = 4

    def test_round_trip(self):
        opts = api.Options(workers=4, top_k=8, store_dir="/tmp/c",
                           arch="P100", dtype="single", trace=True)
        clone = api.Options(**dataclasses.asdict(opts))
        assert clone == opts

    def test_dtype_bytes(self):
        assert api.Options().dtype_bytes == 8
        assert api.Options(dtype="single").dtype_bytes == 4

    def test_evolve(self):
        opts = api.Options()
        changed = opts.evolve(workers=3)
        assert changed.workers == 3
        assert opts.workers == 1
        assert changed.top_k == opts.top_k

    @pytest.mark.parametrize("bad", [
        {"workers": 0},
        {"top_k": 0},
        {"dtype": "half"},
        {"arch": "K80"},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            api.Options(**bad)


class TestDeprecationShims:
    """The shims are gone: the plain keyword spellings run without any
    DeprecationWarning."""

    def test_cogent_default_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Cogent()

    def test_internal_paths_do_not_warn(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Cogent(workers=2)
            runner = SuiteRunner(store_dir=tmp_path / "store")
            runner.compare([get("ttm_mode1")], ("talsh",), workers=1)
            api.compile("ab-ak-kb", 16, options=api.Options(top_k=2))


class TestFacade:
    def test_compile_expression(self):
        kernel = api.compile("ab-ak-kb", 32,
                             options=api.Options(top_k=2))
        assert kernel.config is not None
        assert "__global__" in kernel.source("cuda")

    def test_compile_store_dir_warm_call_searches_nothing(self, tmp_path):
        opts = api.Options(top_k=2, store_dir=tmp_path / "store")
        cold = api.compile("ab-ak-kb", 32, options=opts)
        with obs.tracing() as session:
            warm = api.compile("ab-ak-kb", 32, options=opts)
        assert session.metrics.counter("program.searches") == 0
        assert session.metrics.counter("store.hits") == 1
        assert warm.config.describe() == cold.config.describe()
        assert warm.source("cuda") == cold.source("cuda")

    @pytest.mark.parametrize("expr, size", [
        ("ab-ak-kb", 64), ("abcd-aebf-dfce", 24), ("abc-ak-kbc", 32),
    ])
    def test_compile_matches_generate(self, expr, size):
        kernel = api.compile(expr, size, options=api.Options(top_k=4))
        direct = Cogent(top_k=4).generate(expr, size)
        assert kernel.config.describe() == direct.config.describe()
        assert kernel.cost == direct.cost
        assert kernel.source("cuda") == direct.source("cuda")

    def test_rank(self):
        ranked = api.rank("ab-ak-kb", 64)
        assert len(ranked) > 0
        config, cost = ranked[0]
        assert cost > 0
        assert min(cost for _, cost in ranked) == cost

    def test_evaluate(self, tmp_path):
        rows = api.evaluate(
            [get("ttm_mode1")], ("talsh", "tc_untuned"),
            options=api.Options(store_dir=tmp_path / "store"),
        )
        assert len(rows) == 1
        assert rows[0].gflops("talsh") > 0
        # Second run replays from the cache.
        rows2 = api.evaluate(
            [get("ttm_mode1")], ("talsh", "tc_untuned"),
            options=api.Options(store_dir=tmp_path / "store"),
        )
        assert rows2[0].results["talsh"].cached
        assert rows2[0].gflops("talsh") == rows[0].gflops("talsh")

    def test_tune(self):
        result = api.tune("ab-ak-kb", 64, population=4, generations=2)
        assert result.evaluations == 8
        assert result.best_gflops > 0

    def test_trace_option_exports_payload(self):
        from repro import obs

        opts = api.Options(top_k=2, trace=True)
        api.compile("ab-ak-kb", 16, options=opts)
        payload = api.last_trace()
        assert payload is not None
        assert obs.validate_payload(payload) == []
        assert payload["meta"]["command"] == "compile"

    def test_root_exports(self):
        import repro

        assert repro.compile is api.compile
        assert repro.rank is api.rank
        assert repro.evaluate is api.evaluate
        assert repro.tune is api.tune
        assert repro.Options is api.Options
