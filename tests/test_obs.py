"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro import obs
from repro.core.generator import Cogent
from repro.obs.spans import Span, Tracer
from repro.tccg import get


def _generate_traced(search_workers):
    """Run one generation under tracing; return the session."""
    contraction = get("ttm_mode1").contraction()
    with obs.tracing(meta={"command": "test"}) as session:
        Cogent(top_k=4, workers=search_workers).generate(contraction)
    return session


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.session() is None

    def test_span_is_shared_noop_singleton(self):
        # The hot paths call obs.span() per stage; when tracing is off
        # this must not allocate anything.
        assert obs.span("a") is obs.span("b")
        with obs.span("anything"):
            pass

    def test_helpers_are_noops(self):
        obs.inc("x")
        obs.gauge("y", 1.0)
        obs.observe("z", 0.5)
        obs.record("w", 0.1)
        obs.absorb({"name": "worker", "children": []})


class TestSpans:
    def test_aggregation_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("stage"):
                pass
        tracer.close()
        assert tracer.root.children["stage"].count == 3
        assert len(tracer.root.children) == 1

    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.close()
        outer = tracer.root.children["outer"]
        assert "inner" in outer.children
        assert "inner" not in tracer.root.children

    def test_record_normalises_parallel_work(self):
        tracer = Tracer()
        node = tracer.record("pool", 4.0, workers=4)
        assert node.wall_s == pytest.approx(1.0)
        assert node.work_s == pytest.approx(4.0)
        assert node.meta["workers"] == 4

    def test_self_time_telescopes_to_root(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        tracer.close()
        total_self = sum(
            span.self_wall_s for _, span in tracer.root.walk()
        )
        assert total_self == pytest.approx(tracer.root.wall_s, rel=1e-6)

    def test_roundtrip_and_merge(self):
        tracer = Tracer("worker")
        with tracer.span("stage"):
            with tracer.span("sub"):
                pass
        tracer.close()
        payload = tracer.as_dict()
        clone = Span.from_dict(payload)
        assert clone.paths() == tracer.root.paths()

        coordinator = Tracer()
        coordinator.absorb(payload, workers=2)
        stage = coordinator.root.children["stage"]
        assert stage.wall_s == pytest.approx(
            tracer.root.children["stage"].wall_s / 2
        )
        assert stage.work_s == pytest.approx(
            tracer.root.children["stage"].work_s
        )

    def test_merge_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            Span("a").merge(Span("b"))


class TestPipelineTracing:
    def test_pipeline_spans_present(self):
        session = _generate_traced(search_workers=1)
        paths = session.tracer.root.paths()
        assert "run/generate" in paths
        assert "run/generate/search" in paths
        assert "run/generate/search/enumerate" in paths
        assert "run/generate/search/prune" in paths
        assert "run/generate/search/rank" in paths
        assert "run/generate/simulate" in paths

    def test_span_tree_deterministic_across_workers(self):
        serial = _generate_traced(search_workers=1)
        parallel = _generate_traced(search_workers=4)
        assert serial.tracer.root.paths() == parallel.tracer.root.paths()

    def test_counters_deterministic_across_workers(self):
        # Outcome counters must match exactly.  Per-rule check counts
        # (the checker adaptively reorders rules per shard) and memo
        # hit/miss splits (each shard has its own memo) legitimately
        # differ; timings always do.
        def outcomes(session):
            return {
                k: v for k, v in session.metrics.counters.items()
                if k.startswith(("search.", "generate."))
                and not k.endswith("_s")
            }

        serial = _generate_traced(search_workers=1)
        parallel = _generate_traced(search_workers=4)
        assert outcomes(serial) == outcomes(parallel)

    def test_metrics_absorbed(self):
        session = _generate_traced(search_workers=1)
        counters = session.metrics.counters
        assert counters["search.searches"] >= 1
        assert counters["search.configs_checked"] > 0
        assert counters["generate.contractions"] == 1
        assert any(k.startswith("constraints.") for k in counters)

    def test_self_times_near_wall(self):
        # Acceptance criterion: per-stage self-times sum to within 5%
        # of the traced wall time.
        session = _generate_traced(search_workers=1)
        root = session.tracer.root
        total_self = sum(s.self_wall_s for _, s in root.walk())
        assert total_self == pytest.approx(root.wall_s, rel=0.05)


class TestExport:
    def test_payload_schema_valid(self):
        session = _generate_traced(search_workers=1)
        payload = session.payload()
        assert payload["schema"] == obs.SCHEMA
        assert obs.validate_payload(payload) == []

    def test_payload_json_serialisable(self, tmp_path):
        session = _generate_traced(search_workers=1)
        path = tmp_path / "metrics.json"
        session.write_json(path)
        payload = json.loads(path.read_text())
        assert obs.validate_payload(payload) == []

    def test_validator_rejects_bad_payloads(self):
        assert obs.validate_payload({"schema": "nope"}) != []
        assert obs.validate_payload(
            {"schema": obs.SCHEMA, "trace": {"name": "run"},
             "metrics": {"counters": {"x": "NaN-ish"}}}
        ) != []

    def test_flamegraph_text(self):
        session = _generate_traced(search_workers=1)
        text = session.flamegraph()
        assert "generate" in text
        assert "search" in text
        assert "total self-time" in text


class TestSessionNesting:
    def test_inner_session_wins_and_restores(self):
        with obs.tracing() as outer:
            obs.inc("outer.only")
            with obs.tracing() as inner:
                obs.inc("inner.only")
            obs.inc("outer.only")
        assert outer.metrics.counters == {"outer.only": 2}
        assert inner.metrics.counters == {"inner.only": 1}
        assert not obs.enabled()


class TestTraceCommand:
    def test_trace_summarises_payload(self, tmp_path, capsys):
        from repro.cli import main

        session = _generate_traced(search_workers=1)
        path = tmp_path / "m.json"
        session.write_json(path)
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro.obs.v1" in out
        assert "generate" in out
        assert "search.configs_checked" in out

    def test_trace_rejects_invalid(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "wrong"}))
        assert main(["trace", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_metrics_out_flag(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "m.json"
        assert main(["gen", "ab-ak-kb", "--sizes", "32",
                     "--metrics-out", str(path),
                     "-o", str(tmp_path / "k.cu")]) == 0
        payload = json.loads(path.read_text())
        assert obs.validate_payload(payload) == []
        assert payload["meta"]["command"] == "gen"
