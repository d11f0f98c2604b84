"""Tests for the staged whole-network compilation pipeline
(repro.core.pipeline): DAG construction, level scheduling, liveness
memory planning, the dedup/codegen stages, level-parallel execution,
and the api/CLI wiring."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Cogent, api, obs
from repro.core.ir import ContractionError
from repro.core.network import optimal_path, parse_network
from repro.core.parser import parse_compact
from repro.core.pipeline import (
    CompiledNetwork,
    ContractionDAG,
    NetworkPipeline,
    compute_schedule,
    contract_network,
    plan_memory,
)
from repro.core.program import CompilationSession

from .oracles import object_optimal_path


@pytest.fixture(scope="module")
def gen():
    return Cogent(arch="V100", top_k=2)


@pytest.fixture(scope="module")
def chain_net(gen):
    pipeline = NetworkPipeline(gen)
    return pipeline.compile(
        "ab,bc,cd,de->ae",
        {"a": 16, "b": 512, "c": 8, "d": 256, "e": 16},
    )


CHAIN6 = "ab,bc,cd,de,ef,fg->ag"
CHAIN6_SIZES = {"a": 128, "b": 16, "c": 32, "d": 64, "e": 128,
                "f": 256, "g": 2}


class TestContractionDAG:
    def test_from_path_nodes_and_steps(self):
        spec = parse_network("ab,bc,cd->ad", 8)
        dag = ContractionDAG.from_path(optimal_path(spec))
        assert len(dag.inputs) == 3
        assert len(dag.steps) == 2
        assert len(dag.outputs) == 1
        assert dag.outputs[0].id == dag.steps[-1].result

    def test_from_path_elements(self):
        spec = parse_network(
            "ab,bc->ac", {"a": 3, "b": 5, "c": 7}
        )
        dag = ContractionDAG.from_path(optimal_path(spec))
        by_id = {n.id: n for n in dag.nodes}
        assert by_id[0].elements == 15
        assert by_id[1].elements == 35
        assert by_id[2].elements == 21


class TestSchedule:
    def test_balanced_chain_two_levels(self):
        # (0,1) and (2,3) are independent; the final join waits.
        spec = parse_network(
            "ab,bc,cd,de->ae",
            {"a": 16, "b": 512, "c": 8, "d": 256, "e": 16},
        )
        schedule = compute_schedule(
            ContractionDAG.from_path(optimal_path(spec))
        )
        assert schedule.depth == 2
        assert len(schedule.levels[0]) == 2
        assert len(schedule.levels[1]) == 1
        assert schedule.width == 2

    def test_sequential_chain_depth_equals_steps(self):
        spec = parse_network(CHAIN6, CHAIN6_SIZES)
        path = optimal_path(spec)
        schedule = compute_schedule(ContractionDAG.from_path(path))
        assert schedule.depth == len(path.steps)
        assert schedule.width == 1

    def test_output_never_freed(self):
        spec = parse_network("ab,bc,cd->ad", 8)
        dag = ContractionDAG.from_path(optimal_path(spec))
        schedule = compute_schedule(dag)
        out = dag.outputs[0].id
        assert schedule.last_use[out] > schedule.depth


class TestMemoryPlan:
    def _plan(self, expr, sizes, dtype_bytes=8):
        spec = parse_network(expr, sizes)
        dag = ContractionDAG.from_path(optimal_path(spec))
        schedule = compute_schedule(dag)
        return dag, schedule, plan_memory(
            dag, schedule, dtype_bytes=dtype_bytes
        )

    def test_sequential_chain_reuses_buffers(self):
        dag, schedule, plan = self._plan(CHAIN6, CHAIN6_SIZES)
        assert plan.planned_peak_bytes < plan.naive_peak_bytes
        assert len(plan.buffer_bytes) < len(dag.intermediates)
        assert plan.reduction > 1.0

    def test_planned_never_exceeds_naive(self):
        for expr, sizes in [
            ("ab,bc,cd->ad", 8),
            (CHAIN6, CHAIN6_SIZES),
            ("abc,ai,bj,ck->ijk",
             {"a": 6, "b": 7, "c": 8, "i": 3, "j": 4, "k": 5}),
        ]:
            _, _, plan = self._plan(expr, sizes)
            assert plan.planned_peak_bytes <= plan.naive_peak_bytes

    def test_outputs_excluded(self):
        # A 2-step network has one intermediate; the output is not in
        # the arena.
        dag, _, plan = self._plan(
            "ab,bc,cd->ad", {"a": 4, "b": 8, "c": 8, "d": 4}
        )
        assert len(plan.buffer_bytes) == 1
        assert plan.planned_peak_bytes == 4 * 8 * 8  # a*c elements * 8B

    def test_dtype_bytes_scales_plan(self):
        _, _, plan8 = self._plan("ab,bc,cd->ad", 8, dtype_bytes=8)
        _, _, plan4 = self._plan("ab,bc,cd->ad", 8, dtype_bytes=4)
        assert plan8.planned_peak_bytes == 2 * plan4.planned_peak_bytes

    def test_live_operands_not_recycled(self):
        # Every intermediate's buffer must not be shared with another
        # intermediate whose lifetime overlaps.
        dag, schedule, plan = self._plan(CHAIN6, CHAIN6_SIZES)
        produced_level = schedule.node_level
        for node_a in dag.intermediates:
            for node_b in dag.intermediates:
                if node_a.id >= node_b.id:
                    continue
                if (plan.assignments[node_a.id]
                        != plan.assignments[node_b.id]):
                    continue
                # Same buffer: lifetimes [produced, last_use] must be
                # disjoint.
                a0, a1 = (produced_level[node_a.id],
                          schedule.last_use[node_a.id])
                b0, b1 = (produced_level[node_b.id],
                          schedule.last_use[node_b.id])
                assert a1 < b0 or b1 < a0


class TestPipelineStages:
    def test_all_stages_ran(self, chain_net):
        assert list(chain_net.stage_wall) == [
            "parse", "path", "schedule", "memory", "dedup", "codegen",
        ]
        assert all(w >= 0 for w in chain_net.stage_wall.values())

    def test_planned_peak_recorded_on_path(self, chain_net):
        assert (
            chain_net.path.planned_peak_bytes
            == chain_net.memory_plan.planned_peak_bytes
        )

    def test_execute_matches_reference(self, chain_net):
        rng = np.random.default_rng(0)
        sizes = chain_net.spec.sizes
        ops = [
            rng.random(tuple(sizes[i] for i in t))
            for t in chain_net.spec.inputs
        ]
        assert np.allclose(
            chain_net.execute(*ops), chain_net.reference(*ops)
        )

    def test_as_dict_payload(self, chain_net):
        payload = chain_net.as_dict()
        assert payload["steps"] == 3
        assert payload["levels"] == 2
        assert payload["planned_peak_bytes"] >= 0
        assert payload["program"]["contractions"] == 3
        json.dumps(payload)  # JSON-serialisable

    def test_contract_network_runs_every_stage(self, gen):
        rng = np.random.default_rng(3)
        ops = [rng.random((4, 5)), rng.random((5, 6)), rng.random((6, 3))]
        with obs.tracing() as session:
            got = contract_network("ab,bc,cd->ad", *ops, generator=gen)
        paths = session.tracer.root.paths()
        for name in ("parse", "path", "schedule", "memory", "dedup",
                     "codegen"):
            assert any(
                p.endswith(f"network.pipeline/network.{name}")
                for p in paths
            ), name
        assert np.allclose(got, ops[0] @ ops[1] @ ops[2])

    def test_kernels_built_once(self, chain_net):
        assert chain_net.kernels is chain_net.kernels
        assert len(chain_net.kernels) == len(chain_net.dag.steps)

    def test_spec_input_accepted(self, gen):
        spec = parse_network("ab,bc->ac", 8)
        net = NetworkPipeline(gen).compile(spec)
        assert net.spec is spec

    def test_memory_cap_flows_through(self, gen):
        pipeline = NetworkPipeline(gen, memory_cap=99)
        net = pipeline.compile(
            "ab,bc,cd->ad", {"a": 2, "b": 33, "c": 50, "d": 3}
        )
        assert net.path.peak_intermediate == 99
        with pytest.raises(ContractionError, match="memory cap"):
            NetworkPipeline(gen, memory_cap=42).compile(
                "ab,bc,cd->ad", {"a": 2, "b": 33, "c": 50, "d": 3}
            )


class TestLevelParallel:
    def test_parallel_execution_bit_identical(self, gen):
        sizes = {"a": 16, "b": 512, "c": 8, "d": 256, "e": 16}
        serial = NetworkPipeline(gen, workers=1).compile(
            "ab,bc,cd,de->ae", sizes
        )
        parallel = NetworkPipeline(gen, workers=4).compile(
            "ab,bc,cd,de->ae", sizes
        )
        rng = np.random.default_rng(1)
        ops = [
            rng.random(tuple(sizes[i] for i in t))
            for t in serial.spec.inputs
        ]
        got_serial = serial.execute(*ops)
        got_parallel = parallel.execute(*ops)
        assert got_serial.tobytes() == got_parallel.tobytes()

    def test_contractor_workers_attribute(self, gen):
        net = NetworkPipeline(gen, workers=3).compile("ab,bc->ac", 8)
        assert net.workers == 3


class TestWorkloadMode:
    """Independent contraction batches (the CCSD/CCSD(T) term sets)
    compile through one :class:`CompilationSession`, not the network
    pipeline."""

    def test_kernels_bit_identical_to_per_contraction(self, gen):
        from repro.gpu.executor import integer_operands

        contractions = [
            parse_compact("abij-acik-cbkj", {c: 6 for c in "abcijk"}),
            parse_compact("abij-acik-cbkj", {c: 6 for c in "abcijk"}),
        ]
        program = CompilationSession(gen).compile(contractions)
        assert program.stats.classes == 1
        assert program.stats.dedup_hits == 1
        solo = gen.generate(contractions[0])
        a, b = integer_operands(contractions[0])
        want = solo.execute(a, b)
        for kernel in program.kernels:
            assert kernel.execute(a, b).tobytes() == want.tobytes()

    def test_ccsd_precompile_routes_through_pipeline(self, tmp_path):
        from repro.apps.ccsd import CcsdDriver

        driver = CcsdDriver(
            n_occupied=4, n_virtual=6,
            generator=Cogent(top_k=1), store_dir=tmp_path / "store",
        )
        stats = driver.precompile()
        assert stats.contractions == 3
        assert stats.searches == stats.classes
        # Warm: a fresh driver against the same store searches zero.
        warm = CcsdDriver(
            n_occupied=4, n_virtual=6,
            generator=Cogent(top_k=1), store_dir=tmp_path / "store",
        )
        warm_stats = warm.precompile()
        assert warm_stats.searches == 0

    def test_ccsdt_precompile_routes_through_pipeline(self):
        from repro.apps.ccsdt import TriplesDriver

        driver = TriplesDriver(
            n_occupied=2, n_virtual=3, generator=Cogent(top_k=1)
        )
        stats = driver.precompile()
        assert stats is not None
        assert stats.classes <= stats.contractions
        assert driver.precompile() is None  # nothing pending


class TestApiAndCli:
    def test_compile_network(self):
        options = api.Options(top_k=1)
        net = api.compile_network("ab,bc,cd->ad", 8, options=options)
        assert isinstance(net, CompiledNetwork)
        assert len(net.kernels) == 2

    def test_options_validation(self):
        with pytest.raises(ValueError, match="memory_cap"):
            api.Options(memory_cap=0)

    def test_cli_network_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "net.json"
        status = main([
            "network", "ab,bc,cd->ad", "--sizes", "8",
            "--top-k", "1", "--json", str(out),
        ])
        assert status == 0
        payload = json.loads(out.read_text())
        assert payload["steps"] == 2
        assert payload["levels"] == 2
        text = capsys.readouterr().out
        assert "arena" in text

    def test_cli_network_memory_cap(self, tmp_path):
        from repro.cli import main

        with pytest.raises(ContractionError, match="memory cap"):
            main([
                "network", "ab,bc,cd->ad",
                "--sizes", "a=2,b=33,c=50,d=3",
                "--top-k", "1", "--memory-cap", "42",
            ])


class TestProperties:
    @given(
        n=st.integers(min_value=2, max_value=6),
        extents=st.lists(
            st.integers(min_value=1, max_value=6),
            min_size=7, max_size=7,
        ),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_memory_plan_bounded_and_engines_agree(self, n, extents):
        letters = [chr(ord("a") + i) for i in range(n + 1)]
        expr = ",".join(
            letters[i] + letters[i + 1] for i in range(n)
        ) + f"->{letters[0]}{letters[n]}"
        sizes = {l: e for l, e in zip(letters, extents)}
        spec = parse_network(expr, sizes)
        try:
            obj = object_optimal_path(spec)
        except ContractionError:
            with pytest.raises(ContractionError):
                optimal_path(spec)
            return
        vec = optimal_path(spec)
        assert vec.total_flops == obj.total_flops
        assert vec.peak_intermediate == obj.peak_intermediate
        assert [
            (s.left, s.right, s.result) for s in vec.steps
        ] == [(s.left, s.right, s.result) for s in obj.steps]
        dag = ContractionDAG.from_path(vec)
        schedule = compute_schedule(dag)
        plan = plan_memory(dag, schedule)
        assert plan.planned_peak_bytes <= plan.naive_peak_bytes

    def test_execution_bit_identical_to_integer_einsum(self, gen):
        # Integer-valued operands make every summation order exact, so
        # the network execution through generated kernels must be
        # bit-identical to einsum over the whole network.
        sizes = {"a": 3, "b": 4, "c": 5, "d": 4, "e": 3}
        spec = parse_network("ab,bc,cd,de->ae", sizes)
        nc = NetworkPipeline(gen).compile(spec)
        rng = np.random.default_rng(9)
        ops = [
            rng.integers(-4, 5, tuple(
                sizes[i] for i in t
            )).astype(np.float64)
            for t in spec.inputs
        ]
        got = nc.execute(*ops)
        want = np.einsum("ab,bc,cd,de->ae", *ops)
        assert got.tobytes() == want.tobytes()
