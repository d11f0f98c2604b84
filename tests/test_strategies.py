"""Execution strategies: differential correctness, cost-model parity,
deterministic selection, and API/CLI wiring."""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, obs
from repro.core.batched import parse_batched
from repro.core.costmodel import (
    INAPPLICABLE,
    STRATEGY_NAMES,
    StrategyCostModel,
    batchable_suffix,
    common_prefix_run,
    pack_moved_bytes,
    pack_transactions,
    strategy_descriptor,
)
from repro.core.generator import Cogent
from repro.core.ir import make_contraction
from repro.core.parser import parse
from repro.gpu.executor import integer_operands, reference_contract
from repro.strategies import (
    BatchedGemmStrategy,
    StrategyError,
    StrategySelector,
    get_strategy,
)
from repro.tccg import all_benchmarks, by_group
from repro.ttgt.pipeline import TtgtPipeline
from repro.ttgt.transpose import TransposePlan

GROUPS = ("ml", "mo", "ccsd", "ccsd_t")


def _assert_strategy_exact(contraction, strategy, seed=0):
    """The strategy's execute_plan must be bit-identical to einsum."""
    a, b = integer_operands(contraction, seed=seed)
    plan = strategy.plan(contraction)
    got = strategy.execute_plan(plan, a, b)
    want = reference_contract(contraction, a, b)
    assert got.shape == want.shape
    assert np.array_equal(got, want), (
        f"{strategy.name} diverges from einsum on {contraction}"
    )


# -- differential correctness: full TCCG suite ---------------------------

@pytest.mark.parametrize("group", GROUPS)
def test_ttgt_gett_match_einsum_on_tccg_group(group):
    ttgt = get_strategy("ttgt")
    gett = get_strategy("gett")
    for bench in by_group(group):
        contraction = bench.scaled(0.1)
        _assert_strategy_exact(contraction, ttgt, seed=bench.id)
        _assert_strategy_exact(contraction, gett, seed=bench.id)


@pytest.mark.parametrize("group", GROUPS)
def test_direct_matches_einsum_on_tccg_group(group):
    direct = get_strategy("direct")
    for bench in by_group(group):
        _assert_strategy_exact(bench.scaled(0.1), direct, seed=bench.id)


def test_batched_matches_einsum_where_applicable():
    batched = BatchedGemmStrategy()
    covered = 0
    for bench in all_benchmarks():
        contraction = bench.scaled(0.1)
        if batched.applicable(contraction):
            _assert_strategy_exact(contraction, batched, seed=bench.id)
            covered += 1
    # The ML group's TTM shapes carry batchable suffixes.
    assert covered >= 1


def test_all_strategies_match_einsum_on_explicit_batches():
    shapes = [
        ("mnb-mkb-knb", {"m": 12, "n": 10, "k": 8, "b": 5}),
        ("qkh-qdh-kdh", {"q": 9, "k": 11, "d": 6, "h": 4}),
        ("xyuv-xkuv-kyuv", {"x": 6, "y": 5, "k": 4, "u": 3, "v": 2}),
    ]
    for expr, sizes in shapes:
        contraction = parse_batched(expr, sizes)
        for name in STRATEGY_NAMES:
            _assert_strategy_exact(contraction, get_strategy(name))


# -- differential correctness: random contractions -----------------------

@st.composite
def contraction_specs(draw, max_ext=3, max_int=2, max_extent=6):
    alphabet = "abcdefghij"
    n_a = draw(st.integers(1, max_ext))
    n_b = draw(st.integers(1, max_ext))
    n_i = draw(st.integers(1, max_int))
    names = list(alphabet[: n_a + n_b + n_i])
    shuffled = draw(st.permutations(names))
    ext_a = shuffled[:n_a]
    ext_b = shuffled[n_a:n_a + n_b]
    ints = shuffled[n_a + n_b:]
    c_order = draw(st.permutations(ext_a + ext_b))
    a_order = draw(st.permutations(ext_a + ints))
    b_order = draw(st.permutations(ext_b + ints))
    sizes = {
        name: draw(st.integers(1, max_extent)) for name in names
    }
    return make_contraction(c_order, a_order, b_order, sizes)


@settings(max_examples=25, deadline=None)
@given(contraction_specs(), st.integers(0, 10_000))
def test_strategies_match_einsum_on_random_contractions(contraction, seed):
    for name in ("ttgt", "gett", "batched"):
        strategy = get_strategy(name)
        if strategy.applicable(contraction):
            _assert_strategy_exact(contraction, strategy, seed=seed)


@settings(max_examples=10, deadline=None)
@given(contraction_specs(max_ext=2, max_int=1, max_extent=5),
       st.integers(0, 10_000))
def test_direct_matches_einsum_on_random_contractions(contraction, seed):
    _assert_strategy_exact(contraction, get_strategy("direct"), seed=seed)


# -- batch detection ------------------------------------------------------

def test_batchable_suffix_detects_trailing_batch():
    c = parse("arc-abc-br", {"a": 9, "r": 5, "c": 7, "b": 6})
    assert batchable_suffix(c) == ("r", "c")


def test_batchable_suffix_rejects_non_trailing_layouts():
    # 'r' is trailing in C but leading in B: batch slices of B are not
    # contiguous, so no strided batched call applies.
    c = parse("ar-abc-rbc", {"a": 9, "r": 5, "c": 7, "b": 6})
    assert "r" not in batchable_suffix(c)
    # Plain matmul: no index survives the walk past the internals.
    m = parse("ab-ac-cb", {"a": 8, "b": 8, "c": 8})
    assert batchable_suffix(m) == ("b",)  # B[c,b] has b trailing


def test_batched_strategy_refuses_plain_matmul_without_suffix():
    c = parse("ab-ca-bc", {"a": 8, "b": 8, "c": 8})
    strategy = BatchedGemmStrategy()
    assert not strategy.applicable(c)
    with pytest.raises(StrategyError):
        strategy.plan(c)


# -- cost model: scalar/columnar parity and TTGT routing ------------------

def test_scalar_traffic_equals_columnar_matrix_on_suite():
    model = StrategyCostModel()
    contractions = [b.contraction() for b in all_benchmarks()]
    matrix = model.traffic_matrix(
        [strategy_descriptor(c) for c in contractions]
    )
    for row, contraction in zip(matrix, contractions):
        traffic = model.traffic(contraction)
        for j, name in enumerate(STRATEGY_NAMES):
            assert int(row[j]) == traffic[name].total


def test_ttgt_plan_packing_matches_strategy_model():
    model = StrategyCostModel()
    pipeline = TtgtPipeline(get_strategy("ttgt").arch)
    for bench in all_benchmarks():
        contraction = bench.contraction()
        plan = pipeline.plan(contraction)
        traffic = model.traffic(contraction)["ttgt"]
        assert plan.packing_transactions() == traffic.pack + traffic.unpack


def test_transpose_read_run_matches_common_prefix_run():
    sizes = {"a": 4, "b": 5, "c": 6}
    src = ("a", "b", "c")
    for dst in (("a", "b", "c"), ("a", "c", "b"), ("c", "a", "b")):
        from repro.ttgt.transpose import permutation_between

        plan = TransposePlan(
            tuple(sizes[i] for i in src), permutation_between(src, dst)
        )
        assert plan.read_run == common_prefix_run(src, dst, sizes)


def test_pack_helpers_basic_arithmetic():
    # 2 elements * 8 bytes, read and written once each.
    assert pack_moved_bytes(1000, 8) == 16000
    # Fully contiguous pass: 1 read + 1 write transaction per 16 doubles.
    assert pack_transactions(16, 16, 8, 128) == 2
    # Scattered reads (run 1): one transaction per element on the read
    # side, coalesced write side unchanged.
    assert pack_transactions(16, 1, 8, 128) == 17


def test_inapplicable_batched_loses_every_ranking():
    model = StrategyCostModel()
    c = parse("ab-ca-bc", {"a": 64, "b": 64, "c": 64})
    traffic = model.traffic(c)
    assert not traffic["batched"].applicable
    assert traffic["batched"].total >= int(INAPPLICABLE)


# -- selection: determinism, ranking, suite ------------------------------

def test_selector_ranks_batched_first_on_attention_shape():
    contraction = parse_batched(
        "qkh-qdh-kdh", {"q": 128, "k": 128, "d": 64, "h": 12}
    )
    choice = StrategySelector().choose(contraction)
    assert choice.selected == "batched"
    totals = [t.total for _, t in choice.ranking if t.applicable]
    assert totals == sorted(totals)


def test_selection_deterministic_across_worker_counts():
    expr, sizes = "abcd-aebf-dfce", 16
    opts1 = api.Options(workers=1, strategy="auto")
    opts4 = api.Options(workers=4, strategy="auto")
    one = api.select_strategy(expr, sizes, options=opts1)
    four = api.select_strategy(expr, sizes, options=opts4)
    assert one.as_dict() == four.as_dict()


def test_fixed_strategy_restricts_ranking():
    choice = api.select_strategy(
        "ab-ac-cb", 32, options=api.Options(strategy="gett")
    )
    assert choice.selected == "gett"
    assert [name for name, _ in choice.ranking] == ["gett"]


def test_rank_suite_is_fast_and_consistent_with_scalar_path():
    selector = StrategySelector()
    contractions = [b.contraction() for b in all_benchmarks()]
    start = time.perf_counter()
    suite = selector.rank_suite(contractions)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(suite.winners) == len(contractions)
    # Suite winners equal the per-shape scalar choices.
    for contraction, winner in zip(contractions, suite.winners):
        assert StrategySelector().rank(contraction).selected == winner
    assert suite.winner_counts["direct"] + sum(
        v for k, v in suite.winner_counts.items() if k != "direct"
    ) == len(contractions)
    assert 0.0 <= suite.improved_fraction <= 1.0


def test_selection_records_obs_counters():
    contraction = parse_batched(
        "mnb-mkb-knb", {"m": 256, "n": 256, "k": 64, "b": 48}
    )
    with obs.tracing() as session:
        StrategySelector().choose(contraction)
    counters = session.payload()["metrics"]["counters"]
    assert counters.get("strategy.selected.batched") == 1


# -- simulated strategy ranking ------------------------------------------

def test_simulate_rank_covers_every_strategy():
    contraction = parse("abcd-aebf-dfce", 24)
    selector = StrategySelector()
    choice = selector.simulate_rank(contraction)
    assert sorted(choice.ranking) == sorted(selector.strategies)
    assert choice.selected == choice.ranking[0]
    assert choice.modeled.selected in STRATEGY_NAMES
    # Simulated strategies come fastest-first.
    simulated = [
        n for n in choice.ranking if choice.times.get(n) is not None
    ]
    times = [choice.times[n] for n in simulated]
    assert times == sorted(times)
    assert all(t > 0 for t in times)


def test_simulate_rank_is_deterministic_and_cached():
    contraction = parse("abcd-aebf-dfce", 24)
    selector = StrategySelector()
    first = selector.simulate_rank(contraction)
    cached = len(selector._plan_cache)
    second = selector.simulate_rank(contraction)
    assert first == second
    # Macro-kernel searches are cached per shape: no new plans.
    assert len(selector._plan_cache) == cached


def test_choose_simulated_records_obs_counters():
    contraction = parse("abcd-aebf-dfce", 24)
    with obs.tracing() as session:
        choice = StrategySelector().choose_simulated(contraction)
    counters = session.payload()["metrics"]["counters"]
    assert counters.get(f"strategy.selected.{choice.selected}") == 1
    simulated = [
        n for n, t in choice.times.items() if t is not None
    ]
    for name in simulated:
        assert counters.get(f"strategy.simulated.{name}") == 1


def test_simulated_choice_as_dict_roundtrips_json():
    contraction = parse_batched(
        "mnb-mkb-knb", {"m": 128, "n": 128, "k": 64, "b": 16}
    )
    choice = StrategySelector().simulate_rank(contraction)
    payload = json.loads(json.dumps(choice.as_dict()))
    assert payload["selected"] == choice.selected
    assert isinstance(payload["agrees_with_model"], bool)
    assert payload["modeled_selected"] == choice.modeled.selected


# -- wiring: Options, Cogent signature, CLI ------------------------------

def test_options_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        api.Options(strategy="fastest")


def test_cogent_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        Cogent(strategy="fastest")


def test_search_signature_ignores_strategy():
    # Only select_strategy reads the strategy; the searched kernel does
    # not depend on it, so it must not split the kernel store.
    signatures = {
        Cogent(strategy=s).search_signature()
        for s in ("auto",) + STRATEGY_NAMES
    }
    assert len(signatures) == 1
    assert "strategy" not in Cogent().search_signature()


def test_workload_key_shared_across_strategies():
    from repro.core.program import workload_key

    c = parse("ab-ac-cb", 32)
    keys = set()
    for s in ("direct", "gett", "auto"):
        g = Cogent(strategy=s)
        keys.add(
            workload_key(
                c, g.arch, g.dtype_bytes, g.search_signature()
            )
        )
    assert len(keys) == 1


def test_cogent_select_strategy_honours_fixed_strategy():
    choice = Cogent(strategy="ttgt").select_strategy("ab-ac-cb", 32)
    assert choice.selected == "ttgt"
    auto = Cogent(strategy="auto").select_strategy("ab-ac-cb", 32)
    assert len(auto.ranking) == len(STRATEGY_NAMES)


def test_cogent_select_strategy_parses_batched_expressions():
    choice = Cogent(strategy="auto").select_strategy(
        "qkh-qdh-kdh", {"q": 128, "k": 128, "d": 64, "h": 12}
    )
    assert choice.selected == "batched"


def test_cli_rank_strategy_json(tmp_path):
    from repro.cli import main

    out = tmp_path / "rank.json"
    status = main([
        "rank", "mnb-mkb-knb", "--sizes", "m=32,n=32,k=16,b=8",
        "--strategy", "auto", "--top", "1", "--json", str(out),
    ])
    assert status == 0
    payload = json.loads(out.read_text())
    assert payload["strategy"]["selected"] in STRATEGY_NAMES
    ranked = payload["strategy"]["ranking"]
    assert len(ranked) == len(STRATEGY_NAMES)
    totals = [r["total"] for r in ranked if r["total"] is not None]
    assert totals == sorted(totals)


def test_cli_bench_strategy_json(tmp_path):
    from repro.cli import main

    out = tmp_path / "bench.json"
    status = main([
        "bench", "--group", "ml", "--limit", "3",
        "--frameworks", "cogent", "--strategy", "auto",
        "--json", str(out),
    ])
    assert status == 0
    payload = json.loads(out.read_text())
    strategy = payload["strategy"]
    assert len(strategy["shapes"]) == 3
    assert set(strategy["winner_counts"]) == set(STRATEGY_NAMES)
    assert strategy["direct_total"] >= strategy["auto_total"]
