"""Tests for dedup-first workload compilation (repro.core.program)."""

import json
import multiprocessing

import numpy as np
import pytest

from repro import api
from repro.core import program as program_mod
from repro.core.generator import Cogent
from repro.core.parser import parse
from repro.core.program import (
    STORE_VERSION,
    CompilationSession,
    KernelStore,
    canonical_form,
    code_version_stamp,
    kernel_from_store_payload,
    kernel_to_store_payload,
    workload_key,
)


@pytest.fixture(scope="module")
def gen():
    return Cogent(arch="V100", top_k=4)


#: Keys a kernel store entry must carry to count as a hit.
_KERNEL_KEYS = (
    "canonical", "split_specs", "config", "dtype_bytes", "cost",
    "selection_mode",
)
_HAMMER_KEY = "hammered"
_HAMMER_PUTS = 300


def _hammer_payload(writer):
    payload = {"store_version": STORE_VERSION, "writer": writer}
    payload.update({key: writer for key in _KERNEL_KEYS})
    payload["blob"] = str(writer) * 50_000
    return payload


def _hammer_store(job):
    """Put one key over and over, reading it back after every put.

    Returns the errors raised by ``put`` and the lookups that did not
    return a complete payload.
    """
    directory, writer = job
    store = KernelStore(directory)
    payload = _hammer_payload(writer)
    errors, torn = [], 0
    for _ in range(_HAMMER_PUTS):
        try:
            store.put(_HAMMER_KEY, payload)
        except OSError as exc:
            errors.append(repr(exc))
        got = store.lookup(_HAMMER_KEY)
        if got is None or got["blob"] != str(got["writer"]) * 50_000:
            torn += 1
    return errors, torn


def _operands(contraction, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(
        [contraction.extent(i) for i in contraction.a.indices]
    )
    b = rng.standard_normal(
        [contraction.extent(i) for i in contraction.b.indices]
    )
    return a, b


class TestCanonicalForm:
    def test_isomorphs_share_canonical_form(self):
        canon1, _ = canonical_form(parse("ab-ak-kb", 32))
        canon2, _ = canonical_form(parse("cd-cm-md", 32))
        assert canon1 == canon2

    def test_rename_maps_to_canonical_names(self):
        canon, rename = canonical_form(parse("ab-ak-kb", 32))
        assert canon.c.indices == ("i0", "i1")
        assert set(rename) == {"a", "b", "k"}
        assert rename["a"] == "i0"

    def test_structure_difference_detected(self):
        # Same index multiset, different positions.
        canon1, _ = canonical_form(parse("ab-ak-kb", 32))
        canon2, _ = canonical_form(parse("ab-ka-kb", 32))
        assert canon1 != canon2


class TestWorkloadKey:
    def test_isomorphs_share_key(self, gen):
        k1 = workload_key(parse("ab-ak-kb", 32), gen.arch, 8)
        k2 = workload_key(parse("xy-xz-zy", 32), gen.arch, 8)
        assert k1 == k2

    def test_exact_extents_not_bucketed(self, gen):
        # Neighbouring extents are separate classes: fan-out never clamps.
        k1 = workload_key(parse("ab-ak-kb", 32), gen.arch, 8)
        k2 = workload_key(parse("ab-ak-kb", 31), gen.arch, 8)
        assert k1 != k2

    def test_dtype_and_signature_separate_keys(self, gen):
        c = parse("ab-ak-kb", 32)
        assert workload_key(c, gen.arch, 8) != workload_key(c, gen.arch, 4)
        assert workload_key(c, gen.arch, 8, "top_k=4") != workload_key(
            c, gen.arch, 8, "top_k=64"
        )

    def test_stamp_separates_keys(self, gen):
        c = parse("ab-ak-kb", 32)
        assert workload_key(c, gen.arch, 8, stamp="aaaa") != workload_key(
            c, gen.arch, 8, stamp="bbbb"
        )

    def test_code_version_stamp_stable(self):
        assert code_version_stamp() == code_version_stamp()
        assert len(code_version_stamp()) == 16

    def test_stamp_covers_the_simulator(self, tmp_path, monkeypatch):
        """The simulator re-ranks the search's head, so editing it must
        invalidate every stored winner: the stamp hashes the whole
        package, not a hand-kept list of search modules."""
        import shutil

        package = tmp_path / "repro"
        shutil.copytree(
            program_mod._PACKAGE_ROOT, package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        original = code_version_stamp()
        monkeypatch.setattr(program_mod, "_PACKAGE_ROOT", package)
        monkeypatch.setattr(program_mod, "_CODE_STAMP", None)
        before = code_version_stamp()
        assert before == original
        simulator = package / "gpu" / "simulator.py"
        simulator.write_text(simulator.read_text() + "\n# edited\n")
        monkeypatch.setattr(program_mod, "_CODE_STAMP", None)
        assert code_version_stamp() != before


class TestSearchSignature:
    def test_knobs_fold_into_signature(self):
        base = Cogent(arch="V100").search_signature()
        assert Cogent(arch="V100", top_k=4).search_signature() != base
        assert Cogent(arch="V100", allow_split=False).search_signature() \
            != base

    def test_workers_and_engine_do_not(self):
        # Parallel and serial searches are bit-identical, so they must
        # share equivalence classes; there is one search implementation,
        # so no engine name is folded in either.
        a = Cogent(arch="V100")
        b = Cogent(arch="V100", workers=4)
        assert a.search_signature() == b.search_signature()
        assert "engine" not in a.search_signature()


class TestCompilationSession:
    def test_dedup_classes_and_bit_identity(self, gen):
        exprs = ["ab-ak-kb", "cd-cm-md", "ab-ak-kb", "abc-abk-kc"]
        sizes = [32, 32, 32, 24]
        items = [parse(e, s) for e, s in zip(exprs, sizes)]
        program = CompilationSession(gen).compile(items)
        assert program.stats.contractions == 4
        assert program.stats.classes == 2
        assert program.stats.dedup_hits == 2
        assert program.stats.searches == 2
        assert program.classes[0].members == (0, 1, 2)
        for contraction, kernel in zip(items, program.kernels):
            independent = gen.generate(contraction)
            assert kernel.config.describe() \
                == independent.config.describe()
            assert kernel.cost == independent.cost

    def test_fanned_out_kernels_execute_correctly(self, gen):
        items = [parse("ab-ak-kb", 24), parse("xy-xz-zy", 24)]
        program = CompilationSession(gen).compile(items)
        for contraction, kernel in zip(items, program.kernels):
            a, b = _operands(contraction)
            assert np.allclose(kernel.execute(a, b), a @ b)

    def test_split_winner_fans_out_bit_identically(self, gen):
        # ab-ak-kb at 96 selects a split rewrite; the replay must
        # retarget onto the renamed member.
        items = [parse("ab-ak-kb", 96), parse("xy-xz-zy", 96)]
        program = CompilationSession(gen).compile(items)
        rep, member = program.kernels
        assert rep.split_specs
        independent = gen.generate(items[1])
        assert member.config.describe() == independent.config.describe()
        assert member.cost == independent.cost
        a, b = _operands(items[1])
        assert np.allclose(member.execute(a, b), a @ b)

    def test_session_memory_spans_batches(self, gen):
        session = CompilationSession(gen)
        session.compile([parse("ab-ak-kb", 32)])
        program = session.compile([parse("pq-pr-rq", 32)])
        assert program.stats.searches == 0
        assert program.classes[0].source == "memory"

    def test_kernel_names_assigned(self, gen):
        program = CompilationSession(gen).compile(
            [parse("ab-ak-kb", 24), parse("xy-xz-zy", 24)],
            kernel_names=["first", "second"],
        )
        assert [k.kernel_name for k in program.kernels] \
            == ["first", "second"]

    def test_kernel_names_length_mismatch_rejected(self, gen):
        with pytest.raises(ValueError):
            CompilationSession(gen).compile(
                [parse("ab-ak-kb", 24)], kernel_names=["a", "b"]
            )

    def test_obs_counters_recorded(self, gen):
        from repro import obs

        with obs.tracing() as session:
            CompilationSession(gen).compile(
                [parse("ab-ak-kb", 24), parse("xy-xz-zy", 24)]
            )
        counters = session.payload()["metrics"]["counters"]
        assert counters["program.classes"] == 1
        assert counters["program.dedup_hits"] == 1
        assert counters["program.searches"] == 1


class TestKernelStore:
    def test_warm_run_zero_searches(self, gen, tmp_path):
        items = [parse("ab-ak-kb", 96), parse("abc-abk-kc", 24)]
        cold = CompilationSession(gen, store=tmp_path).compile(items)
        assert cold.stats.searches == 2
        assert cold.stats.store_misses == 2
        warm = CompilationSession(
            Cogent(arch="V100", top_k=4), store=tmp_path
        ).compile(items)
        assert warm.stats.searches == 0
        assert warm.stats.store_hits == 2
        for k_cold, k_warm in zip(cold.kernels, warm.kernels):
            assert k_cold.config.describe() == k_warm.config.describe()
            assert k_cold.cost == k_warm.cost
            assert k_warm.selection_mode.endswith("+store")

    def test_store_hits_isomorphic_respelling(self, gen, tmp_path):
        # Payloads are canonical, so a differently spelled batch hits.
        CompilationSession(gen, store=tmp_path).compile(
            [parse("ab-ak-kb", 96)]
        )
        warm = CompilationSession(
            Cogent(arch="V100", top_k=4), store=tmp_path
        ).compile([parse("uv-uw-wv", 96)])
        assert warm.stats.searches == 0
        independent = gen.generate(parse("uv-uw-wv", 96))
        assert warm.kernels[0].config.describe() \
            == independent.config.describe()
        assert warm.kernels[0].cost == independent.cost

    def test_store_version_guard(self, gen, tmp_path):
        session = CompilationSession(gen, store=tmp_path)
        session.compile([parse("ab-ak-kb", 24)])
        store = session.store
        key = session.class_key(parse("ab-ak-kb", 24))
        payload = json.loads((store.directory / f"{key}.json").read_text())
        payload["store_version"] = 0
        (store.directory / f"{key}.json").write_text(
            json.dumps(payload)
        )
        assert store.lookup(key) is None

    def test_code_stamp_invalidates_entries(self, gen, tmp_path,
                                            monkeypatch):
        CompilationSession(gen, store=tmp_path).compile(
            [parse("ab-ak-kb", 24)]
        )
        monkeypatch.setattr(program_mod, "_CODE_STAMP", "f" * 16)
        stale = CompilationSession(
            Cogent(arch="V100", top_k=4), store=tmp_path
        ).compile([parse("ab-ak-kb", 24)])
        assert stale.stats.searches == 1
        assert stale.stats.store_hits == 0

    def test_payload_roundtrip(self, gen):
        kernel = gen.generate(parse("ab-ak-kb", 96))
        payload = kernel_to_store_payload(kernel)
        rebuilt = kernel_from_store_payload(payload, gen)
        canon, rename = canonical_form(parse("ab-ak-kb", 96))
        assert rebuilt.original_contraction == canon
        assert rebuilt.cost == kernel.cost
        assert len(payload["split_specs"]) == len(kernel.split_specs)

    def test_atomic_writes_leave_no_temp_files(self, gen, tmp_path):
        session = CompilationSession(gen, store=tmp_path)
        session.compile([parse("ab-ak-kb", 24)])
        assert not list(tmp_path.glob("*.tmp"))
        assert len(session.store) == 1


    def test_concurrent_writers_one_key(self, tmp_path):
        writers = 4
        with multiprocessing.get_context("spawn").Pool(writers) as pool:
            results = pool.map_async(
                _hammer_store, [(tmp_path, w) for w in range(writers)]
            ).get(timeout=300)
        errors = [e for errs, _ in results for e in errs]
        assert errors == [], f"{len(errors)} puts raised: {errors[:3]}"
        assert sum(torn for _, torn in results) == 0
        final = json.loads((tmp_path / f"{_HAMMER_KEY}.json").read_text())
        assert final in [_hammer_payload(w) for w in range(writers)]
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("content", [
        '{"store_version": 1, "canonical": {"c"',   # truncated
        "[1, 2]",                                     # not an object
        json.dumps({"store_version": STORE_VERSION}),  # keys missing
    ], ids=["truncated", "list", "missing-keys"])
    def test_malformed_entry_is_counted_miss(self, gen, tmp_path, content):
        from repro import obs

        contraction = parse("ab-ak-kb", 24)
        session = CompilationSession(gen, store=tmp_path)
        key = session.class_key(contraction)
        (tmp_path / f"{key}.json").write_text(content)
        with obs.tracing() as trace:
            assert session.store.lookup(key) is None
        assert session.store.misses == 1
        assert trace.metrics.counters["store.misses"] == 1
        # A compile against the malformed entry re-searches and repairs it.
        program = session.compile([contraction])
        assert program.stats.searches == 1
        assert program.stats.store_misses == 1
        assert session.store.lookup(key) is not None


class TestApiCompileMany:
    def test_compile_many_with_store(self, tmp_path):
        opts = api.Options(top_k=4, store_dir=tmp_path / "store")
        exprs = ["ab-ak-kb", "cd-cm-md"]
        cold = api.compile_many(exprs, 32, options=opts)
        assert cold.stats.classes == 1
        assert cold.stats.dedup_hits == 1
        warm = api.compile_many(exprs, 32, options=opts)
        assert warm.stats.searches == 0

    def test_strategy_shares_the_stored_winner(self, tmp_path):
        """The strategy never changes the searched kernel, so a kernel
        stored under one strategy serves every other."""
        from repro import obs

        store = tmp_path / "store"
        first = api.compile(
            "abcd-aebf-dfce", 16, api.Options(store_dir=store)
        )
        with obs.tracing() as session:
            again = api.compile(
                "abcd-aebf-dfce", 16,
                api.Options(store_dir=store, strategy="auto"),
            )
        counters = session.payload()["metrics"]["counters"]
        assert counters.get("program.searches", 0) == 0
        assert counters["store.hits"] == 1
        assert again.config.describe() == first.config.describe()
        assert again.source() == first.source()

    def test_options_store_dir_default_none(self):
        assert api.Options().store_dir is None


class TestNetworkIntegration:
    def test_isomorphic_chain_steps_share_search(self):
        from repro.core.pipeline import NetworkPipeline

        nc = NetworkPipeline(Cogent(arch="V100", top_k=2)).compile(
            "ab,bc,cd->ad", 24
        )
        assert len(nc.path.steps) == 2
        assert nc.program.stats.classes == 1
        assert nc.program.stats.dedup_hits == 1
        rng = np.random.default_rng(0)
        ops = [rng.random((24, 24)) for _ in range(3)]
        assert np.allclose(nc.execute(*ops), nc.reference(*ops))

    def test_network_store_warms_across_instances(self, tmp_path):
        from repro.core.pipeline import NetworkPipeline

        NetworkPipeline(
            Cogent(arch="V100", top_k=2), store=tmp_path
        ).compile("ab,bc->ac", 24)
        warm = NetworkPipeline(
            Cogent(arch="V100", top_k=2), store=tmp_path
        ).compile("ab,bc->ac", 24)
        assert warm.program.stats.searches == 0


class TestAppsIntegration:
    def test_ccsd_precompile_seeds_cache(self):
        from repro import obs
        from repro.apps.ccsd import CcsdDriver

        driver = CcsdDriver(3, 4, generator=Cogent(arch="V100", top_k=2))
        stats = driver.precompile()
        assert stats.contractions == 3
        # Sweeps now reuse the precompiled kernels without a search.
        with obs.tracing() as session:
            driver.residual(np.zeros((4, 4, 3, 3)))
        assert session.metrics.counter("search.searches") == 0
        assert session.metrics.counter("generate.contractions") == 0

    def test_ccsdt_precompile_with_store(self, tmp_path):
        from repro.apps.ccsdt import TriplesDriver

        gen1 = Cogent(arch="V100", top_k=2)
        d1 = TriplesDriver(3, 3, generator=gen1, store_dir=tmp_path)
        stats = d1.precompile()
        assert stats.contractions == 18
        # The 18 d1/d2 permutation terms are structurally distinct;
        # dedup pays off across *processes* via the store, not within
        # one term set.
        assert stats.classes == 18
        d2 = TriplesDriver(
            3, 3, generator=Cogent(arch="V100", top_k=2),
            store_dir=tmp_path,
        )
        warm = d2.precompile()
        assert warm.searches == 0
        for term in d1.terms:
            assert d1._kernels[term.name].config.describe() \
                == d2._kernels[term.name].config.describe()

    def test_ccsdt_energy_matches_reference_via_program(self):
        from repro.apps.ccsdt import TriplesDriver

        driver = TriplesDriver(2, 3, generator=Cogent(arch="V100",
                                                      top_k=2))
        assert driver.energy().energy == pytest.approx(
            driver.reference_energy()
        )


class TestCompileCli:
    def test_compile_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        assert main(["compile", "ttm_mode1", "ttm_mode2",
                     "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert "search" in out and "2 searches" in out
        assert main(["compile", "ttm_mode1", "ttm_mode2",
                     "--store-dir", store]) == 0
        out = capsys.readouterr().out
        assert "0 searches" in out and "store 2 hits" in out

    def test_compile_target_keys_the_store(self, tmp_path, capsys):
        """``--target`` reaches the generator, so its winners are
        stored under that target's key."""
        from repro.cli import main
        from repro.tccg import get

        store = tmp_path / "store"
        assert main(["compile", "ttm_mode1", "--target", "openmp",
                     "--store-dir", str(store)]) == 0
        contraction = get("ttm_mode1").contraction()
        program = api.compile_many([contraction], options=api.Options(
            target="openmp", store_dir=store))
        assert program.stats.searches == 0
        assert program.stats.store_hits == 1
        other = api.compile_many([contraction], options=api.Options(
            store_dir=store))
        assert other.stats.searches == 1

    def test_save_target_writes_that_targets_source(self, tmp_path,
                                                     capsys):
        """``save --target`` reaches the generator, and the package
        holds the target's source beside the fixed set."""
        from repro.cli import main

        out = tmp_path / "pkg"
        assert main(["save", "ttm_mode1", str(out),
                     "--target", "openmp"]) == 0
        assert "tc_kernel_omp" in (out / "kernel_openmp.c").read_text()

    def test_compile_json_payload(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "compile.json"
        assert main(["compile", "ttm_mode1", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["dedup"]["stats"]["classes"] == 1
        assert payload["kernels"][0]["name"] == "ttm_mode1"
        assert payload["kernels"][0]["cost"] > 0

    def test_batch_json_reports_dedup(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "batch.json"
        store = str(tmp_path / "store")
        assert main(["compile", "ttm_mode1", "ttm_mode2",
                     "--store-dir", store, "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        dedup = payload["dedup"]["stats"]
        assert dedup["contractions"] == 2
        assert dedup["store_misses"] == 2
        assert main(["compile", "ttm_mode1", "ttm_mode2",
                     "--store-dir", store, "--json", str(path)]) == 0
        warm = json.loads(path.read_text())
        assert warm["dedup"]["stats"]["store_hits"] == 2
        assert warm["dedup"]["stats"]["searches"] == 0
        out = capsys.readouterr().out
        assert "dedup" in out and "store" in out
