"""Smoke tests of the end-to-end benchmark.

Run from the repository root (about 15 s)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import workloads  # noqa: E402


def smoke_run(tmp_path: Path, *extra: str) -> dict:
    out = tmp_path / "runs.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out),
         *extra],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    return json.loads(out.read_text())["runs"][-1]


@pytest.fixture(scope="module")
def plain(tmp_path_factory) -> dict:
    return smoke_run(tmp_path_factory.mktemp("plain"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict:
    return smoke_run(tmp_path_factory.mktemp("traced"), "--trace")


def built(name: str, seed: int, tmp_path: Path) -> workloads.Workload:
    workload = workloads.WORKLOADS[name](seed, True, tmp_path)
    workload.build()
    workload.prepare()
    return workload


@pytest.mark.parametrize("kind, run", [
    ("end_to_end", "plain"),
    ("per_layer", "traced"),
])
def test_every_metric_is_emitted_with_its_unit(kind, run, request):
    record = request.getfixturevalue(run)
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name in WORKLOAD_NAMES:
        result = record["results"][name]
        assert result["correct"] and result["failed"] == 0, name
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == expected, name
        if kind == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_attributes_work_to_layers(traced):
    def layer(workload: str, metric: str) -> float:
        return traced["results"][workload]["metrics"][metric]["value"]

    # Set-up fills the store, so every timed network compile hits it.
    assert layer("network_warm", "search.count") == 0
    assert layer("network_warm", "store.hits") > 0
    assert layer("network_warm", "store.misses") == 0
    assert layer("network_warm", "network.path_s") > 0
    assert layer("ccsdt_solver", "search.count") > 0
    assert layer("ccsdt_solver", "executor.calls") > 0
    assert layer("native_openmp", "chost.cc_s") > 0


def test_trace_payload_passes_schema_check(traced, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    for name, payload in traced["obs"].items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_metrics_schema.py"),
             str(path)],
            check=True, env=env, stdout=subprocess.DEVNULL,
        )


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_seed_fixes_the_inputs(name, tmp_path):
    draws = [
        workloads.digest(built(name, seed, tmp_path).inputs)
        for seed in (7, 7, 8)
    ]
    assert draws[0] == draws[1] != draws[2]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_corrupted_output_counts_as_failure(name, tmp_path):
    workload = built(name, 0, tmp_path)
    recorder = workloads.Recorder(workload)
    recorder.call(0, "first")
    assert recorder.failed == 0
    honest = workload.repeat
    workload.repeat = lambda i: honest(i) + 1.0
    recorder.call(0, "repeat")
    assert recorder.reasons == {"mismatch": 1}
    assert recorder.attempted == 2


def test_raising_call_counts_as_failure_and_keeps_its_latency(tmp_path):
    workload = built("ccsdt_solver", 0, tmp_path)
    recorder = workloads.Recorder(workload)

    def crash(i):
        raise RuntimeError("crash")

    workload.first = crash
    recorder.call(0, "first")
    assert recorder.reasons == {"RuntimeError": 1}
    assert len(recorder.latencies("first")) == 1


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10, 11, 10, 11, 10], [8, 8, 9, 8, 8], "lower", "improved"),
    ([10, 11, 10, 11, 10], [13, 13, 14, 13, 13], "lower", "worse"),
    ([10, 14, 8, 12, 10], [10, 12, 9, 13, 10], "lower", "unresolved"),
    ([10, 10.1, 10, 10.1, 10], [10, 10.1, 10.1, 10, 10], "lower",
     "unchanged"),
    ([10, 11, 10, 11, 10], [12, 12, 13, 12, 12], "higher", "improved"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1)[0] == expected


def test_compare_gives_no_gain_to_a_change_that_fails_more():
    def run(failed: int) -> dict:
        return {"failed": failed, "correct": failed == 0}

    parent = [run(0)] * 5
    assert not compare.fails_more(parent, [run(0)] * 5)
    assert compare.fails_more(parent, [run(0)] * 4 + [run(2)])
    assert compare.fails_more([run(2)] * 5, [run(2)] * 5)
    faster = compare.verdict([10, 11, 10, 11, 10], [8, 8, 9, 8, 8],
                             "lower", 0.1, failing=True)
    assert faster[0] == "failing"


def test_compare_floor_widens_small_tolerances():
    parent, change = [0.20, 0.21, 0.20, 0.22, 0.21], [0.24] * 5
    assert compare.verdict(parent, change, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, change, "lower", 0.1,
                           floor=0.05)[0] == "unchanged"
