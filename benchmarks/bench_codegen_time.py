"""Code-generation-time claim (Sections I and V): COGENT determines its
kernel parameters in seconds, versus hours-to-days of autotuning for
Tensor Comprehensions (~8514 s for SD2_1 alone).

This benchmark times `Cogent.generate` itself (enumeration + cost-model
ranking + top-k simulation + emission) with pytest-benchmark's normal
round machinery, one representative contraction per TCCG group, and
compares the serial vs parallel streaming search engine on a TCCG
batch (configs/sec throughput, per-contraction wall-time).

Set ``REPRO_BENCH_JSON=path.json`` to dump the serial-vs-parallel
comparison as JSON for offline plotting.
"""

import json
import os

import pytest

from repro import Cogent
from repro.baselines.tc import DEFAULT_EVAL_OVERHEAD_S
from repro.core.program import CompilationSession
from repro.tccg import get

REPRESENTATIVES = ("ttm_mode2", "mo_stage1", "ccsd_eq1", "sd_t_d2_1")

#: Batch used for the serial-vs-parallel search throughput comparison.
SEARCH_BATCH = ("ttm_mode1", "ttm_mode2", "ttm_4d", "mo_stage1", "ccsd_eq1")

#: Worker count for the parallel arm (capped by the host's cores).
PARALLEL_WORKERS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def generator():
    return Cogent(arch="V100")


@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_codegen_time(benchmark, generator, name):
    contraction = get(name).contraction()
    kernel = benchmark(generator.generate, contraction)
    assert kernel.source("cuda")
    # A full TC tuning session at paper scale evaluates 2000 versions.
    tc_tuning_time = 2000 * DEFAULT_EVAL_OVERHEAD_S
    print(f"\n{name}: COGENT generation {kernel.generation_time_s:.2f} s "
          f"vs TC autotuning ~{tc_tuning_time:.0f} s "
          f"({tc_tuning_time / max(kernel.generation_time_s, 1e-9):.0f}x)")
    assert kernel.generation_time_s < 60.0


def _run_batch(workers: int, search_workers: int):
    """Generate SEARCH_BATCH, returning (wall_s, per-kernel rows)."""
    import time

    contractions = [get(n).contraction() for n in SEARCH_BATCH]
    generator = Cogent(arch="V100", workers=search_workers)
    t0 = time.perf_counter()
    kernels = CompilationSession(generator).compile(
        contractions, workers=workers
    ).kernels
    wall_s = time.perf_counter() - t0
    rows = []
    for name, kernel in zip(SEARCH_BATCH, kernels):
        search = kernel.search_stats
        rows.append({
            "name": name,
            "config": kernel.config.describe(),
            "generation_s": kernel.generation_time_s,
            "configs_checked": search.configs_checked if search else 0,
            "configs_per_second":
                search.configs_per_second if search else 0.0,
        })
    return wall_s, rows


def test_search_throughput_serial_vs_parallel(benchmark):
    """Tentpole claim: the parallel batch path beats per-contraction
    serial generation in wall-time while picking identical configs."""
    serial_wall, serial_rows = _run_batch(workers=1, search_workers=1)
    parallel_wall, parallel_rows = benchmark.pedantic(
        _run_batch, args=(PARALLEL_WORKERS, 1), rounds=1, iterations=1,
    )
    speedup = serial_wall / max(parallel_wall, 1e-9)
    checked = sum(r["configs_checked"] for r in serial_rows)
    print(f"\nbatch of {len(SEARCH_BATCH)}: serial {serial_wall:.2f} s, "
          f"parallel(x{PARALLEL_WORKERS}) {parallel_wall:.2f} s "
          f"({speedup:.2f}x), {checked} configs checked "
          f"({checked / max(parallel_wall, 1e-9):,.0f} cfg/s batched)")
    for s_row, p_row in zip(serial_rows, parallel_rows):
        assert s_row["config"] == p_row["config"]  # determinism guard
        print(f"  {s_row['name']:<12} {s_row['generation_s'] * 1e3:8.1f} ms "
              f"{s_row['configs_per_second']:>12,.0f} cfg/s "
              f"({s_row['configs_checked']} checked)")

    json_path = os.environ.get("REPRO_BENCH_JSON", "")
    if json_path:
        payload = {
            "workers": PARALLEL_WORKERS,
            "serial_wall_s": serial_wall,
            "parallel_wall_s": parallel_wall,
            "speedup": speedup,
            "configs_checked": checked,
            "serial": serial_rows,
            "parallel": parallel_rows,
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"  wrote {json_path}")
