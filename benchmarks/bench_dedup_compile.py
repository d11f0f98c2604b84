"""Cold vs dedup vs warm-store compilation of a CCSD(T)-scale batch.

The workload is several solver sweeps over the 18 NWChem-style triples
terms (the paper's headline kernel set): every sweep re-presents the
same 18 contraction shapes, which is exactly the repetition the
dedup-first compiler exploits.  Three modes over the identical batch:

* ``per-contraction`` — one full Algorithm-2/3 search per occurrence
  (the pre-dedup behaviour of the apps);
* ``dedup (cold)``    — one :class:`CompilationSession` against an
  empty store: one search per equivalence class, fanned out;
* ``warm store``      — a fresh session against the now-populated
  store: zero searches, every kernel rebuilt from JSON.

Every fanned-out kernel is asserted bit-identical (config + model
cost) to the independently searched one, and the numbers land in
``BENCH_dedup_compile.json`` at the repo root.  PR-level target:
>= 5x cold wall-clock reduction, 0 warm searches.
"""

import json
import os
import time
from pathlib import Path

from repro.apps.ccsdt import triples_terms
from repro.core.generator import Cogent
from repro.core.parser import parse_compact
from repro.core.program import CompilationSession


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

ARCH = "V100"
TOP_K = 16
N_OCC, N_VIRT = 8, 8

RESULT_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_dedup_compile.json"


def _sweep_contractions():
    """One solver sweep: the 18 d1/d2 triples terms."""
    contractions = []
    for term in triples_terms():
        sizes = {h: N_OCC for h in ("a", "b", "c")}
        sizes.update({p: N_VIRT for p in ("d", "e", "f")})
        sizes["g"] = N_OCC if term.family == "d1" else N_VIRT
        contractions.append(parse_compact(term.expr, sizes))
    return contractions


def _generator():
    return Cogent(arch=ARCH, top_k=TOP_K)


def run_modes(sweeps, store_dir):
    batch = _sweep_contractions() * sweeps

    start = time.perf_counter()
    independent = [_generator().generate(c) for c in batch]
    per_contraction_s = time.perf_counter() - start

    start = time.perf_counter()
    cold = CompilationSession(_generator(), store=store_dir).compile(batch)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm = CompilationSession(_generator(), store=store_dir).compile(batch)
    warm_s = time.perf_counter() - start

    for position, kernel in enumerate(independent):
        for mode, program in (("dedup", cold), ("store", warm)):
            other = program.kernels[position]
            assert other.config.describe() == kernel.config.describe(), (
                f"{mode} kernel {position} config diverged from the "
                "per-contraction search"
            )
            assert other.cost == kernel.cost, (
                f"{mode} kernel {position} cost diverged from the "
                "per-contraction search"
            )
    assert warm.stats.searches == 0, "warm-store run must not search"
    return {
        "batch": batch,
        "per_contraction_s": per_contraction_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold": cold,
        "warm": warm,
    }


def test_dedup_compile_speedup(benchmark, tmp_path):
    sweeps = 6 if quick_mode() else 8
    rows = benchmark.pedantic(
        run_modes, args=(sweeps, tmp_path / "store"),
        rounds=1, iterations=1,
    )
    cold, warm = rows["cold"], rows["warm"]
    speedup_cold = rows["per_contraction_s"] / rows["cold_s"]
    speedup_warm = rows["per_contraction_s"] / rows["warm_s"]
    print()
    print(f"dedup-first compilation, {ARCH} DP, top_k={TOP_K}, "
          f"{sweeps} sweeps x 18 triples terms "
          f"= {len(rows['batch'])} contractions "
          "(bit-identical kernels asserted)")
    print(f"  per-contraction : {rows['per_contraction_s'] * 1e3:9.1f} ms "
          f"({len(rows['batch'])} searches)")
    print(f"  dedup, cold     : {rows['cold_s'] * 1e3:9.1f} ms "
          f"({cold.stats.searches} searches, "
          f"{cold.stats.classes} classes, "
          f"{cold.stats.dedup_hits} dedup hits)  {speedup_cold:5.1f}x")
    print(f"  warm store      : {rows['warm_s'] * 1e3:9.1f} ms "
          f"({warm.stats.searches} searches, "
          f"{warm.stats.store_hits} store hits)  {speedup_warm:5.1f}x")

    payload = {
        "arch": ARCH,
        "top_k": TOP_K,
        "n_occupied": N_OCC,
        "n_virtual": N_VIRT,
        "sweeps": sweeps,
        "contractions": len(rows["batch"]),
        "per_contraction_s": rows["per_contraction_s"],
        "cold_dedup_s": rows["cold_s"],
        "warm_store_s": rows["warm_s"],
        "speedup_cold": speedup_cold,
        "speedup_warm": speedup_warm,
        "classes": cold.stats.classes,
        "dedup_hits": cold.stats.dedup_hits,
        "cold_searches": cold.stats.searches,
        "warm_searches": warm.stats.searches,
        "store_hits_warm": warm.stats.store_hits,
        "bit_identical": True,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {RESULT_PATH}")

    assert cold.stats.classes == 18
    assert speedup_cold >= 5.0, (
        f"dedup compilation must be >= 5x faster cold, "
        f"got {speedup_cold:.1f}x"
    )
