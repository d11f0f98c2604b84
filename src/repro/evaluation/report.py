"""One-command experiment report generation.

``cogent report`` (or :func:`generate_report`) re-runs the paper's
experiments end-to-end and writes a Markdown document with every table
and series — the artifact-style "regenerate the paper's numbers"
entry point.  A ``quick`` mode samples each group instead of running
the full 48-entry suite.
"""

from __future__ import annotations

import io
import time
from pathlib import Path
from typing import Optional, Sequence, Union

from ..baselines.tc import TcAutotuner
from ..core.generator import Cogent
from ..gpu.arch import get_arch
from ..tccg import SD2_1, SD2_SUBSET, all_benchmarks, by_group
from .plots import grouped_bars, line_plot
from .runner import SuiteRunner, speedup_summary
from .tables import curve_table, format_table


def _selection(quick: bool):
    if not quick:
        return all_benchmarks()
    picks = []
    for group in ("ml", "mo", "ccsd", "ccsd_t"):
        picks.extend(by_group(group)[:2])
    return tuple(picks)


def _fig45(out: io.StringIO, arch_name: str, figure: int,
           quick: bool, workers: int = 1,
           store_dir: Optional[Union[str, Path]] = None) -> None:
    runner = SuiteRunner(arch=arch_name, store_dir=store_dir)
    frameworks = ("cogent", "nwchem", "talsh")
    rows = runner.compare(_selection(quick), frameworks, workers=workers)
    out.write(f"## Fig. {figure} — TCCG suite on {arch_name} "
              "(double precision)\n\n```\n")
    out.write(format_table(rows, frameworks))
    out.write("```\n\n")
    gm_nw, mx_nw = speedup_summary(rows, over="nwchem")
    gm_ts, mx_ts = speedup_summary(rows, over="talsh")
    out.write(
        f"COGENT vs NWChem: geomean {gm_nw:.2f}x, max {mx_nw:.2f}x. "
        f"COGENT vs TAL_SH: geomean {gm_ts:.2f}x, max {mx_ts:.2f}x.\n\n"
    )
    highlight = rows[: min(5, len(rows))]
    out.write("```\n")
    out.write(grouped_bars(highlight, frameworks,
                           title=f"Fig. {figure} excerpt:"))
    out.write("\n```\n\n")
    out.write(f"_Pipeline: {runner.last_stats.summary()}_\n\n")


def _fig67(out: io.StringIO, quick: bool, workers: int = 1,
           store_dir: Optional[Union[str, Path]] = None) -> None:
    population, generations = (10, 3) if quick else (40, 10)
    for arch_name, figure in (("P100", 6), ("V100", 7)):
        runner = SuiteRunner(
            arch=arch_name, dtype_bytes=4,
            tc_population=population, tc_generations=generations,
            store_dir=store_dir,
        )
        frameworks = ("cogent", "tc", "tc_untuned")
        rows = runner.compare(SD2_SUBSET, frameworks, workers=workers)
        out.write(f"## Fig. {figure} — COGENT vs Tensor Comprehensions "
                  f"on {arch_name} (SD2, single precision)\n\n```\n")
        out.write(format_table(rows, frameworks))
        out.write("```\n\n")
        out.write(f"_Pipeline: {runner.last_stats.summary()}_\n\n")


def _fig8(out: io.StringIO, quick: bool) -> None:
    population, generations = (10, 4) if quick else (40, 10)
    contraction = SD2_1.contraction()
    tuner = TcAutotuner(
        get_arch("V100"), dtype_bytes=4,
        population=population, generations=generations, seed=0,
    )
    result = tuner.tune(contraction)
    cogent = Cogent(arch="V100", dtype_bytes=4).generate(contraction)
    cogent_gflops = cogent.candidates[0].simulated.gflops
    out.write("## Fig. 8 — tuning curve on SD2_1 (V100, SP)\n\n```\n")
    out.write(curve_table(result.curve,
                          stride=max(1, len(result.curve) // 12)))
    out.write(
        f"\nTC untuned {result.untuned_gflops:.2f} GFLOPS; tuned "
        f"{result.best_gflops:.1f} GFLOPS after {result.evaluations} "
        f"versions (~{result.modeled_tuning_time_s:.0f} s); COGENT "
        f"{cogent_gflops:.1f} GFLOPS in "
        f"{cogent.generation_time_s:.2f} s.\n"
    )
    out.write(line_plot(
        {"TC best-so-far": list(result.curve)},
        hlines={"COGENT": cogent_gflops},
    ))
    out.write("\n```\n\n")


def _pruning(out: io.StringIO, quick: bool) -> None:
    from ..core.enumeration import Enumerator, paper_search_space
    from ..gpu.arch import VOLTA_V100

    total_space = total_kept = 0
    for bench in _selection(quick):
        contraction = bench.contraction()
        stats = Enumerator(contraction, VOLTA_V100).search(keep=1).stats
        total_space += paper_search_space(contraction)
        total_kept += stats.accepted
    fraction = 1 - total_kept / total_space
    out.write("## §IV-A — pruning\n\n")
    out.write(
        f"{total_kept} configurations kept out of a naive space of "
        f"{total_space} ({fraction * 100:.3f}% pruned; paper ~97%).\n\n"
    )


def generate_report(
    quick: bool = True,
    archs: Sequence[str] = ("P100", "V100"),
    workers: int = 1,
    store_dir: Optional[Union[str, Path]] = None,
) -> str:
    """Build the Markdown report; returns the document text.

    ``workers`` fans the framework-comparison cells across processes;
    ``store_dir`` persists their results in a kernel store, so
    re-running the report is incremental (only changed cells are
    re-evaluated).
    """
    from .. import obs

    out = io.StringIO()
    started = time.perf_counter()
    with obs.span("report"):
        _write_report(out, quick, archs, workers, store_dir)
    out.write(
        f"_Report generated in {time.perf_counter() - started:.1f} s._\n"
    )
    return out.getvalue()


def _write_report(
    out: io.StringIO,
    quick: bool,
    archs: Sequence[str],
    workers: int,
    store_dir: Optional[Union[str, Path]],
) -> None:
    out.write("# COGENT reproduction — experiment report\n\n")
    mode = "quick sample" if quick else "full 48-entry suite"
    out.write(f"Mode: {mode}. All GPU numbers come from the "
              "performance simulator (see DESIGN.md).\n\n")
    for arch_name, figure in zip(archs, (4, 5)):
        _fig45(out, arch_name, figure, quick, workers, store_dir)
    _fig67(out, quick, workers, store_dir)
    _fig8(out, quick)
    _pruning(out, quick)
