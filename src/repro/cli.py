"""Command-line interface for the COGENT reproduction.

Subcommands
-----------

``gen``
    Generate a kernel for a contraction expression and print the CUDA
    source (or the host driver / C emulation source).
``rank``
    Show the top configurations by cost-model rank with simulated
    performance.
``suite``
    List the TCCG benchmark suite.
``bench``
    Run a framework comparison over (a subset of) the suite and print
    the Fig. 4/5-style GFLOPS table.
``compile``
    Dedup-first workload compilation: partition a workload into
    canonical equivalence classes, search one representative per
    class (in parallel across ``--workers`` processes), fan the winner
    out to every member, and print the class table, the per-kernel
    search statistics and the dedup/store counters (optionally as
    JSON).  Class winners persist in the kernel store, so warm runs
    perform zero searches.
``tune``
    Run the Tensor-Comprehensions-style genetic autotuner and print the
    Fig. 8-style tuning curve.
``trace``
    Validate and summarise a ``--metrics-out`` observability payload
    (span-tree flamegraph plus metric counters).

The ``gen``/``rank``/``bench``/``compile``/``network``/``report``/``tune``
commands share normalized ``--arch``/``--dtype``/``--workers``/``--json``
flags with identical semantics.  ``gen``/``compile``/``network``/
``bench``/``report`` also share ``--store-dir``, the one persistent
kernel store directory (class winners and evaluation cells alike), and
``gen``/``bench``/``compile``/``network``/``tune`` accept
``--trace``/``--metrics-out`` to record an observability session
around the run.  ``rank`` and ``bench`` accept
``--strategy auto|direct|ttgt|gett|batched`` to additionally rank
execution strategies on the packing-aware DRAM-traffic model.

Examples
--------

::

    cogent gen "abcd-aebf-dfce" --sizes 24 --arch V100 --workers 4
    cogent rank "abcdef-gdab-efgc" --sizes 24 --top 10
    cogent bench --group ccsd_t --arch P100
    cogent compile --group ml --workers 4 --store-dir .store --json c.json
    cogent tune sd_t_d2_1 --population 20 --generations 5
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.generator import Cogent
from .core.ir import ContractionError
from .core.parser import parse, parse_size_spec
from .core.plan import KernelPlan
from .core.program import CompilationSession
from .evaluation import SuiteRunner, curve_table, format_table, to_csv
from .gpu.arch import ARCHS
from .tccg import all_benchmarks, by_group, get


def _common_parent() -> argparse.ArgumentParser:
    """Shared ``--arch``/``--dtype``/``--target`` flags (identical on
    every command)."""
    from .core.codegen import list_targets

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--arch", default="V100", choices=sorted(ARCHS),
        help="target GPU architecture (default V100)",
    )
    p.add_argument(
        "--dtype", default="double", choices=("double", "float"),
        help="element type (default double)",
    )
    p.add_argument(
        "--target", default=None, choices=list_targets(),
        help="codegen target for emitted kernels (default cuda)",
    )
    return p


def _run_parent() -> argparse.ArgumentParser:
    """Shared ``--workers``/``--json`` flags.

    Semantics are identical on every command that accepts them:
    ``--workers`` is the process-pool width (1 = serial; parallel runs
    are deterministic and identical to serial), ``--json`` a file to
    also write the command's results to as JSON.
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--workers", type=int, default=1,
        help="process-pool width (default 1 = serial)",
    )
    p.add_argument(
        "--json", metavar="FILE",
        help="also write the command's results as JSON",
    )
    return p


def _store_parent() -> argparse.ArgumentParser:
    """Shared ``--store-dir`` flag: the one persistent kernel store."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--store-dir", metavar="DIR",
        help="content-addressed persistent kernel store directory "
        "(class winners and evaluation cells); warm runs against a "
        "populated store perform zero searches and re-evaluations",
    )
    return p


def _strategy_parent() -> argparse.ArgumentParser:
    """Shared ``--strategy`` flag (execution-strategy family)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--strategy", default=None,
        choices=("auto", "direct", "ttgt", "gett", "batched"),
        help="execution strategy to rank/report: 'auto' compares "
        "direct/ttgt/gett/batched on the packing-aware DRAM-traffic "
        "model; a fixed name restricts to that family (default: "
        "omit strategy reporting)",
    )
    return p


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags (``--trace``/``--metrics-out``)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--trace", action="store_true",
        help="trace pipeline stages; print the self-time profile and "
        "metric counters to stderr afterwards",
    )
    p.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the full span trace + metrics payload "
        "(repro.obs.v1 JSON) to FILE",
    )
    return p


def _dtype_bytes(args: argparse.Namespace) -> int:
    return 8 if args.dtype == "double" else 4


def _resolve_contraction(
    args: argparse.Namespace, allow_batched: bool = False
):
    """Expression string or TCCG benchmark name/id -> Contraction."""
    expr = args.expr
    try:
        bench = get(int(expr) if expr.isdigit() else expr)
        return bench.contraction()
    except KeyError:
        pass
    sizes = parse_size_spec(args.sizes)
    try:
        return parse(expr, sizes)
    except ContractionError:
        if not allow_batched:
            raise
        # Batch indices (present in all three tensors) fail the plain
        # parser; commands that understand BatchedContraction retry.
        from .core.batched import parse_batched

        return parse_batched(expr, sizes)


def _make_generator(args: argparse.Namespace, **extra) -> Cogent:
    """Build a Cogent from normalized CLI flags; ``extra`` keywords
    (``workers`` included) override them."""
    kwargs = dict(
        arch=args.arch, dtype_bytes=_dtype_bytes(args),
        workers=getattr(args, "workers", 1),
        target=getattr(args, "target", None) or "cuda",
    )
    kwargs.update(extra)
    return Cogent(**kwargs)


def cmd_gen(args: argparse.Namespace) -> int:
    """Generate a kernel and print/write the chosen backend's source."""
    cogent = _make_generator(
        args, top_k=args.top_k, allow_split=not args.no_split
    )
    session = CompilationSession(cogent, store=args.store_dir)
    kernel = session.compile([_resolve_contraction(args)]).kernels[0]
    # --target selects a registered backend directly; the legacy --emit
    # spellings map onto the same registry names ("driver" = the cuda
    # host driver).
    if args.target:
        source = kernel.driver_source(args.target) if args.emit == "driver" \
            else kernel.source(args.target)
    elif args.emit == "driver":
        source = kernel.driver_source("cuda")
    else:
        source = kernel.source(args.emit)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(source)
        print(f"wrote {args.output}")
    else:
        print(source)
    print("// " + kernel.summary().replace("\n", "\n// "), file=sys.stderr)
    if args.metrics:
        from .gpu.metrics import collect_metrics

        metrics = collect_metrics(
            kernel.plan, cogent.arch,
            simulated=kernel.candidates[0].simulated,
        )
        print(metrics.report(), file=sys.stderr)
    if args.json:
        import json

        sim = kernel.candidates[0].simulated
        payload = {
            "arch": args.arch,
            "dtype": args.dtype,
            "expr": args.expr,
            "config": kernel.config.describe(),
            "cost": kernel.cost,
            "gflops": sim.gflops if sim else None,
            "generation_s": kernel.generation_time_s,
            "selection_mode": kernel.selection_mode,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Validate a generated kernel against numpy.einsum."""
    from .core.validate import ALL_CHECKS, validate_kernel

    cogent = _make_generator(args)
    contraction = _resolve_contraction(args)
    # Validation executes the schedule in numpy; keep extents small.
    shrunk = {
        i: min(contraction.extent(i), args.max_extent)
        for i in contraction.all_indices
    }
    kernel = cogent.generate(contraction.with_sizes(shrunk))
    checks = args.checks.split(",") if args.checks else ALL_CHECKS
    report = validate_kernel(kernel, checks)
    print(f"verifying {kernel.contraction} "
          f"(config {kernel.config.describe()})")
    print(report.summary())
    return 0 if report.passed else 1


def cmd_save(args: argparse.Namespace) -> int:
    """Generate a kernel and persist it as a package directory."""
    from .core.serialize import save_kernel

    cogent = _make_generator(args, top_k=args.top_k)
    kernel = cogent.generate(_resolve_contraction(args))
    out = save_kernel(kernel, args.directory)
    print(f"saved kernel package to {out}")
    print(kernel.summary())
    return 0


def _rule_pruning(cogent: Cogent, contraction) -> dict:
    """Per-rule pruned counts of one streaming search.

    Rules run in canonical order, so each pruned configuration is
    charged to the first rule it violates.
    """
    enumerator = cogent._enumerator(contraction)
    enumerator.search(keep=1)
    return {
        name: {"checks": stats.checks, "rejections": stats.rejections}
        for name, stats in enumerator.checker.rule_stats.items()
    }


def _strategy_selector(args: argparse.Namespace):
    """StrategySelector from the normalized --strategy flag (or None)."""
    choice = getattr(args, "strategy", None)
    if choice is None:
        return None
    from .strategies import StrategySelector

    names = None if choice == "auto" else (choice,)
    return StrategySelector(
        arch=args.arch,
        dtype_bytes=_dtype_bytes(args),
        **({"strategies": names} if names else {}),
    )


def _print_strategy_choice(choice) -> None:
    """Human-readable per-strategy traffic table for one contraction."""
    print("\nexecution strategies (modeled 128B transactions):")
    print(f"{'strategy':<9} {'macro':>12} {'pack':>10} {'unpack':>10} "
          f"{'total':>12}")
    for name, traffic in choice.ranking:
        if not traffic.applicable:
            print(f"{name:<9} {'n/a':>12}")
            continue
        mark = " <- selected" if name == choice.selected else ""
        print(f"{name:<9} {traffic.macro:>12} {traffic.pack:>10} "
              f"{traffic.unpack:>10} {traffic.total:>12}{mark}")


def cmd_rank(args: argparse.Namespace) -> int:
    """Print the top cost-model-ranked configurations."""
    contraction = _resolve_contraction(args, allow_batched=True)
    # Config ranking searches the inner (per-batch-element) kernel for
    # batched contractions; strategy ranking sees the whole problem.
    core = getattr(contraction, "inner", contraction)
    cogent = _make_generator(args)
    ranked = cogent.rank_configs(core)
    print(f"{len(ranked)} configurations after pruning; top {args.top}:")
    print(f"{'rank':>4} {'cost(txns)':>12} {'GFLOPS':>9}  config")
    rows = []
    for pos, (config, cost) in enumerate(ranked[: args.top]):
        plan = KernelPlan(core, config, _dtype_bytes(args))
        sim = cogent.predict(plan)
        print(f"{pos:>4} {cost:>12} {sim.gflops:>9.1f}  {config.describe()}")
        rows.append({
            "rank": pos,
            "cost": cost,
            "gflops": sim.gflops,
            "config": config.describe(),
        })
    selector = _strategy_selector(args)
    strategy_choice = None
    if selector is not None:
        strategy_choice = selector.choose(contraction)
        _print_strategy_choice(strategy_choice)
    pruning = _rule_pruning(cogent, core)
    print("\nper-rule pruned counts:")
    print(f"{'rule':<22} {'rejected':>9} {'checked':>9}")
    for rule, counts in pruning.items():
        print(f"{rule:<22} {counts['rejections']:>9} "
              f"{counts['checks']:>9}")
    if args.json:
        import json

        payload = {
            "arch": args.arch,
            "dtype": args.dtype,
            "expr": args.expr,
            "pruned_total": len(ranked),
            "rule_pruning": pruning,
            "top": rows,
        }
        if strategy_choice is not None:
            payload["strategy"] = strategy_choice.as_dict()
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    """List (or export) the TCCG benchmark definitions."""
    benches = by_group(args.group) if args.group else all_benchmarks()
    if args.export:
        from .tccg.io import dump

        dump(benches, args.export)
        print(f"wrote {len(benches)} benchmark definitions to "
              f"{args.export}")
        return 0
    for bench in benches:
        flops = bench.flops / 1e9
        print(f"{bench!s:<45} group={bench.group:<7} {flops:8.2f} GFLOP")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the framework comparison and print the GFLOPS table."""
    import json

    benches = _select_benches(args)
    runner = SuiteRunner(
        arch=args.arch,
        dtype_bytes=_dtype_bytes(args),
        store_dir=args.store_dir,
    )
    frameworks = args.frameworks.split(",")
    rows = runner.compare(benches, frameworks, workers=args.workers)
    stats = runner.last_stats
    selector = _strategy_selector(args)
    suite_selection = None
    if selector is not None:
        suite_selection = selector.rank_suite(
            [bench.contraction() for bench in benches],
            labels=[bench.name for bench in benches],
        )
    if args.csv:
        print(to_csv(rows, frameworks))
    else:
        print(
            format_table(
                rows, frameworks,
                title=f"TCCG benchmark, {args.arch}, {args.dtype} "
                "(simulated GFLOPS)",
            )
        )
        print(f"pipeline: {stats.summary()}")
    if suite_selection is not None and not args.csv:
        print("\nstrategy winners (modeled 128B transactions):")
        col = suite_selection.strategies.index("direct")
        for i, (label, winner) in enumerate(
            zip(suite_selection.labels, suite_selection.winners)
        ):
            best = int(suite_selection.matrix[i].min())
            direct = int(suite_selection.matrix[i, col])
            saved = (1 - best / direct) * 100 if direct else 0.0
            print(f"  {label:<14} {winner:<8} "
                  f"total={best:>12} ({saved:+.1f}% vs direct)")
        counts = ", ".join(
            f"{name}={count}"
            for name, count in suite_selection.winner_counts.items()
            if count
        )
        print(f"  distribution: {counts}; suite traffic uplift "
              f"{suite_selection.traffic_uplift * 100:.1f}% vs "
              f"always-direct")
    if args.json:
        payload = {
            "arch": args.arch,
            "dtype": args.dtype,
            "workers": args.workers,
            "store_dir": args.store_dir,
            "stats": stats.as_dict(),
            "rows": [
                {
                    "id": row.benchmark.id,
                    "name": row.benchmark.name,
                    "expr": row.benchmark.expr,
                    "results": {
                        framework: result.as_dict()
                        for framework, result in row.results.items()
                    },
                }
                for row in rows
            ],
        }
        if suite_selection is not None:
            payload["strategy"] = suite_selection.as_dict()
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _select_benches(args: argparse.Namespace):
    """TCCG benchmark selection shared by bench/compile (file > names > group)."""
    if getattr(args, "file", None):
        from .tccg.io import load

        benches = tuple(load(args.file))
    elif getattr(args, "names", None):
        benches = tuple(
            get(int(n) if n.isdigit() else n) for n in args.names
        )
    else:
        benches = by_group(args.group) if args.group else all_benchmarks()
    if getattr(args, "limit", 0):
        benches = benches[: args.limit]
    return benches


def cmd_compile(args: argparse.Namespace) -> int:
    """Dedup-first workload compilation with per-kernel search stats."""
    import json

    benches = _select_benches(args)
    cogent = _make_generator(args, top_k=args.top_k)
    session = CompilationSession(cogent, store=args.store_dir)
    program = session.compile(
        [bench.contraction() for bench in benches], workers=args.workers
    )
    kernels = program.kernels
    wall_s = program.stats.wall_s

    print(f"workload of {len(benches)} contractions, {args.arch}, "
          f"{args.dtype}, {args.workers} worker(s)"
          + (f", store {args.store_dir}" if args.store_dir else ""))
    print(f"{'class':<26} {'src':<7} {'members':<18} config")
    for info in program.classes:
        member_names = ",".join(
            benches[pos].name for pos in info.members
        )
        print(f"{info.key:<26} {info.source:<7} {member_names:<18} "
              f"{kernels[info.representative].config.describe()}")
    print()
    print(f"{'#':>3} {'benchmark':<14} {'raw':>7} {'kept':>5} "
          f"{'pruned%':>8} {'cfg/s':>9} {'search':>9} {'gen':>9} "
          f"{'GFLOPS':>8}")
    rows = []
    total_checked = 0
    for bench, kernel in zip(benches, kernels):
        stats = kernel.enumeration.stats
        search = kernel.enumeration.search_stats
        sim = kernel.candidates[0].simulated
        checked = search.configs_checked if search else 0
        total_checked += checked
        print(f"{bench.id:>3} {bench.name:<14} "
              f"{stats.raw_combinations:>7} "
              f"{len(kernel.enumeration.configs):>5} "
              f"{stats.pruned_fraction * 100:>7.1f}% "
              f"{search.configs_per_second if search else 0:>9,.0f} "
              f"{(search.total_s if search else 0) * 1e3:>7.1f}ms "
              f"{kernel.generation_time_s * 1e3:>7.1f}ms "
              f"{sim.gflops if sim else 0:>8.1f}")
        rows.append({
            "id": bench.id,
            "name": bench.name,
            "expr": bench.expr,
            "config": kernel.config.describe(),
            "cost": kernel.cost,
            "gflops": sim.gflops if sim else None,
            "generation_s": kernel.generation_time_s,
            "selection_mode": kernel.selection_mode,
            "search": search.as_dict() if search else None,
        })
    gen_sum = sum(k.generation_time_s for k in kernels)
    print(program.stats.summary())
    print(f"wall-time {wall_s:.2f} s "
          f"(sum of per-kernel generation {gen_sum:.2f} s, "
          f"{total_checked / wall_s if wall_s else 0:,.0f} configs/s "
          f"aggregate)")
    if args.json:
        payload = {
            "arch": args.arch,
            "dtype": args.dtype,
            "workers": args.workers,
            "store_dir": args.store_dir,
            "wall_s": wall_s,
            "configs_checked": total_checked,
            "dedup": program.as_dict(),
            "kernels": rows,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def cmd_network(args: argparse.Namespace) -> int:
    """Whole-network compilation through the staged pipeline."""
    import json

    from .core.parser import parse_size_spec as _sizes
    from .core.pipeline import NetworkPipeline

    cogent = _make_generator(args, top_k=args.top_k)
    pipeline = NetworkPipeline(
        cogent,
        store=args.store_dir,
        memory_cap=args.memory_cap,
        workers=max(1, args.workers),
    )
    net = pipeline.compile(args.expr, _sizes(args.sizes))

    print(net.summary())
    plan = net.memory_plan
    print(f"arena  : {len(plan.buffer_bytes)} buffer(s): "
          + ", ".join(f"{b} B" for b in plan.buffer_bytes))
    if args.json:
        payload = net.as_dict()
        payload["arch"] = args.arch
        payload["dtype"] = args.dtype
        payload["store_dir"] = args.store_dir
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate the Figs. 4-8 experiment report."""
    from .evaluation.report import generate_report

    archs = ("P100", "V100") if args.arch is None else (args.arch,)
    text = generate_report(
        quick=not args.full,
        archs=archs,
        workers=args.workers,
        store_dir=args.store_dir,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    if args.json:
        import json

        payload = {
            "quick": not args.full,
            "archs": list(archs),
            "workers": args.workers,
            "store_dir": args.store_dir,
            "report": text,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    """Run the TC-style genetic autotuner and print its curve."""
    from .baselines.tc import TcAutotuner
    from .gpu.arch import get_arch

    contraction = _resolve_contraction(args)
    if args.guided:
        return _cmd_tune_guided(args, contraction)
    tuner = TcAutotuner(
        get_arch(args.arch),
        dtype_bytes=_dtype_bytes(args),
        population=args.population,
        generations=args.generations,
        seed=args.seed,
    )
    result = tuner.tune(contraction)
    print(f"untuned: {result.untuned_gflops:.2f} GFLOPS")
    print(curve_table(result.curve, stride=max(1, len(result.curve) // 12)))
    print(
        f"best: {result.best_gflops:.1f} GFLOPS after "
        f"{result.evaluations} code versions "
        f"(modeled tuning time {result.modeled_tuning_time_s:.0f} s)"
    )
    cogent = _make_generator(args)
    kernel = cogent.generate(contraction)
    print(
        f"COGENT (model-driven): "
        f"{kernel.candidates[0].simulated.gflops:.1f} GFLOPS in "
        f"{kernel.generation_time_s:.2f} s of code generation"
    )
    if args.json:
        import json

        payload = {
            "arch": args.arch,
            "dtype": args.dtype,
            "expr": args.expr,
            "population": args.population,
            "generations": args.generations,
            "seed": args.seed,
            "evaluations": result.evaluations,
            "untuned_gflops": result.untuned_gflops,
            "best_gflops": result.best_gflops,
            "modeled_tuning_time_s": result.modeled_tuning_time_s,
            "cogent_gflops": kernel.candidates[0].simulated.gflops,
            "curve": list(result.curve),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_tune_guided(args: argparse.Namespace, contraction) -> int:
    """Run the model-guided measurement loop (Fig. 8)."""
    from . import api

    options = api.Options(arch=args.arch, dtype=args.dtype)
    result = api.tune(
        contraction,
        options=options,
        seed=args.seed,
        guided=True,
        budget=args.budget,
        shortlist=args.shortlist,
    )
    report = result.report
    print(
        f"shortlist: {report.shortlist} candidates, "
        f"budget {args.budget} measurements"
    )
    if result.curve:
        print(curve_table(result.curve, stride=1))
    print(
        f"best: {result.best_gflops:.1f} GFLOPS after "
        f"{report.measurements} simulated measurements "
        f"({report.rounds} rounds, "
        f"{'stabilized' if report.stabilized else 'budget exhausted'})"
    )
    if args.json:
        import json

        payload = {
            "arch": args.arch,
            "dtype": args.dtype,
            "expr": args.expr,
            "seed": args.seed,
            "budget": args.budget,
            "shortlist": args.shortlist,
            "guided": result.as_dict(),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarise a saved observability payload (repro.obs.v1)."""
    import json

    from . import obs

    try:
        with open(args.file) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    errors = obs.validate_payload(payload)
    if errors:
        print(f"{args.file}: INVALID ({len(errors)} error(s))")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(f"schema: {payload['schema']}")
    meta = payload.get("meta") or {}
    if meta:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        print(f"meta:   {pairs}")
    print()
    print(obs.flamegraph_text(payload["trace"]))
    registry = obs.MetricsRegistry.from_dict(payload["metrics"])
    summary = registry.summary(args.prefix)
    if summary:
        print()
        print(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line interface."""
    parser = argparse.ArgumentParser(
        prog="cogent",
        description="Model-driven GPU code generator for tensor "
        "contractions (CGO 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parent()
    run_opts = _run_parent()
    store_opts = _store_parent()
    obs_opts = _obs_parent()

    p_gen = sub.add_parser(
        "gen", help="generate a kernel",
        parents=[common, run_opts, store_opts, obs_opts],
    )
    p_gen.add_argument("expr", help="contraction expression or TCCG name")
    p_gen.add_argument("--sizes", help="extents, e.g. '24' or 'a=16,b=32'")
    p_gen.add_argument(
        "--emit", default="cuda",
        choices=("cuda", "driver", "cemu", "opencl"),
    )
    p_gen.add_argument("--top-k", type=int, default=64)
    p_gen.add_argument("--no-split", action="store_true")
    p_gen.add_argument(
        "--metrics", action="store_true",
        help="print a profiler-style metric report to stderr",
    )
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser(
        "verify", help="validate a kernel against numpy.einsum",
        parents=[common],
    )
    p_verify.add_argument("expr", help="expression or TCCG name")
    p_verify.add_argument("--sizes")
    p_verify.add_argument(
        "--checks", help="comma list: plan,cemu,opencl,openmp,trace"
    )
    p_verify.add_argument(
        "--max-extent", type=int, default=10,
        help="shrink extents for the numerical checks (default 10)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_save = sub.add_parser(
        "save", help="generate and persist a kernel package",
        parents=[common],
    )
    p_save.add_argument("expr", help="contraction expression or TCCG name")
    p_save.add_argument("directory", help="output directory")
    p_save.add_argument("--sizes")
    p_save.add_argument("--top-k", type=int, default=64)
    p_save.set_defaults(func=cmd_save)

    strategy_opts = _strategy_parent()
    p_rank = sub.add_parser(
        "rank", help="rank configurations by cost",
        parents=[common, run_opts, strategy_opts],
    )
    p_rank.add_argument("expr")
    p_rank.add_argument("--sizes")
    p_rank.add_argument("--top", type=int, default=10)
    p_rank.set_defaults(func=cmd_rank)

    p_suite = sub.add_parser("suite", help="list TCCG benchmarks")
    p_suite.add_argument("--group", choices=("ml", "mo", "ccsd", "ccsd_t"))
    p_suite.add_argument(
        "--export", metavar="FILE",
        help="write the definitions to a benchmark file",
    )
    p_suite.set_defaults(func=cmd_suite)

    p_bench = sub.add_parser(
        "bench", help="compare frameworks",
        parents=[common, run_opts, store_opts, obs_opts, strategy_opts],
    )
    p_bench.add_argument("--group", choices=("ml", "mo", "ccsd", "ccsd_t"))
    p_bench.add_argument(
        "--file", metavar="FILE",
        help="run benchmarks from a definition file instead of the suite",
    )
    p_bench.add_argument("--limit", type=int, default=0)
    p_bench.add_argument(
        "--frameworks", default="cogent,nwchem,talsh",
        help="comma list: cogent,cogent_strategy,nwchem,talsh,tc,"
        "tc_untuned",
    )
    p_bench.add_argument("--csv", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    p_compile = sub.add_parser(
        "compile",
        help="dedup-first workload compilation (one search per "
        "equivalence class, persistent kernel store)",
        parents=[common, run_opts, store_opts, obs_opts],
    )
    p_compile.add_argument(
        "names", nargs="*",
        help="TCCG benchmark names/ids (default: the selected group)",
    )
    p_compile.add_argument(
        "--group", choices=("ml", "mo", "ccsd", "ccsd_t"),
    )
    p_compile.add_argument(
        "--file", metavar="FILE",
        help="compile contractions from a benchmark definition file",
    )
    p_compile.add_argument("--limit", type=int, default=0)
    p_compile.add_argument("--top-k", type=int, default=64)
    p_compile.set_defaults(func=cmd_compile)

    p_network = sub.add_parser(
        "network",
        help="compile an n-ary contraction network through the staged "
        "pipeline (path search, memory plan, dedup, codegen)",
        parents=[common, run_opts, store_opts, obs_opts],
    )
    p_network.add_argument(
        "expr", help="n-ary network, e.g. 'ab,bc,cd->ad'",
    )
    p_network.add_argument(
        "--sizes", help="extents, e.g. '24' or 'a=16,b=32'",
    )
    p_network.add_argument("--top-k", type=int, default=64)
    p_network.add_argument(
        "--memory-cap", type=int, metavar="ELEMS",
        help="largest intermediate (elements) the path may create",
    )
    p_network.set_defaults(func=cmd_network)

    # Report gets its own parent instance: set_defaults mutates the
    # shared --arch action, and report defaults to covering both GPUs
    # unless --arch narrows it down.
    report_common = _common_parent()
    report_common.set_defaults(arch=None)
    p_report = sub.add_parser(
        "report", help="regenerate the experiment report (Figs. 4-8)",
        parents=[report_common, run_opts, store_opts],
    )
    p_report.add_argument(
        "--full", action="store_true",
        help="run the full 48-entry suite (minutes) instead of a sample",
    )
    p_report.add_argument("-o", "--output")
    p_report.set_defaults(func=cmd_report)

    p_tune = sub.add_parser(
        "tune", help="run the TC-style autotuner",
        parents=[common, run_opts, obs_opts],
    )
    p_tune.add_argument("expr")
    p_tune.add_argument("--sizes")
    p_tune.add_argument("--population", type=int, default=20)
    p_tune.add_argument("--generations", type=int, default=5)
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.add_argument(
        "--guided", action="store_true",
        help="run the model-guided loop instead of the genetic "
        "baseline: the simulator measures a handful of model-ranked "
        "candidates with exact-replay traffic, an online correction "
        "re-ranks the rest, and the loop stops when the predicted best "
        "stabilises (Fig. 8)",
    )
    p_tune.add_argument(
        "--budget", type=int, default=8,
        help="guided mode: maximum simulated measurements (default 8)",
    )
    p_tune.add_argument(
        "--shortlist", type=int, default=64,
        help="guided mode: model-ranked candidates considered "
        "(default 64)",
    )
    p_tune.set_defaults(func=cmd_tune)

    p_trace = sub.add_parser(
        "trace",
        help="validate and summarise a saved --metrics-out payload",
    )
    p_trace.add_argument("file", help="repro.obs.v1 JSON file")
    p_trace.add_argument(
        "--prefix", help="only show counters starting with this prefix"
    )
    p_trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace = getattr(args, "trace", False)
    metrics_out = getattr(args, "metrics_out", None)
    if not (trace or metrics_out):
        return args.func(args)

    from . import obs

    with obs.tracing(meta={"command": args.command}) as session:
        status = args.func(args)
    if metrics_out:
        import json

        payload = session.payload()
        with open(metrics_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {metrics_out}", file=sys.stderr)
    if trace:
        print(session.flamegraph(), file=sys.stderr)
        summary = session.metrics.summary()
        if summary:
            print(summary, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
