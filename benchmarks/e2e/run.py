#!/usr/bin/env python3
"""End-to-end benchmark of the COGENT reproduction on CPU.

Usage::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--out FILE]

Runs each workload (all three without ``--workload``) in fresh child
processes: set-up runs five times and ``setup_s`` is the median, and
the last child also measures for ``--seconds``.  Every output is
checked.  The table lists every metric by name and unit, one row per
workload; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace`` the metrics are the per-layer numbers of ``BENCHMARK.json``
instead of the end-to-end ones.  ``--out FILE`` appends this run to a
JSON file of runs, the input of ``compare.py``.  ``--smoke`` shrinks
every workload to a few items and one pass.

The benchmark sets ``PYTHONPATH`` to the checkout's ``src`` itself,
pins ``OMP_NUM_THREADS`` and the BLAS thread counts to one, and keeps
every file it writes under ``benchmarks/e2e/.work``, which it removes
again.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-up runs per workload; ``setup_s`` is their median.
SETUP_RUNS = 5
#: Seconds one workload may take beyond ``--seconds`` before it is
#: killed: its set-ups, the end of the last pass and the checks.
WORKLOAD_MARGIN_S = 150
#: Pinned to one thread: the caller is synchronous, and on a few shared
#: cores a second thread would time the scheduler, not the program.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
)


class BenchmarkError(RuntimeError):
    """A child failed, timed out or reported the wrong metrics."""


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: Optional[List[str]], spec: Dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]],
        help="run one workload (default: all of them)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="measure whole passes until this many seconds have passed",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer metrics of a traced run",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="a few items and one pass per workload")
    parser.add_argument("--out", type=Path,
                        help="append this run to a JSON file of runs")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child processes ----------------------------------------------------------


def child_env(tmpdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    env["TMPDIR"] = str(tmpdir)
    return env


def spawn(args: List[str], env: Dict[str, str], timeout: float) -> Dict:
    """Run one child to completion and return its JSON result."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--child", *args],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env,
        text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except BaseException:
        # Timeout or interrupt: stop the child and every program it ran.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchmarkError(
            f"child {' '.join(args)} exited with code {proc.returncode}"
        )
    return json.loads(out.strip().splitlines()[-1])


def run_workload(
    name: str, args: argparse.Namespace, env: Dict[str, str]
) -> Dict:
    seconds = 0 if args.smoke else args.seconds
    deadline = time.monotonic() + seconds + WORKLOAD_MARGIN_S
    child_args = [
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    runs = 1 if args.smoke or args.trace else SETUP_RUNS
    setups = []
    try:
        for _ in range(runs - 1):
            result = spawn(child_args + ["--setup-only"], env,
                           deadline - time.monotonic())
            setups.append(result["setup_s"])
        result = spawn(child_args, env, deadline - time.monotonic())
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{name} timed out") from exc
    setups.append(result["setup_s"])
    result["setup_samples"] = setups
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def with_units(name: str, result: Dict, specs: List[Dict]) -> Dict:
    """The child's metrics as ``{name: {value, unit}}``, checked
    against ``BENCHMARK.json``."""
    metrics = result["metrics"]
    expected = {m["name"] for m in specs}
    if set(metrics) != expected:
        raise BenchmarkError(
            f"{name} reported {sorted(set(metrics) ^ expected)} "
            "against BENCHMARK.json"
        )
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in specs
    }


# -- reporting ----------------------------------------------------------------


def cc_version() -> str:
    try:
        proc = subprocess.run(["cc", "--version"], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"
    return proc.stdout.splitlines()[0]


def fmt(value) -> str:
    if isinstance(value, bool) or isinstance(value, str):
        return str(value)
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def print_table(header: List[str], rows: List[List]) -> None:
    cells = [header] + [[fmt(v) for v in row] for row in rows]
    widths = [max(len(row[col]) for row in cells)
              for col in range(len(header))]
    for row in cells:
        print("  ".join(c.rjust(w) if i else c.ljust(w)
                        for i, (c, w) in enumerate(zip(row, widths))))


def report(results: Dict[str, Dict], specs: List[Dict], trace: bool) -> None:
    if trace:
        header = ["metric", "unit"] + list(results)
        rows = [
            [m["name"], m["unit"]]
            + [r["metrics"][m["name"]]["value"] for r in results.values()]
            for m in specs
        ]
        print("per-layer numbers, per pass of each workload (traced run)")
        print_table(header, rows)
    else:
        header = ["workload"] + [f"{m['name']} [{m['unit']}]" for m in specs]
        rows = [
            [name] + [r["metrics"][m["name"]]["value"] for m in specs]
            for name, r in results.items()
        ]
        print_table(header, rows)
        print()
        print("not gated: percentiles with their sample counts, throughput")
        info = list(next(iter(results.values()))["info"])
        print_table(
            ["workload"] + info,
            [[name] + [r["info"][key] for key in info]
             for name, r in results.items()],
        )
    print()
    print_table(
        ["workload", "attempted", "failed", "correct", "failures"],
        [[name, r["attempted"], r["failed"], r["correct"],
          ", ".join(f"{k} x{v}" for k, v in
                    r["failures"]["by_item"].items()) or "-"]
         for name, r in results.items()],
    )


def append_run(path: Path, record: Dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].append(record)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.child:
        setup_start = time.perf_counter()
        import workloads  # the set-up clock covers importing repro

        result = workloads.run_child(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.smoke, args.setup_only, setup_start,
        )
        print(json.dumps(result))
        return 0

    # A terminated run stops its child and removes its files on the way
    # out, as an interrupted one does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]
    ]
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    env = child_env(tmpdir)
    results: Dict[str, Dict] = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, env)
            results[name]["metrics"] = with_units(name, results[name], specs)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    first = next(iter(results.values()))
    env_record = {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": int(env["OMP_NUM_THREADS"]),
        "python": first["env"]["python"],
        "numpy": first["env"]["numpy"],
        "cc": cc_version(),
    }
    print(f"seed {args.seed}, {'smoke' if args.smoke else args.seconds} s, "
          + ", ".join(f"{k} {v}" for k, v in env_record.items()))
    report(results, specs, bool(args.trace))

    if args.out is not None:
        keep = ("correct", "attempted", "failed", "metrics", "info",
                "failures", "setup_samples")
        record = {
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "trace": bool(args.trace),
            "env": env_record,
            "results": {
                name: {k: r[k] for k in keep if k in r}
                for name, r in results.items()
            },
        }
        if args.trace:
            record["obs"] = {name: r["obs"] for name, r in results.items()}
        append_run(args.out, record)

    if len(results) == 1:
        metrics = first["metrics"]
    else:
        metrics = {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
