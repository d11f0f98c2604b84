"""One-stop kernel validation.

Runs every available correctness check for a generated kernel against
``numpy.einsum`` on random operands:

* ``plan``   — the tiled block/step schedule executed in numpy;
* ``cemu``   — the emitted sequential-C program, compiled and run;
* ``opencl`` — the emitted OpenCL kernel text, executed via the
  pthread work-group harness (the ``clemu`` target);
* ``openmp`` — the OpenMP-C CPU backend, compiled and run;
* ``trace``  — the address-trace transaction counter replays without
  out-of-range accesses (bounds sanity).

The compiled checks all dispatch through the codegen target registry
(:func:`repro.core.codegen.get_target`).

Used by the test-suite integration tests and the ``cogent verify`` CLI
command.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..gpu.executor import random_operands, reference_contract
from ..gpu.memory import count_transactions
from .generator import GeneratedKernel

ALL_CHECKS = ("plan", "cemu", "opencl", "openmp", "trace")

#: Compiled checks: check name -> executable codegen target.  The
#: ``opencl`` check runs the real OpenCL kernel text under the pthread
#: work-group harness, i.e. the ``clemu`` target.
_COMPILED_TARGETS = {"cemu": "cemu", "opencl": "clemu", "openmp": "openmp"}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    results: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> str:
        lines = []
        for result in self.results:
            status = "PASS" if result.passed else "FAIL"
            line = f"  {result.name:<8} {status}"
            if result.detail:
                line += f"  ({result.detail})"
            lines.append(line)
        verdict = "all checks passed" if self.passed else "FAILURES"
        return "\n".join(lines + [f"  => {verdict}"])


def _tolerances(dtype_bytes: int) -> Dict[str, float]:
    if dtype_bytes == 4:
        return {"rtol": 1e-4, "atol": 1e-4}
    return {"rtol": 1e-10, "atol": 1e-10}


def validate_kernel(
    kernel: GeneratedKernel,
    checks: Sequence[str] = ALL_CHECKS,
    seed: int = 0,
) -> ValidationReport:
    """Run the selected checks; skips compiled checks without a CC."""
    from .. import obs

    report = ValidationReport()
    contraction = kernel.original_contraction or kernel.contraction
    dtype = np.float64 if kernel.plan.dtype_bytes == 8 else np.float32
    tol = _tolerances(kernel.plan.dtype_bytes)
    a, b = random_operands(contraction, dtype, seed)
    want = reference_contract(contraction, a, b)
    have_cc = shutil.which("cc") or shutil.which("gcc")

    for check in checks:
        with obs.span(f"validate.{check}"):
            if check == "plan":
                got = kernel.interpret(a, b)
                ok = np.allclose(got, want, **tol)
                report.results.append(
                    CheckResult("plan", ok, "tiled numpy schedule")
                )
            elif check in _COMPILED_TARGETS:
                if not have_cc:
                    report.results.append(
                        CheckResult(check, True, "skipped: no C compiler")
                    )
                    continue
                got = _run_compiled(kernel, check, a, b)
                ok = np.allclose(got, want, **tol)
                backend = {
                    "cemu": "sequential C",
                    "opencl": "OpenCL via pthread harness",
                    "openmp": "OpenMP-C CPU backend",
                }[check]
                report.results.append(CheckResult(check, ok, backend))
            elif check == "trace":
                measured = count_transactions(kernel.plan, exact="auto")
                ok = measured.total > 0
                report.results.append(
                    CheckResult(
                        "trace", ok,
                        f"{measured.total} transactions replayed",
                    )
                )
            else:
                raise ValueError(f"unknown check {check!r}; "
                                 f"choose from {ALL_CHECKS}")
            obs.inc(f"validate.{check}.checks")
            if report.results and not report.results[-1].passed:
                obs.inc(f"validate.{check}.failures")
    return report


def _run_compiled(
    kernel: GeneratedKernel, backend: str, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    from .merging import merge_operands, unmerge_output
    from .splitting import adapt_operands, restore_output

    base = kernel.original_contraction or kernel.contraction
    if kernel.merge_specs:
        a, b = merge_operands(base, kernel.merge_specs, a, b)
    if kernel.split_specs:
        merged = kernel.merged_contraction or base
        a, b = adapt_operands(merged, kernel.split_specs, a, b)

    from .codegen.registry import get_target

    out = get_target(_COMPILED_TARGETS[backend]).compile_and_run(
        kernel.plan, a, b
    )

    if kernel.split_specs:
        out = restore_output(kernel.contraction, kernel.split_specs, out)
    if kernel.merge_specs:
        out = unmerge_output(
            kernel.merged_contraction, kernel.merge_specs, out
        )
    return out
