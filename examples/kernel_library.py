#!/usr/bin/env python3
"""Multi-version kernel libraries and the portable backends.

Paper Section IV-B: given several representative problem sizes, COGENT
generates one tuned code version per size and selects the nearest
representative at run time (generated kernels remain correct for any
extents).  This example builds a two-version library for the paper's
Eq. 1, dispatches problems of varying size to the right version, and
shows the emitted artifacts: the combined CUDA library with its
dispatcher, and the OpenCL backend (the paper's planned future target,
implemented here).

Run:  python examples/kernel_library.py
"""

import numpy as np

from repro import Cogent, KernelLibrary, parse
from repro.gpu.executor import random_operands


def main() -> None:
    library = KernelLibrary(
        "abcd-aebf-dfce",
        representative_sizes=[16, 48],
        generator=Cogent(arch="V100"),
    )
    print(f"built {len(library)} code versions:")
    for entry in library.entries:
        sim = entry.kernel.candidates[0].simulated
        print(f"  sizes={entry.sizes['a']:<3} "
              f"config={entry.kernel.config.describe():<60} "
              f"predicted {sim.gflops:7.1f} GFLOPS")
    print()

    # Dispatch problems of different actual sizes; the library picks
    # the closest representative and the schedule stays exact.
    for actual in (12, 20, 40, 64):
        sizes = {i: actual + k for k, i in enumerate("abcdef")}
        contraction = parse("abcd-aebf-dfce", sizes)
        a, b = random_operands(contraction, seed=actual)
        got = library.dispatch(a, b)
        want = np.einsum(contraction.einsum_spec(), a, b, optimize=True)
        picked = library.select(sizes).sizes["a"]
        status = "PASS" if np.allclose(got, want) else "FAIL"
        print(f"actual extents ~{actual:<3} -> version for size {picked:<3} "
              f"numerical check: {status}")
    print()

    source = library.cuda_library_source()
    kernels = source.count("__global__")
    print(f"combined CUDA library: {len(source.splitlines())} lines, "
          f"{kernels} kernels + select_version() dispatcher")
    print()

    opencl = library.entries[0].kernel.source("opencl")
    print("--- OpenCL backend (first 12 lines) ---")
    print("\n".join(opencl.splitlines()[:12]))
    print(f"--- ({len(opencl.splitlines())} lines total) ---")


if __name__ == "__main__":
    main()
