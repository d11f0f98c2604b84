#!/usr/bin/env python3
"""The paper's motivating application: a CCSD(T)-style triples
correction evaluated entirely through generated kernels.

All 18 NWChem ``sd_t_d1_*``/``sd_t_d2_*`` contractions (TCCG entries
31-48) are generated by COGENT, executed (``GeneratedKernel.execute``),
accumulated with their permutation parities into the 6D residual t3,
and folded with orbital-energy denominators into the energy correction.
The same computation runs through a pure-einsum reference for
validation, and the per-kernel simulated GFLOPS show where the GPU time
would go.

Run:  python examples/triples_energy.py [n_occupied] [n_virtual]
"""

import sys

from repro import Cogent
from repro.apps import TriplesDriver


def main() -> None:
    no = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    nv = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    driver = TriplesDriver(
        n_occupied=no, n_virtual=nv,
        generator=Cogent(arch="V100"), seed=0,
    )
    print(driver.report())
    print()
    reference = driver.reference_energy()
    result = driver.energy()
    delta = abs(result.energy - reference)
    print(f"einsum reference energy : {reference:+.8f}")
    print(f"generated-kernel energy : {result.energy:+.8f}")
    print(f"difference              : {delta:.2e} "
          f"({'PASS' if delta < 1e-10 else 'FAIL'})")


if __name__ == "__main__":
    main()
