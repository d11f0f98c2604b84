"""A CCSD(T)-style triples-correction driver built on COGENT kernels.

The paper's headline workload is the perturbative-triples ``(T)``
correction of coupled-cluster theory, whose compute core is the 18
NWChem ``sd_t_d1_1..9`` / ``sd_t_d2_1..9`` contractions (TCCG entries
31-48): nine "d1" terms contracting a doubles amplitude with a
two-electron integral block over an occupied index, and nine "d2" terms
contracting over a virtual index, accumulated with alternating
permutation parities into the 6D triples residual ``t3``, from which
the energy correction is formed with orbital-energy denominators.

This driver is *structurally* faithful — all 18 contractions run
through generated COGENT kernels, signs follow the permutation
parities, the energy uses genuine denominators — while the amplitudes,
integrals and orbital energies are synthetic (no Hartree-Fock substrate
exists here; see DESIGN.md's substitution table).  Every step is
validated against a pure-``einsum`` reference implementation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.generator import Cogent, GeneratedKernel
from ..core.parser import parse_compact
from ..gpu.executor import reference_contract
from ..tccg.suite import _d1_expr, _d2_expr  # permutation families

#: Output letters: a,b,c are occupied (hole) indices, d,e,f virtual
#: (particle) indices, g the contraction index.
_HOLES = ("a", "b", "c")
_PARTICLES = ("d", "e", "f")


def _pick_parity(options: Tuple[str, ...], pick: str) -> int:
    """Parity of rotating ``pick`` out of ``options`` (+1 / -1)."""
    return -1 if options.index(pick) == 1 else 1


@dataclass(frozen=True)
class TriplesTerm:
    """One of the 18 permutation terms of the triples residual."""

    name: str
    expr: str
    sign: int
    family: str  # "d1" or "d2"


def triples_terms() -> List[TriplesTerm]:
    """The 9 d1 + 9 d2 terms with their permutation parities."""
    terms: List[TriplesTerm] = []
    for family, builder in (("d1", _d1_expr), ("d2", _d2_expr)):
        for number, (p_pick, h_pick) in enumerate(
            itertools.product(_PARTICLES, reversed(_HOLES)), start=1
        ):
            sign = (
                _pick_parity(_PARTICLES, p_pick)
                * _pick_parity(tuple(reversed(_HOLES)), h_pick)
            )
            terms.append(
                TriplesTerm(
                    name=f"sd_t_{family}_{number}",
                    expr=builder(p_pick, h_pick),
                    sign=sign,
                    family=family,
                )
            )
    return terms


@dataclass
class TriplesResult:
    """Outcome of one triples evaluation."""

    energy: float
    t3_norm: float
    per_term_gflops: Dict[str, float]
    predicted_time_s: float


class TriplesDriver:
    """Evaluates the (T)-style triples correction with COGENT kernels.

    Parameters
    ----------
    n_occupied, n_virtual:
        Orbital-space extents (``o`` and ``v``).  The 6D residual has
        ``o^3 * v^3`` elements; keep these modest, since each kernel's
        first call runs the numpy tile interpreter (later calls run
        its compiled OpenMP code, see ``GeneratedKernel.execute``).
    """

    def __init__(
        self,
        n_occupied: int = 8,
        n_virtual: int = 8,
        generator: Optional[Cogent] = None,
        seed: int = 0,
        store_dir=None,
    ) -> None:
        self.no = n_occupied
        self.nv = n_virtual
        self.generator = generator or Cogent()
        self.seed = seed
        self.store_dir = store_dir
        self.terms = triples_terms()
        self._kernels: Dict[str, GeneratedKernel] = {}
        rng = np.random.default_rng(seed)
        # Synthetic substrate: amplitudes/integrals ~ N(0, small), and a
        # plausible orbital-energy spectrum (occupied below the Fermi
        # level, virtual above).
        scale = 0.05
        self.t2_d1 = scale * rng.standard_normal(
            (self.no, self.nv, self.nv, self.no)
        )
        self.v2_d1 = scale * rng.standard_normal(
            (self.no, self.no, self.nv, self.no)
        )
        self.t2_d2 = scale * rng.standard_normal(
            (self.nv, self.nv, self.no, self.no)
        )
        self.v2_d2 = scale * rng.standard_normal(
            (self.nv, self.nv, self.nv, self.no)
        )
        self.e_occ = -2.0 + 1.5 * np.sort(rng.random(self.no))
        self.e_virt = 0.5 + 2.0 * np.sort(rng.random(self.nv))

    # -- contraction plumbing -----------------------------------------------

    def sizes_for(self, term: TriplesTerm) -> Dict[str, int]:
        sizes = {h: self.no for h in _HOLES}
        sizes.update({p: self.nv for p in _PARTICLES})
        sizes["g"] = self.no if term.family == "d1" else self.nv
        return sizes

    def operands_for(
        self, term: TriplesTerm
    ) -> Tuple[np.ndarray, np.ndarray]:
        if term.family == "d1":
            return self.t2_d1, self.v2_d1
        return self.t2_d2, self.v2_d2

    def kernel_for(self, term: TriplesTerm) -> GeneratedKernel:
        """Generate (and cache) the kernel for one term."""
        if term.name not in self._kernels:
            contraction = parse_compact(term.expr, self.sizes_for(term))
            self._kernels[term.name] = self.generator.generate(
                contraction, kernel_name=term.name
            )
        return self._kernels[term.name]

    def precompile(self):
        """Compile all 18 terms as one deduplicated batch.

        One :class:`~repro.core.program.CompilationSession` compile
        covers the full d1+d2 term set: it searches once per canonical
        shape, and with ``store_dir`` set a warm process rebuilds every
        kernel from the persistent store with zero searches.  Terms
        keep their exact contractions (the session never rewrites index
        orders) and terms already generated via :meth:`kernel_for` are
        kept as-is.
        """
        from ..core.program import CompilationSession

        pending = [t for t in self.terms if t.name not in self._kernels]
        if not pending:
            return None
        program = CompilationSession(
            self.generator, store=self.store_dir
        ).compile(
            [parse_compact(t.expr, self.sizes_for(t)) for t in pending],
            kernel_names=[t.name for t in pending],
        )
        for term, kernel in zip(pending, program.kernels):
            self._kernels[term.name] = kernel
        return program.stats

    # -- evaluation -----------------------------------------------------------

    def residual(self, use_kernels: bool = True) -> np.ndarray:
        """Accumulate the signed 18-term triples residual t3."""
        t3 = np.zeros(
            (self.no, self.no, self.no, self.nv, self.nv, self.nv)
        )
        if use_kernels:
            self.precompile()
        for term in self.terms:
            a, b = self.operands_for(term)
            if use_kernels:
                out = self.kernel_for(term).execute(a, b)
            else:
                contraction = parse_compact(
                    term.expr, self.sizes_for(term)
                )
                out = reference_contract(contraction, a, b)
            t3 += term.sign * out
        return t3

    def denominators(self) -> np.ndarray:
        """Orbital-energy denominators D_{abc}^{def}."""
        eo, ev = self.e_occ, self.e_virt
        d = (
            eo[:, None, None, None, None, None]
            + eo[None, :, None, None, None, None]
            + eo[None, None, :, None, None, None]
            - ev[None, None, None, :, None, None]
            - ev[None, None, None, None, :, None]
            - ev[None, None, None, None, None, :]
        )
        return d

    def energy(self, use_kernels: bool = True) -> TriplesResult:
        """The (T)-style correction  E = sum t3^2 / D  (negative)."""
        t3 = self.residual(use_kernels)
        d = self.denominators()
        energy = float(np.sum(t3 * t3 / d))
        per_term: Dict[str, float] = {}
        predicted = 0.0
        for term in self.terms:
            kernel = self.kernel_for(term)
            sim = kernel.candidates[0].simulated
            if sim is None:
                sim = self.generator.predict(kernel.plan)
            per_term[term.name] = sim.gflops
            predicted += sim.time_s
        return TriplesResult(
            energy=energy,
            t3_norm=float(np.linalg.norm(t3)),
            per_term_gflops=per_term,
            predicted_time_s=predicted,
        )

    def reference_energy(self) -> float:
        """The same functional evaluated purely with numpy.einsum."""
        t3 = self.residual(use_kernels=False)
        return float(np.sum(t3 * t3 / self.denominators()))

    # -- reporting ----------------------------------------------------------------

    def report(self) -> str:
        result = self.energy()
        lines = [
            f"CCSD(T)-style triples correction "
            f"(o={self.no}, v={self.nv}, "
            f"{len(self.terms)} contraction terms)",
            f"  E(T) = {result.energy:+.8f}  "
            f"(|t3| = {result.t3_norm:.6f})",
            f"  predicted GPU time on {self.generator.arch.name}: "
            f"{result.predicted_time_s * 1e3:.2f} ms "
            f"for {sum(k.contraction.flops for k in self._kernels.values()) / 1e9:.2f} GFLOP",
        ]
        for term in self.terms:
            lines.append(
                f"    {term.name:<12} sign={term.sign:+d}  "
                f"{term.expr:<22} "
                f"{result.per_term_gflops[term.name]:8.1f} GFLOPS"
            )
        return "\n".join(lines)
