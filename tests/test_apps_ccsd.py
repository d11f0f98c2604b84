"""Tests for the CCD-style iterative solver (repro.apps.ccsd)."""

import numpy as np
import pytest

from repro import Cogent, obs
from repro.apps.ccsd import DIAGRAMS, CcsdDriver


@pytest.fixture(scope="module")
def driver():
    return CcsdDriver(
        n_occupied=4, n_virtual=5,
        generator=Cogent(arch="V100", top_k=2), seed=3,
    )


class TestDiagrams:
    def test_three_diagrams(self):
        assert len(DIAGRAMS) == 3

    def test_diagram_contractions_valid(self, driver):
        for _name, expr in DIAGRAMS:
            c = driver._contraction(expr)
            assert c.c.indices == ("a", "b", "i", "j")
            assert len(c.internal_indices) == 2

    def test_operand_shapes_match(self, driver):
        t2 = np.zeros((driver.nv, driver.nv, driver.no, driver.no))
        for name, expr in DIAGRAMS:
            c = driver._contraction(expr)
            a, b = driver._diagram_operands(name, t2)
            assert a.shape == c.extents_of(c.a)
            assert b.shape == c.extents_of(c.b)


class TestSolve:
    def test_converges(self, driver):
        result = driver.solve()
        assert result.converged
        assert result.iterations < 40

    def test_residual_norms_decrease(self, driver):
        norms = driver.solve().residual_norms
        assert norms[-1] < norms[0]
        # Contractive map: eventually monotone decreasing.
        tail = norms[2:]
        assert all(b <= a for a, b in zip(tail, tail[1:]))

    def test_kernels_match_einsum_path(self, driver):
        via_kernels = driver.solve(use_kernels=True)
        via_einsum = driver.solve(use_kernels=False)
        assert via_kernels.energy == pytest.approx(
            via_einsum.energy, abs=1e-12
        )
        assert via_kernels.iterations == via_einsum.iterations

    def test_cache_reuse_across_sweeps(self, driver):
        driver.solve()
        with obs.tracing() as session:
            result = driver.solve()
        # Every sweep reuses the three diagram kernels: no searches.
        assert result.iterations > 1
        assert session.metrics.counter("search.searches") == 0
        assert session.metrics.counter("generate.contractions") == 0

    def test_deterministic(self):
        gen = Cogent(arch="V100", top_k=1)
        e1 = CcsdDriver(3, 4, generator=gen, seed=5).solve().energy
        e2 = CcsdDriver(3, 4, generator=gen, seed=5).solve().energy
        assert e1 == e2

    def test_zero_coupling_gives_mp2_like_energy(self):
        # With coupling -> 0 the update has one step: T = V / D.
        gen = Cogent(arch="V100", top_k=1)
        driver = CcsdDriver(3, 4, generator=gen, seed=1,
                            coupling=1e-9)
        result = driver.solve()
        want = float(np.sum(
            (driver.v_oovv / driver.denominator) * driver.v_oovv
        ))
        assert result.energy == pytest.approx(want, rel=1e-3)

    def test_report(self, driver):
        text = driver.report()
        assert "converged" in text
        assert "cache hits" in text
