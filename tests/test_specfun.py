"""Special functions against the mpmath oracle and closed forms."""

import math

import mpmath as mp
import numpy as np
import pytest

from eiskit.specfun import (
    PoleError,
    bessel_k,
    bessel_k_batch,
    gamma_complex,
    zeta,
    zeta_completed,
)

mp.mp.dps = 30


class TestGamma:
    def test_against_mpmath(self):
        pts = [0.5, 1.7, 3 + 4j, -2.5 + 1j, 0.1 - 8j, 10 + 0.5j]
        for z in pts:
            expect = complex(mp.gamma(z))
            assert gamma_complex(z) == pytest.approx(expect, rel=1e-12)

    def test_pole(self):
        with pytest.raises(PoleError):
            gamma_complex(-3)


class TestZeta:
    def test_against_mpmath(self):
        for s in [2.0, 0.5 + 14.134j, 3 - 2j, 0.25 + 5j, -0.5 + 1j]:
            expect = complex(mp.zeta(s))
            assert zeta(s) == pytest.approx(expect, rel=1e-10)

    def test_euler_value(self):
        assert zeta(2).real == pytest.approx(math.pi**2 / 6, rel=1e-13)

    def test_completed_functional_equation_grid(self):
        # |zeta*(s) - zeta*(1-s)| <= 1e-10 on a 100-point grid
        rng = np.random.default_rng(0)
        re = rng.uniform(0.1, 0.9, size=100)
        im = rng.uniform(-30, 30, size=100)
        for a, b in zip(re, im):
            s = complex(a, b)
            lhs = zeta_completed(s)
            rhs = zeta_completed(1 - s)
            assert abs(lhs - rhs) <= 1e-10

    def test_completed_against_mpmath(self):
        for s in [0.3 + 4j, 2.5, 0.8 - 11j]:
            expect = complex(mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s))
            assert zeta_completed(s) == pytest.approx(expect, rel=1e-10)


class TestBesselK:
    def test_half_integer_closed_form(self):
        for x in (0.1, 1.0, 10.0):
            closed = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
            rel = abs(bessel_k(0.5, x) - closed) / closed
            assert rel <= 1e-12

    def test_against_mpmath_complex_order(self):
        # abs=0: |K| spans 1e-21..1e10 here, so only a relative test bites
        for nu, x0 in [(1.5, 0.7), (0.25 + 3j, 2.0), (2j, 5.0),
                       (0.5 + 9j, 0.3), (3.0, 30.0)]:
            for x in (x0, 1e-3, 29.99, 45.0):
                expect = complex(mp.besselk(nu, x))
                assert bessel_k(nu, x) == pytest.approx(expect, rel=1e-10,
                                                        abs=0)

    def test_batch_against_mpmath(self):
        xs = np.geomspace(0.05, 40.0, 25)
        nu = 0.75 + 2j
        batch = bessel_k_batch(nu, xs)
        for xi, bi in zip(xs, batch):
            expect = complex(mp.besselk(nu, float(xi)))
            assert bi == pytest.approx(expect, rel=1e-10, abs=0)

    # both sides of each octave edge 2^k, where a point changes quadrature
    # bucket, and of the asymptotic crossover x = 30, shuffled into one
    # batch that spans both branches
    EDGES = np.random.default_rng(0).permutation(
        [2.0**k * (1.0 + e) for k in range(-3, 5) for e in (-1e-12, 1e-12)]
        + [30.0 - 1e-9, 30.0 + 1e-9])

    @pytest.mark.parametrize("nu", [1.5, 0.75 + 2j, 2j])
    def test_bucket_edges_against_mpmath(self, nu):
        batch = bessel_k_batch(nu, self.EDGES)
        for x, got in zip(self.EDGES, batch):
            expect = complex(mp.besselk(nu, float(x)))
            assert got == pytest.approx(expect, rel=1e-10, abs=0), x
            assert bessel_k(nu, x) == pytest.approx(expect, rel=1e-10,
                                                    abs=0), x

    def test_even_in_order(self):
        for nu, x in [(1.2, 3.0), (0.3 + 1j, 0.8)]:
            assert bessel_k(nu, x) == pytest.approx(bessel_k(-nu, x),
                                                    rel=1e-12)
