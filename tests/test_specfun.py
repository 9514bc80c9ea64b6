"""Special functions against the mpmath oracle and closed forms."""

import math

import mpmath as mp
import numpy as np
import pytest

from eiskit.specfun import (
    bessel_k,
    bessel_k_batch,
    gamma_complex,
    zeta,
    zeta_completed,
)

mp.mp.dps = 30


class TestGamma:
    def test_against_mpmath(self):
        # Gamma(145) = 144! is about 5.6e249, but the Lanczos power
        # base^(z - 1/2) alone overflows from about z = 142
        pts = [0.5, 1.7, 3 + 4j, -2.5 + 1j, 0.1 - 8j, 10 + 0.5j,
               145, 170, 150 + 10j]
        for z in pts:
            expect = complex(mp.gamma(z))
            assert gamma_complex(z) == pytest.approx(expect, rel=1e-12)

    def test_pole(self):
        with pytest.raises(ValueError,
                           match=r"^Gamma has a pole at \(-3\+0j\)$"):
            gamma_complex(-3)

    def test_overflow_raises_value_error(self):
        with pytest.raises(ValueError, match="gamma_complex at .* overflows"):
            gamma_complex(200.5)
        # pi z in the reflection is -inf, where cmath.sin raises a bare
        # "math domain error"
        with pytest.raises(ValueError, match=r"^gamma_complex at "
                           r"\(-1e\+308\+0\.5j\) overflows the float range$"):
            gamma_complex(-1e308 + 0.5j)


class TestZeta:
    def test_against_mpmath(self):
        for s in [2.0, 0.5 + 14.134j, 3 - 2j, 0.25 + 5j, -0.5 + 1j]:
            expect = complex(mp.zeta(s))
            assert zeta(s) == pytest.approx(expect, rel=1e-10)

    def test_overflow_raises_value_error(self):
        # 2 + 1e300i meets the range guard before its Bernoulli corrections
        # overflow; at -301 (zeta = -1.6e376) the reflection's Gamma(302)
        # overflows, as Gamma(1 - s) does from Re s = -170.6 off the
        # trivial zeros
        with pytest.raises(ValueError, match="zeta at .* checked range"):
            zeta(2 + 1e300j)
        with pytest.raises(ValueError, match="zeta at .* overflows"):
            zeta(-301)
        # zeta*(400) is about 1e273, but its factor Gamma(200) overflows
        with pytest.raises(ValueError, match="gamma_complex at .* overflows"):
            zeta_completed(400)

    def test_beyond_checked_range_raises(self):
        # unguarded, the sum gives -5.8e15 - 1.2e14i at 2 + 1000i, where
        # |zeta(2 + it)| <= pi^2 / 6
        for f in (zeta, zeta_completed):
            with pytest.raises(ValueError,
                               match=r"zeta at \(2\+1000j\) is outside"):
                f(2 + 1000j)
        assert zeta(2 + 150j) == pytest.approx(
            complex(mp.zeta(2 + 150j)), rel=1e-13)

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

    @pytest.mark.parametrize("s", [-5 + 0.5j, -10 + 1j, -20 + 0.5j,
                                   -3.41 - 4.44j])
    def test_completed_left_of_critical_strip(self, s):
        # the 50-term sum of zeta is off here (relative errors 8.4e-5,
        # 2.2e3, 6.7e15 and 1.8e-8); zeta*(1 - s) lies where it converges
        with mp.workdps(40):
            expect = complex(mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s))
        assert zeta_completed(s) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("s", [-5 + 0.5j, -10 + 1j, -20 + 0.5j, -60 + 3j,
                                   -3.41 - 4.44j, -145])
    def test_reflected_left_of_critical_strip(self, s):
        # the 50-term sum alone is off here by 8.4e-5, 2.2e3, 6.7e15, 4.2e50
        # and 1.8e-8 relative; zeta(-145) = -4.7e135 needs Gamma(146), about
        # 8.0e251
        with mp.workdps(40):
            expect = complex(mp.zeta(s))
        assert zeta(s) == pytest.approx(expect, rel=1e-12, abs=0)

    def test_trivial_zeros(self):
        # exact, also where the reflection's Gamma(1 + 2k) would overflow
        for k in (1, 2, 25, 50, 150, 500):
            assert zeta(-2 * k) == 0


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

    @pytest.mark.parametrize("nu, x", [(40.0, 10 * math.pi),
                                       (0.5 + 20j, 10 * math.pi),
                                       (15j, 30.0), (60.0, 100.0),
                                       (100.0, 200.0)])
    def test_large_order_against_mpmath(self, nu, x):
        # |nu| comparable to x, where a fixed-order series in 1/x fails
        expect = complex(mp.besselk(nu, x))
        assert bessel_k(nu, x) == pytest.approx(expect, rel=1e-10, abs=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_quadrature_overflow_raises(self):
        # cosh(nu t) overflows for |Re nu| beyond about 130: a ValueError
        # naming the overflow, not a nan under numpy warnings
        with pytest.raises(ValueError, match="overflows"):
            bessel_k_batch(140.0, np.array([0.5, 2 * math.pi, 40.0]))
        assert math.isfinite(abs(bessel_k(120.0, 2 * math.pi)))

    # both sides of each octave edge 2^k, where a point changes quadrature
    # bucket, and of x = 30 inside the octave [16, 32), shuffled into one
    # batch that spans every bucket
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
