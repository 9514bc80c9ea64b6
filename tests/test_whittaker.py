"""Completed Whittaker functions: closed forms, symmetry, unipotent oracle."""

import math

import mpmath as mp
import numpy as np
import pytest

from eiskit import whittaker
from eiskit.specfun import gamma_complex
from eiskit.whittaker import (
    DomainError,
    QuadratureError,
    jacquet_oracle,
    whittaker_gl2,
    whittaker_gl3,
)

mp.mp.dps = 25


def _random_alpha3(rng, spread=6.0):
    a1 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-spread, spread))
    a2 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-spread, spread))
    return (a1, a2, -a1 - a2)


class TestGL2:
    def test_bessel_closed_form(self):
        # the completed value is 2 sqrt(y) K_nu(2 pi y)
        for nu, y in [(0.5, 1.0), (2j, 0.7), (1.5 + 3j, 2.0)]:
            expect = 2.0 * math.sqrt(y) * complex(mp.besselk(nu, 2 * mp.pi * y))
            assert whittaker_gl2(nu, y) == pytest.approx(expect, rel=1e-10)

    def test_even_in_parameter(self):
        for nu, y in [(1.2, 0.5), (0.4 + 5j, 1.3)]:
            assert whittaker_gl2(nu, y) == pytest.approx(
                whittaker_gl2(-nu, y), rel=1e-12)

    def test_oracle_agreement(self):
        # unipotent-integral oracle inside its convergence cone
        for nu, y in [(1.0, 0.8), (1.5, 1.0), (2.0 + 1j, 1.4), (1.2, 0.5)]:
            oracle = jacquet_oracle((nu, -nu), y)
            assert whittaker_gl2(nu, y) == pytest.approx(oracle, rel=1e-6)

    def test_rejects_bad_y(self):
        with pytest.raises(DomainError):
            whittaker_gl2(1.0, -1.0)


class TestGL3Symmetry:
    def test_permutation_invariance(self):
        # completed value is symmetric in alpha: all 6 orders agree
        import itertools
        rng = np.random.default_rng(17)
        for _ in range(5):
            alpha = _random_alpha3(rng)
            y1, y2 = rng.uniform(0.6, 1.6, size=2)
            ref = whittaker_gl3(alpha, y1, y2)
            for sigma in itertools.permutations(range(3)):
                val = whittaker_gl3([alpha[i] for i in sigma], y1, y2)
                assert abs(val - ref) <= 1e-6 * max(abs(ref), 1e-30), (
                    alpha, sigma)

    def test_real_for_conjugate_symmetric_parameter(self):
        # alpha = (it, 0, -it) gives a real value at real y
        val = whittaker_gl3((4j, 0, -4j), 0.9, 1.2)
        assert abs(val.imag) <= 1e-10 * abs(val)

    def test_rejects_nonzero_sum(self):
        with pytest.raises(DomainError):
            whittaker_gl3((1.0, 1.0, 1.0), 1.0, 1.0)


class TestGL3Pinned:
    """whittaker_gl3 against recorded values at complex alpha and y down to
    1e-3: how the K-Bessel quadrature is batched may move only rounding."""

    PINS = [
        ((0.3, 0.1, -0.4), 1.0, 1.0, 1.7906893271624827e-08 + 0j),
        ((0.2 + 1j, -0.4, 0.2 - 1j), 0.5, 2.0, 7.943086898126625e-10 + 0j),
        ((0.1 + 2j, -0.2 + 0.5j, 0.1 - 2.5j), 0.01, 0.02,
         -9.51823375055904e-06 - 5.543933654014284e-06j),
        ((1j, 0.0, -1j), 0.003, 0.5, 0.00031769836949928484 + 0j),
        ((0.5, 0.0, -0.5), 0.001, 0.001, 0.006299287160653177 + 0j),
        ((0.05 + 3j, 0.1 - 1j, -0.15 - 2j), 0.05, 0.05,
         4.031162295656658e-05 + 1.6829622951643755e-05j),
    ]

    @pytest.mark.parametrize("alpha, y1, y2, pinned", PINS)
    def test_recorded_value(self, alpha, y1, y2, pinned):
        assert whittaker_gl3(alpha, y1, y2) == pytest.approx(
            pinned, rel=1e-13, abs=0)


class TestGL3Oracle:
    def test_oracle_agreement_in_cone(self):
        # 10 points with Re(a1) > Re(a2) > Re(a3); the oracle certifies its
        # own quadrature error and declines points it cannot settle at the
        # tolerance, so sample until 10 certified points are collected
        from eiskit.whittaker import QuadratureError
        rng = np.random.default_rng(23)
        checked = 0
        attempts = 0
        while checked < 10 and attempts < 30:
            attempts += 1
            g1 = rng.uniform(1.0, 2.2)
            g2 = rng.uniform(1.0, 2.2)
            t = rng.uniform(-1.0, 1.0)
            a1 = complex(g1, t)
            a2 = complex(0.0, -2 * t)
            a3 = complex(-g2, t)
            alpha = (a1 + (g2 - g1) / 3, a2 + (g2 - g1) / 3,
                     a3 + (g2 - g1) / 3)
            y = tuple(rng.uniform(0.7, 1.3, size=2))
            try:
                oracle = jacquet_oracle(alpha, y, tol=1e-5)
            except QuadratureError:
                continue
            fast = whittaker_gl3(alpha, y[0], y[1])
            assert abs(fast - oracle) <= 1e-5 * abs(oracle), (alpha, y)
            checked += 1
        assert checked == 10

    def test_oracle_rejects_outside_cone(self):
        with pytest.raises(DomainError):
            jacquet_oracle((0.0, 1.0, -1.0), (1.0, 1.0))


class TestGL3MellinCrossCheck:
    def test_double_bessel_value_against_mpmath(self):
        # independent re-evaluation of the defining 1D integral with mpmath
        alpha = (0.8, 0.1, -0.9)
        y1, y2 = 1.1, 0.9
        nu = 0.5 * (alpha[0] - alpha[2])
        a2 = alpha[1]

        def integrand(t):
            x = mp.e**t
            root = mp.sqrt(1 + x * x)
            return (mp.besselk(nu, 2 * mp.pi * y1 * root / x)
                    * mp.besselk(nu, 2 * mp.pi * y2 * root)
                    * mp.e**(-1.5 * a2 * t))

        integral = mp.quad(integrand, [-6, 0, 6])
        expect = 8.0 * y1 * y2 * (y1 / y2) ** (0.5 * a2) * float(integral)
        assert whittaker_gl3(alpha, y1, y2) == pytest.approx(expect, rel=1e-9)


class TestGL3MellinTransform:
    @staticmethod
    def _bump(alpha, s1, s2):
        # Bump's double Mellin transform of W, in this normalization
        out = 0.25 * math.pi ** (-s1 - s2 - 2)
        for a in alpha:
            out *= (gamma_complex((s1 + 1 - a) / 2)
                    * gamma_complex((s2 + 1 + a) / 2))
        return out / gamma_complex((s1 + s2 + 2) / 2)

    @pytest.mark.slow
    @pytest.mark.parametrize("alpha, s1, s2", [
        ((1.0, 0.2, -1.2), 2.5, 1.8),
        ((0.2 + 1j, -0.1, -0.1 - 1j), 1.6, 1.3),
    ])
    def test_double_mellin_transform(self, alpha, s1, s2):
        # trapezoid rule in log y over [-16, 1]^2, 33^2 nodes (measured
        # errors 5.3e-7 and 7.0e-7); alpha -> -alpha on the right-hand side
        # moves it by 1.6e-2 and 4.6e-3, so the check fixes the constant 8
        # and the sign convention.  s1 != s2 on purpose: at s1 = s2 the
        # right-hand side is unchanged under alpha -> -alpha.
        t, h = np.linspace(-16.0, 1.0, 33, retstep=True)
        y = np.exp(t)
        total = sum(whittaker_gl3(alpha, y1, y2) * y1 ** s1 * y2 ** s2
                    for y1 in y for y2 in y) * h * h
        expect = self._bump(alpha, s1, s2)
        assert abs(total - expect) <= 1e-5 * abs(expect)
        flipped = self._bump(tuple(-a for a in alpha), s1, s2)
        assert abs(flipped - expect) > 1e-3 * abs(expect)


class TestGL3DeepCusp:
    @staticmethod
    def _mpmath_value(alpha, y1, y2):
        nu = 0.5 * (alpha[0] - alpha[2])
        a2 = alpha[1]

        def integrand(t):
            x = mp.e**t
            root = mp.sqrt(1 + x * x)
            return (mp.besselk(nu, 2 * mp.pi * y1 * root / x)
                    * mp.besselk(nu, 2 * mp.pi * y2 * root)
                    * mp.e**(-1.5 * a2 * t))

        integral = mp.quad(integrand, [-6, -1, 0, 1, 6])
        return 8.0 * y1 * y2 * (y1 / y2) ** (0.5 * a2) * float(integral)

    @pytest.mark.parametrize("y1, y2", [(3.0, 4.95), (4.95, 3.0),
                                        (3.05, 4.95)])
    def test_small_value_converges(self, y1, y2):
        # the value is about e^-70; integration cutoffs placed below an
        # absolute e^-50 truncated non-negligible ends and stalled the
        # step halving here
        alpha = (0.3, 0.1, -0.4)
        expect = self._mpmath_value(alpha, y1, y2)
        assert whittaker_gl3(alpha, y1, y2) == pytest.approx(expect, rel=1e-9)

    def test_stall_reports_last_halving_difference(self, monkeypatch):
        # a constant integrand sums to (t_hi - t_lo) + h: the halving
        # difference never reaches tol, and the error must carry it
        monkeypatch.setattr(whittaker, "_vt_integrand",
                            lambda nu, a2, y1, y2, t: np.ones(t.shape))
        with pytest.raises(QuadratureError) as info:
            whittaker_gl3((0.3, 0.1, -0.4), 1.0, 1.0)
        assert 0.0 < info.value.achieved < 1.0 / 128
        assert f"{info.value.achieved:.3e}" in str(info.value)
