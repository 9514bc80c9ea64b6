"""Parabolic bookkeeping: shift vectors, Iwasawa coordinates, parameters."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from eiskit.core import (
    GroupElement,
    LanglandsParameterVec,
    Partition,
    SpectralPoint,
    iwasawa,
    langlands_parameter,
    power_from_y,
    power_function,
    rho_borel,
    rho_parabolic,
    rho_parabolic_star,
    rho_phi,
)
from eiskit.cli import _compositions
from eiskit.forms import FormSet, const_form, mock_maass_form


class TestRho:
    def test_gl2_borel(self):
        assert rho_parabolic(Partition((1, 1))) == (
            Fraction(1, 2), Fraction(-1, 2))

    def test_gl3_borel(self):
        assert rho_parabolic(Partition((1, 1, 1))) == (
            Fraction(1), Fraction(0), Fraction(-1))

    def test_gl3_maximal_parabolics(self):
        assert rho_parabolic(Partition((1, 2))) == (
            Fraction(1), Fraction(-1, 2))
        assert rho_parabolic(Partition((2, 1))) == (
            Fraction(1, 2), Fraction(-1))

    def test_p22(self):
        assert rho_parabolic(Partition((2, 2))) == (Fraction(1), Fraction(-1))

    def test_rho_identity_all_partitions(self):
        # rho_phi + rho_parabolic_star = rho_borel, exactly, for all n <= 8
        for n in range(1, 9):
            for parts in _compositions(n):
                p = Partition(parts)
                lhs = tuple(a + b for a, b in
                            zip(rho_phi(p), rho_parabolic_star(p)))
                assert lhs == rho_borel(n), parts

    def test_weighted_mean_zero(self):
        for n in range(2, 7):
            for parts in _compositions(n):
                p = Partition(parts)
                assert sum(nk * v for nk, v in
                           zip(parts, rho_parabolic(p))) == 0


class TestSpectralPoint:
    def test_weighted_sum_constraint(self):
        p = Partition((2, 1))
        s = SpectralPoint.from_leading(p, [0.5])
        assert abs(2 * 0.5 + 1 * s.values[1]) < 1e-12

    def test_rejects_off_hyperplane(self):
        with pytest.raises(ValueError):
            SpectralPoint((1.0, 1.0), Partition((1, 1)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     complex(0.5, float("nan"))])
    def test_rejects_non_finite(self, bad):
        # NaN compares False with every bound, so the sum check alone would
        # let it through
        with pytest.raises(ValueError, match="finite"):
            SpectralPoint((bad, -bad), Partition((1, 1)))
        with pytest.raises(ValueError, match="finite"):
            SpectralPoint.from_leading(Partition((1, 1, 1)), [bad, 0.1])

    def test_huge_finite_coordinates(self):
        # sup norms: abs() of 1.7e308(1 + i) overflows, the point does not;
        # a weighted sum that overflows is off the hyperplane
        big = complex(1.7e308, 1.7e308)
        assert SpectralPoint((big, -big), Partition((1, 1))).values[0] == big
        assert LanglandsParameterVec((big, -big)).entries[1] == -big
        with pytest.raises(ValueError, match="not 0"):
            SpectralPoint((1e308, 1e308), Partition((2, 1)))

    def test_permuted_round_trip(self):
        p = Partition((1, 1, 1))
        s = SpectralPoint((0.4 + 1j, 0.1, -0.5 - 1j), p)
        sigma = (2, 0, 1)
        inv = tuple(sigma.index(i) for i in range(3))
        assert SpectralPoint.permuted(s.permuted(sigma), inv).values == s.values


class TestIwasawa:
    def test_round_trip_gl2(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=(1,))
            y = np.exp(rng.normal(size=1))
            g = GroupElement.from_iwasawa(np.array([[1, x[0]], [0, 1]]),
                                          tuple(y))
            coords, k, d = iwasawa(g)
            assert coords.y[0] == pytest.approx(y[0], rel=1e-12)
            assert coords.x[0, 1] == pytest.approx(x[0], rel=1e-10, abs=1e-12)

    def test_orthogonal_factor(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            mat = rng.normal(size=(n, n))
            if np.linalg.det(mat) < 0:
                mat[0] *= -1
            g = GroupElement(mat)
            coords, k, d = iwasawa(g)
            assert np.allclose(k @ k.T, np.eye(n), atol=1e-12)
            # reassemble: x * diag(y-shape) * d * k = g
            rebuilt = GroupElement.from_iwasawa(coords.x, coords.y).entries
            rebuilt = rebuilt * d @ k
            assert np.allclose(rebuilt, mat, atol=1e-10 * np.abs(mat).max())

    def test_y_positive(self):
        rng = np.random.default_rng(11)
        g = GroupElement(rng.normal(size=(3, 3)))
        coords, _, _ = iwasawa(g)
        assert all(v > 0 for v in coords.y)


class TestPowerFunction:
    def test_matches_y_power_gl2(self):
        p = Partition((1, 1))
        s = SpectralPoint((0.75, -0.75), p)
        y = 1.37
        g = GroupElement.from_iwasawa(np.eye(2), (y,))
        val = power_function(p, s, g)
        assert val == pytest.approx(y**0.75, rel=1e-12)

    def test_unipotent_invariance(self):
        # |u g|_P^s = |g|_P^s for upper unit-triangular u
        p = Partition((2, 1))
        s = SpectralPoint.from_leading(p, [0.3 + 0.2j])
        rng = np.random.default_rng(7)
        g = GroupElement(np.array([[2.0, 0.3, 0], [0.1, 1.5, 0.2],
                                   [0, 0.4, 0.9]]))
        u = np.eye(3)
        u[0, 1], u[0, 2], u[1, 2] = rng.normal(size=3)
        lhs = power_function(p, s, GroupElement(u @ g.entries))
        assert lhs == pytest.approx(power_function(p, s, g), rel=1e-10)

    def test_power_from_y_consistency(self):
        p = Partition((1, 1, 1))
        s = SpectralPoint((0.5, 0.25, -0.75), p)
        y = (1.3, 0.8)
        g = GroupElement.from_iwasawa(np.eye(3), y)
        assert power_from_y(p, s.values, y) == pytest.approx(
            power_function(p, s, g), rel=1e-12)


class TestLanglandsParameter:
    def test_borel_is_s(self):
        # trivial factors contribute alpha = 0, so the flattened parameter
        # equals the spectral coordinates themselves
        p = Partition((1, 1, 1))
        s = SpectralPoint((0.5, 0.1, -0.6), p)
        alpha = langlands_parameter(
            p, FormSet((const_form(),) * 3), s)
        assert np.allclose(alpha.entries, s.values, atol=1e-12)

    def test_sum_zero(self):
        p = Partition((2, 1))
        s = SpectralPoint.from_leading(p, [0.4 + 0.3j])
        phi = mock_maass_form(2, 1)
        alpha = langlands_parameter(p, FormSet((phi, const_form())), s)
        assert abs(sum(alpha.entries)) < 1e-10

    def test_permutation_covariance(self):
        # alpha(sigma P, sigma Phi, sigma s) is a permutation of alpha(P, Phi, s)
        p = Partition((1, 2))
        phi = mock_maass_form(2, 3)
        forms = FormSet((const_form(), phi))
        s = SpectralPoint.from_leading(p, [0.7])
        sigma = (1, 0)
        a1 = sorted(langlands_parameter(p, forms, s).entries,
                    key=lambda z: (z.real, z.imag))
        a2 = sorted(langlands_parameter(
            p.permuted(sigma), forms.permuted(sigma),
            s.permuted(sigma)).entries, key=lambda z: (z.real, z.imag))
        assert np.allclose(a1, a2, atol=1e-12)


class TestPartition:
    def test_invalid(self):
        with pytest.raises(ValueError):
            Partition((0, 2))

    def test_block_offsets(self):
        assert Partition((2, 1, 3)).block_offsets() == (0, 2, 3, 6)
