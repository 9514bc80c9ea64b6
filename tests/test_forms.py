"""Mock forms, multiplicative extension, and completed L-functions."""

import cmath
import math

import mpmath as mp
import pytest

from eiskit.forms import (
    FormSet,
    HeckeDataError,
    adjoint_l_at_one,
    completion_factor,
    const_form,
    form_from_json,
    form_to_json,
    hecke_extend,
    lfunction_completed,
    mock_maass_form,
    rankin_selberg_completed,
)
from eiskit.core import Partition, SpectralPoint
from eiskit.specfun import zeta_completed

mp.mp.dps = 25


class TestMockForms:
    def test_deterministic(self):
        f1 = mock_maass_form(2, 5)
        f2 = mock_maass_form(2, 5)
        assert f1.hecke[101] == f2.hecke[101]
        assert f1.alpha == f2.alpha

    def test_distinct_nonzero_eigenvalues(self):
        # the falsifier relies on lambda_j(p) all distinct and nonzero
        forms = [mock_maass_form(2, s) for s in range(1, 6)]
        for p in (2, 3, 5, 7, 11, 97):
            vals = [f.hecke[p] for f in forms]
            assert all(abs(v) > 1e-3 for v in vals)
            assert len({round(v.real, 8) for v in vals}) == len(vals)

    def test_ramanujan_bound(self):
        f = mock_maass_form(2, 3)
        assert all(abs(v) <= 2.0 + 1e-12 for v in f.hecke.values())

    def test_parameter_sum_zero(self):
        for deg in (2, 3, 4):
            f = mock_maass_form(deg, 2)
            assert abs(sum(f.alpha)) < 1e-12

    def test_json_round_trip(self):
        f = mock_maass_form(2, 9)
        g = form_from_json(form_to_json(f))
        assert g == f
        assert g.hecke[13] == pytest.approx(f.hecke[13], rel=1e-15)
        # degree >= 3 prime powers come from the Satake parameters alone
        f3 = mock_maass_form(3, 2)
        g3 = form_from_json(form_to_json(f3))
        assert g3 == f3
        assert g3.satake == f3.satake
        assert hecke_extend(g3, 4) == hecke_extend(f3, 4)


class TestHeckeExtend:
    def test_multiplicativity(self):
        f = mock_maass_form(2, 1)
        assert hecke_extend(f, 6) == pytest.approx(
            hecke_extend(f, 2) * hecke_extend(f, 3), rel=1e-12)

    def test_hecke_recursion_degree2(self):
        # lambda(p^2) = lambda(p)^2 - 1
        f = mock_maass_form(2, 4)
        for p in (2, 5, 13):
            assert hecke_extend(f, p * p) == pytest.approx(
                f.hecke[p] ** 2 - 1, rel=1e-12)

    def test_satake_power_sum_degree3(self):
        # lambda(p^k) = h_k(satake), checked against a direct monomial sum
        f = mock_maass_form(3, 2)
        p = 7
        b = f.satake[p]
        direct = sum(b[0] ** i * b[1] ** j * b[2] ** k
                     for i in range(3) for j in range(3) for k in range(3)
                     if i + j + k == 2)
        assert hecke_extend(f, p * p) == pytest.approx(direct, rel=1e-12)

    def test_missing_prime(self):
        f = mock_maass_form(2, 1, prime_limit=50)
        with pytest.raises(HeckeDataError):
            hecke_extend(f, 10007)

    def test_const_form_is_one(self):
        c = const_form()
        assert hecke_extend(c, 840) == 1


class TestCompletedL:
    def test_rankin_selberg_both_trivial_is_zeta(self):
        val = rankin_selberg_completed(const_form(), const_form(), 2.5,
                                       truncation=4000)
        assert val.value == pytest.approx(zeta_completed(2.5), rel=1e-10)

    def test_truncation_bound_honest(self):
        f = mock_maass_form(2, 1)
        coarse = lfunction_completed(f, 3.0, truncation=200)
        fine = lfunction_completed(f, 3.0, truncation=4000)
        assert abs(coarse.value - fine.value) <= coarse.bound

    def test_rankin_selberg_trivial_factor(self):
        # phi x 1 degenerates to the L-function of phi
        f = mock_maass_form(2, 2)
        a = rankin_selberg_completed(f, const_form(), 3.0, truncation=4000)
        b = lfunction_completed(f, 3.0, truncation=4000)
        assert a.value == pytest.approx(b.value, rel=1e-8)

    def test_adjoint_positive_real(self):
        for seed in (1, 2, 3):
            f = mock_maass_form(2, seed)
            v = adjoint_l_at_one(f, truncation=4000)
            assert abs(v.value.imag) < 1e-8
            assert v.value.real > 0

    def test_completion_factor_borel_gl2(self):
        # Borel GL(2): single factor zeta*(1 + s1 - s2) = zeta*(1 + 2 s1)
        p = Partition((1, 1))
        s = SpectralPoint((1.5, -1.5), p)
        forms = FormSet((const_form(), const_form()))
        val = completion_factor(p, forms, s, truncation=4000)
        assert val.value == pytest.approx(zeta_completed(4.0), rel=1e-8)
