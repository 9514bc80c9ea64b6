"""Mock forms, multiplicative extension, and completed L-functions."""

import cmath
import math

import mpmath as mp
import pytest

from eiskit.forms import (
    DEFAULT_TRUNCATION,
    FormSet,
    FormSpec,
    HeckeDataError,
    adjoint_l_at_one,
    completion_factor,
    const_form,
    form_from_json,
    form_to_json,
    hecke_extend,
    lfunction_completed,
    mock_maass_form,
    _hecke_table,
    rankin_selberg_completed,
)
from eiskit.core import Partition, SpectralPoint
from eiskit.specfun import PoleError, zeta_completed

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


def _hecke_only(form):
    """The same form without its Satake parameters."""
    return FormSpec(form.name + ":hecke", form.degree, form.parity,
                    form.alpha, dict(form.hecke))


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
        # mock data stops at DEFAULT_PRIME_LIMIT = 4096 < 10007
        f = mock_maass_form(2, 1)
        with pytest.raises(HeckeDataError):
            hecke_extend(f, 10007)

    def test_const_form_is_one(self):
        c = const_form()
        assert hecke_extend(c, 840) == 1

    def test_degree3_hecke_only_has_no_prime_squares(self):
        f = mock_maass_form(3, 2)
        g = _hecke_only(f)
        assert hecke_extend(g, 30) == pytest.approx(hecke_extend(f, 30),
                                                    rel=1e-12)
        with pytest.raises(HeckeDataError):
            hecke_extend(g, 4)


@pytest.mark.parametrize("form", [
    mock_maass_form(2, 1), mock_maass_form(2, 7), mock_maass_form(3, 2),
    _hecke_only(mock_maass_form(2, 4))], ids=["mock2:1", "mock2:7", "mock3:2",
                                             "hecke-only"])
def test_hecke_table_matches_hecke_extend(form):
    # the sieve behind every truncated Dirichlet sum against lambda(n)
    # built prime by prime
    table = _hecke_table(form, DEFAULT_TRUNCATION)
    assert len(table) == DEFAULT_TRUNCATION + 1
    for n in range(1, DEFAULT_TRUNCATION + 1):
        assert table[n] == pytest.approx(hecke_extend(form, n), rel=1e-12,
                                         abs=1e-12), n


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

    @pytest.mark.parametrize("s", [3.0, 3.0 + 2.0j])
    def test_rankin_selberg_against_euler_product(self, s):
        # the convolution L(s, f x g) = zeta(2s) sum lambda_f lambda_g n^-s,
        # stripped of its Gamma prefactor, against the Euler product over
        # the pairs of Satake parameters
        f, g = mock_maass_form(2, 1), mock_maass_form(2, 5)
        pref = mp.pi ** (-2 * s)
        for a in f.alpha:
            for b in g.alpha:
                pref *= mp.gamma((s + a + b) / 2)
        euler = mp.mpf(1)
        for p in sorted(f.satake):
            for a in f.satake[p]:
                for b in g.satake[p]:
                    euler /= 1 - a * b * mp.mpf(p) ** (-s)
        got = rankin_selberg_completed(f, g, s, truncation=4000).value
        assert got / complex(pref) == pytest.approx(complex(euler), rel=1e-7)

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

    def test_completion_factor_const_first(self):
        # P = (1, 2), forms (1, phi): the one factor is L*(1 + s1 - s2, phi)
        p = Partition((1, 2))
        s = SpectralPoint.from_leading(p, [1.6])
        phi = mock_maass_form(2, 3)
        val = completion_factor(p, FormSet((const_form(), phi)), s,
                                truncation=4000)
        want = lfunction_completed(phi, 1 + s.values[0] - s.values[1],
                                   truncation=4000)
        assert val.value == want.value

    def test_poles_raise_pole_error(self):
        with pytest.raises(PoleError):
            rankin_selberg_completed(const_form(), const_form(), 1.0,
                                     truncation=100)
        p = Partition((2, 2))
        f = mock_maass_form(2, 1)
        with pytest.raises(PoleError):
            completion_factor(p, FormSet((f, f)), SpectralPoint((0, 0), p),
                              truncation=100)
