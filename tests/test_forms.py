"""Mock forms, multiplicative extension, and completed L-functions."""

import cmath
import dataclasses
import hashlib
import math
import random

import mpmath as mp
import numpy as np
import pytest

from eiskit.forms import (
    DEFAULT_PRIME_LIMIT,
    DEFAULT_TRUNCATION,
    FormSet,
    FormSpec,
    adjoint_l_at_one,
    completion_factor,
    const_form,
    form_from_json,
    form_to_json,
    lfunction_completed,
    mock_maass_form,
    _hecke_table,
    _mock_offsets,
    _primes_up_to,
    _semicircle_angles,
    rankin_selberg_completed,
)
from eiskit.core import Partition, SpectralPoint
from eiskit.specfun import gamma_complex, zeta, zeta_completed

from hecke_reference import hecke_extend

mp.mp.dps = 25


class TestMockForms:
    def test_deterministic(self):
        f1 = mock_maass_form(2, 5)
        f2 = mock_maass_form(2, 5)
        assert hecke_extend(f1, 101) == hecke_extend(f2, 101)
        assert f1.alpha == f2.alpha

    def test_distinct_nonzero_eigenvalues(self):
        # mock forms of different seeds are told apart by their lambda(p),
        # which are distinct and nonzero
        forms = [mock_maass_form(2, s) for s in range(1, 6)]
        for p in (2, 3, 5, 7, 11, 97):
            vals = [hecke_extend(f, p) for f in forms]
            assert all(abs(v) > 1e-3 for v in vals)
            assert len({round(v.real, 8) for v in vals}) == len(vals)

    def test_ramanujan_bound(self):
        f = mock_maass_form(2, 3)
        assert all(abs(hecke_extend(f, p)) <= 2.0 + 1e-12 for p in f.satake)

    def test_only_satake_data_stored(self):
        # lambda(p) is the sum of the Satake parameters, stored once
        for deg in (2, 3, 4):
            f = mock_maass_form(deg, 2)
            assert f.hecke == {}
            assert hecke_extend(f, 97) == pytest.approx(sum(f.satake[97]),
                                                        rel=1e-15)

    def test_parameter_sum_zero(self):
        for deg in (2, 3, 4):
            f = mock_maass_form(deg, 2)
            assert abs(sum(f.alpha)) < 1e-12

    def test_json_round_trip(self):
        f = mock_maass_form(2, 9)
        g = form_from_json(form_to_json(f))
        assert g == f
        assert hecke_extend(g, 13) == pytest.approx(hecke_extend(f, 13),
                                                    rel=1e-15)
        # degree >= 3 prime powers come from the Satake parameters alone
        f3 = mock_maass_form(3, 2)
        g3 = form_from_json(form_to_json(f3))
        assert g3 == f3
        assert g3.satake == f3.satake
        assert hecke_extend(g3, 4) == hecke_extend(f3, 4)

    def test_degree_one_refused(self):
        with pytest.raises(ValueError,
                           match="^mock forms require degree >= 2, got 1$"):
            mock_maass_form(1, 3)

    def test_seed_beyond_float_range(self):
        # degree 2 shifts each angle by seed * 0.618...; degree 3 hashes
        # the seed and takes it whole
        seed = 10**400
        with pytest.raises(ValueError, match=f"mock seed {seed} "):
            mock_maass_form(2, seed)
        assert len(mock_maass_form(3, seed).satake) == len(
            _primes_up_to(DEFAULT_PRIME_LIMIT))


def test_primes_up_to():
    for n in range(60):
        want = [p for p in range(2, n + 1)
                if all(p % q for q in range(2, p))]
        assert _primes_up_to(n) == tuple(want)
    primes = _primes_up_to(DEFAULT_PRIME_LIMIT)
    assert (len(primes), primes[-1]) == (564, 4093)


class TestMockFormBits:
    """Mock Satake data, bit for bit.

    Degree 2 solves the semicircle angles of all primes in one masked
    Newton loop and builds e^{+-i theta} as cos theta +- i sin theta.  The
    pins were recorded from the per-prime scalar solver (math.sin, math.cos
    and cmath.exp) that it replaced: each is a SHA-256 prefix of the bytes
    of the Satake parameters, in prime order.  Seeds 10^6 and 123456789
    shift every angle by a large multiple of 0.618...; -5 by a negative one.
    """

    PINS = {
        (2, 0): "822faec08b9530ee",
        (2, 1): "4cb58563e914e63a",
        (2, 7): "a0e352e6ee7b29cd",
        (2, 67): "a6fab4a3721205cf",
        (2, 99): "5dca8fd448c71388",
        (2, -5): "3e5f92e3540cd975",
        (2, 10**6): "6b6922c8ded2458e",
        (2, 123456789): "be04b7c217f3234a",
        (3, 2): "41b837f998636905",
        (4, 2): "e6812857a34c9b2a",
    }

    @pytest.mark.parametrize("case", PINS)
    def test_recorded_bits(self, case):
        form = mock_maass_form(*case)
        data = np.array([form.satake[p] for p in sorted(form.satake)],
                        complex)
        digest = hashlib.sha256(data.tobytes()).hexdigest()[:16]
        assert digest == self.PINS[case]

    def test_offsets_are_the_per_prime_draws(self):
        assert _mock_offsets().tolist() == [
            random.Random(p).random()
            for p in _primes_up_to(DEFAULT_PRIME_LIMIT)]

    @staticmethod
    def _scalar_angle(u):
        """The per-prime solver the masked loop replaced."""
        theta = math.pi * u
        for _ in range(60):
            f = (theta - math.sin(theta) * math.cos(theta)) / math.pi - u
            df = (1.0 - math.cos(2.0 * theta)) / math.pi
            if df < 1e-9:
                theta += 1e-3
                continue
            step = f / df
            theta -= step
            if abs(step) < 1e-14:
                break
        return min(max(theta, 1e-6), math.pi - 1e-6)

    def test_masked_loop_matches_the_scalar_solver(self):
        # u = 0 and its neighbours start at df < 1e-9
        u = np.concatenate((np.linspace(0.0, 1.0, 4001)[:-1],
                            [5e-324, 1e-300, 1e-5, 0.5, 1.0 - 2.0**-53]))
        assert _semicircle_angles(u).tolist() == [
            self._scalar_angle(x) for x in u.tolist()]

    @pytest.mark.parametrize("seed", [3, 10**17])
    def test_satake_matches_the_scalar_build(self, seed):
        # 10^17 * 0.618... has no fractional bits: every u is 0
        want = {}
        for p in _primes_up_to(DEFAULT_PRIME_LIMIT):
            u = (random.Random(p).random() + seed * 0.6180339887498949) % 1.0
            theta = self._scalar_angle(u)
            if abs(math.cos(theta)) < 0.0125:
                theta = self._scalar_angle((u + 0.04) % 1.0)
            want[p] = (cmath.exp(1j * theta), cmath.exp(-1j * theta))
        assert mock_maass_form(2, seed).satake == want


def _hecke_only(form):
    """The same form with lambda(p), the sum of its Satake parameters, in
    their place."""
    return FormSpec(form.name + ":hecke", form.degree, form.parity,
                    form.alpha, {p: sum(b) for p, b in form.satake.items()})


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
                hecke_extend(f, p) ** 2 - 1, rel=1e-12)

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
        with pytest.raises(ValueError,
                           match="'mock2:1' has no Hecke data at prime 10007"):
            hecke_extend(f, 10007)

    def test_const_form_is_one(self):
        c = const_form()
        assert hecke_extend(c, 840) == 1

    def test_degree3_hecke_only_has_no_prime_squares(self):
        f = mock_maass_form(3, 2)
        g = _hecke_only(f)
        assert hecke_extend(g, 30) == pytest.approx(hecke_extend(f, 30),
                                                    rel=1e-12)
        with pytest.raises(ValueError, match="has no Hecke data at prime 2$"):
            hecke_extend(g, 4)


@pytest.mark.parametrize("form", [
    mock_maass_form(2, 1), mock_maass_form(2, 7), mock_maass_form(3, 2),
    _hecke_only(mock_maass_form(2, 4))], ids=["mock2:1", "mock2:7", "mock3:2",
                                             "hecke-only"])
def test_hecke_table_matches_hecke_extend(form):
    # the sieve behind every truncated Dirichlet sum against lambda(n)
    # built prime by prime
    table = _hecke_table(form)
    assert len(table) == DEFAULT_TRUNCATION + 1
    for n in range(1, DEFAULT_TRUNCATION + 1):
        assert table[n] == pytest.approx(hecke_extend(form, n), rel=1e-12,
                                         abs=1e-12), n


class TestHeckeTable:
    """One read-only lambda(n) table per form, built once."""

    def test_read_only(self):
        table = _hecke_table(mock_maass_form(2, 1))
        with pytest.raises(ValueError):
            table[2] = 0

    def test_repeat_call_returns_the_same_table(self):
        f = mock_maass_form(2, 3)
        assert _hecke_table(f) is _hecke_table(f)

    def test_forms_sharing_a_name_get_their_own_table(self):
        # the pair of test_forms_sharing_a_name_are_not_equal: the same
        # hash, unequal data, so two cache entries
        impostor = dataclasses.replace(mock_maass_form(2, 2), name="mock2:1")
        genuine = mock_maass_form(2, 1)
        a, b = _hecke_table(genuine), _hecke_table(impostor)
        assert a is not b
        assert a[6] == hecke_extend(genuine, 6)
        assert b[6] == hecke_extend(impostor, 6) != a[6]


def _plain_dirichlet(coeffs, s):
    """sum_{n >= 1} coeffs[n - 1] n^{-s}, term by term from n = 1."""
    acc = 0j
    for n, c in enumerate(coeffs, start=1):
        acc += c * n ** (-s)
    return acc


@pytest.fixture(scope="module")
def plain_lambdas():
    """lambda(1..T) of mock2:1 and mock2:5 from hecke_extend, T = 4000."""
    return {seed: [hecke_extend(mock_maass_form(2, seed), n)
                   for n in range(1, DEFAULT_TRUNCATION + 1)]
            for seed in (1, 5)}


class TestDirichletSums:
    """The numpy Dirichlet sums against plain Python sums over hecke_extend;
    the prefactors are formed as in the library, so only the sums differ.
    Completed values can be far below 1 (4e-9 for the convolution at
    s = 3), so pytest's default absolute tolerance is switched off."""

    @pytest.mark.parametrize("s", [3.0, 3.0 + 2.0j])
    def test_lfunction(self, plain_lambdas, s):
        f = mock_maass_form(2, 1)
        pref = cmath.exp(-s * math.log(math.pi))
        for a in f.alpha:
            pref *= gamma_complex(0.5 * (s + a + f.parity))
        want = pref * _plain_dirichlet(plain_lambdas[1], s)
        got = lfunction_completed(f, s)
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("s", [3.0, 3.0 + 2.0j])
    def test_rankin_selberg(self, plain_lambdas, s):
        f, g = mock_maass_form(2, 1), mock_maass_form(2, 5)
        pref = cmath.exp(-2.0 * s * math.log(math.pi)) * zeta(2.0 * s)
        for a in f.alpha:
            for b in g.alpha:
                pref *= gamma_complex(0.5 * (s + a + b))
        want = pref * _plain_dirichlet(
            [x * y for x, y in zip(plain_lambdas[1], plain_lambdas[5])], s)
        got = rankin_selberg_completed(f, g, s)
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_adjoint_at_one(self, plain_lambdas):
        f = mock_maass_form(2, 5)
        a1, a2 = f.alpha
        pref = gamma_complex(0.5 + a1) * gamma_complex(0.5 + a2)
        want = pref * _plain_dirichlet(
            [x * x.conjugate() for x in plain_lambdas[5]], 1)
        got = adjoint_l_at_one(f)
        assert got == pytest.approx(want, rel=1e-13, abs=0)


class TestCompletedL:
    def test_rankin_selberg_both_trivial_is_zeta(self):
        val = rankin_selberg_completed(const_form(), const_form(), 2.5)
        assert val == pytest.approx(zeta_completed(2.5), rel=1e-10)

    def test_rankin_selberg_trivial_factor(self):
        # phi x 1 degenerates to the L-function of phi
        f = mock_maass_form(2, 2)
        a = rankin_selberg_completed(f, const_form(), 3.0)
        b = lfunction_completed(f, 3.0)
        assert a == pytest.approx(b, rel=1e-8)

    @pytest.mark.parametrize("seeds, s", [
        ((1, 5), 3.0), ((1, 5), 3.0 + 2.0j), ((1,), 3.0), ((1,), 3.0 + 2.0j),
        ((5,), 3.0), ((5,), 3.0 + 2.0j)], ids=[
        "3.0", "(3+2j)", "L-mock2:1-3.0", "L-mock2:1-(3+2j)", "L-mock2:5-3.0",
        "L-mock2:5-(3+2j)"])
    def test_rankin_selberg_against_euler_product(self, seeds, s):
        # L(s, f), and the convolution L(s, f x g) = zeta(2s) sum lambda_f
        # lambda_g n^-s, stripped of its Gamma prefactor, against the Euler
        # product over the Satake parameters (for f x g, their products)
        if len(seeds) == 1:
            f = mock_maass_form(2, seeds[0])
            shifts = [a + f.parity for a in f.alpha]
            satake = f.satake
            got = lfunction_completed(f, s)
        else:
            f, g = (mock_maass_form(2, seed) for seed in seeds)
            shifts = [a + b for a in f.alpha for b in g.alpha]
            satake = {p: [a * b for a in f.satake[p] for b in g.satake[p]]
                      for p in f.satake}
            got = rankin_selberg_completed(f, g, s)
        pref = mp.pi ** (-len(shifts) * s / 2)
        for a in shifts:
            pref *= mp.gamma((s + a) / 2)
        euler = mp.mpf(1)
        for p in sorted(satake):
            for a in satake[p]:
                euler /= 1 - a * mp.mpf(p) ** (-s)
        # measured: at most 1.5e-9 (f x g) and 6.7e-10 (f alone)
        assert got / complex(pref) == pytest.approx(complex(euler), rel=1e-8,
                                                    abs=0)

    def test_adjoint_positive_real(self):
        for seed in (1, 2, 3):
            f = mock_maass_form(2, seed)
            v = adjoint_l_at_one(f)
            assert abs(v.imag) < 1e-8
            assert v.real > 0

    def test_completion_factor_borel_gl2(self):
        # Borel GL(2): single factor zeta*(1 + s1 - s2) = zeta*(1 + 2 s1)
        p = Partition((1, 1))
        s = SpectralPoint((1.5, -1.5), p)
        forms = FormSet((const_form(), const_form()))
        val = completion_factor(forms, s)
        assert val == pytest.approx(zeta_completed(4.0), rel=1e-8)

    def test_completion_factor_const_first(self):
        # P = (1, 2), forms (1, phi): the one factor is L*(1 + s1 - s2, phi)
        p = Partition((1, 2))
        s = SpectralPoint.from_leading(p, [1.6])
        phi = mock_maass_form(2, 3)
        val = completion_factor(FormSet((const_form(), phi)), s)
        want = lfunction_completed(phi, 1 + s.values[0] - s.values[1])
        assert val == want

    # outside the degrees each function implements, and on the boundary
    # Re s = 1 of the truncated Dirichlet series
    @pytest.mark.parametrize("call, match", [
        (lambda: lfunction_completed(mock_maass_form(3, 1), 2.0),
         "^degree-2 form required, got degree 3$"),
        (lambda: lfunction_completed(mock_maass_form(2, 1), 1.0),
         r"^direct summation needs Re s > 1, got \(1\+0j\)$"),
        (lambda: rankin_selberg_completed(mock_maass_form(3, 1),
                                          mock_maass_form(2, 1), 2.0),
         "^convolution is implemented for degrees 1 and 2 only$"),
        (lambda: rankin_selberg_completed(mock_maass_form(2, 1),
                                          mock_maass_form(2, 2), 1.0),
         r"^direct summation needs Re s > 1, got \(1\+0j\)$"),
        (lambda: adjoint_l_at_one(const_form()),
         "^degree-2 form required, got degree 1$"),
    ], ids=["L-degree-3", "L-at-1", "RS-degrees-3-2", "RS-at-1",
            "adjoint-const"])
    def test_domain_errors(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_poles_raise_pole_error(self):
        with pytest.raises(ValueError,
                           match=r"^zeta\* has a pole at \(1\+0j\)$"):
            rankin_selberg_completed(const_form(), const_form(), 1.0)
        p = Partition((2, 2))
        f = mock_maass_form(2, 1)
        with pytest.raises(ValueError, match=r"^L\*\(s, phi_0 x phi_1\) has "
                                             r"a pole at \(1\+0j\)$"):
            completion_factor(FormSet((f, f)), SpectralPoint((0, 0), p))
