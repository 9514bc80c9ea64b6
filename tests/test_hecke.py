"""Eisenstein Hecke eigenvalues (twisted divisor sums)."""

import itertools

import pytest

from eiskit.cli import _compositions
from eiskit.core import Partition, SpectralPoint
from eiskit.forms import FormSet, const_form, hecke_extend, mock_maass_form
from eiskit.hecke import divisor_sigma, eis_hecke_eigenvalue


def _mock_formset(partition, base_seed=1):
    return FormSet(tuple(
        const_form() if nj == 1 else mock_maass_form(nj, base_seed + j)
        for j, nj in enumerate(partition.parts)))


class TestDivisorSigma:
    def test_small_values(self):
        # sigma_s(m) = sum_{d | m} d^s; exact integers at s = 1
        assert divisor_sigma(1, 6) == pytest.approx(12)
        assert divisor_sigma(1, 28) == pytest.approx(56)
        assert divisor_sigma(0, 12) == pytest.approx(6)

    def test_multiplicative(self):
        s = 0.7 + 0.3j
        assert divisor_sigma(s, 35) == pytest.approx(
            divisor_sigma(s, 5) * divisor_sigma(s, 7), rel=1e-12)

    def test_against_divisor_list(self):
        for s in (1, -0.5, 0.7 + 0.3j, 2.4 - 1j):
            for m in (1, 2, 12, 97, 360, 1024, 5040):
                direct = sum(complex(d) ** complex(s)
                             for d in range(1, m + 1) if m % d == 0)
                assert divisor_sigma(s, m) == pytest.approx(
                    direct, rel=1e-12), (s, m)


class TestEigenvalue:
    def test_m_one_is_one(self):
        p = Partition((1, 1, 1))
        s = SpectralPoint.from_leading(p, [0.5, 0.25])
        assert eis_hecke_eigenvalue(p, _mock_formset(p), s, 1) == 1

    def test_borel_gl2_is_divisor_sum(self):
        # sum_{c d = m} c^{s1} d^{s2} = m^{s2} sigma_{s1 - s2}(m)
        p = Partition((1, 1))
        s = SpectralPoint((0.4, -0.4), p)
        forms = FormSet((const_form(), const_form()))
        for m in (2, 6, 12, 100):
            expect = m ** (-0.4) * divisor_sigma(0.8, m)
            assert eis_hecke_eigenvalue(p, forms, s, m) == pytest.approx(
                expect, rel=1e-12)

    def test_direct_factorization_sum(self):
        # brute force over ordered factorizations c1 c2 = m for P(2,1)
        p = Partition((2, 1))
        phi = mock_maass_form(2, 1)
        forms = FormSet((phi, const_form()))
        s = SpectralPoint.from_leading(p, [0.3 + 0.1j])
        m = 24
        expect = 0j
        for c1 in range(1, m + 1):
            if m % c1:
                continue
            c2 = m // c1
            expect += (hecke_extend(phi, c1) * c1 ** s.values[0]
                       * c2 ** s.values[1])
        assert eis_hecke_eigenvalue(p, forms, s, m) == pytest.approx(
            expect, rel=1e-12)

    def test_direct_factorization_sum_three_factors(self):
        # brute force over ordered factorizations c1 c2 c3 = m for P(3,2,1):
        # prime powers up to p^3 of a Satake-parameter form
        p = Partition((3, 2, 1))
        phi3, phi2 = mock_maass_form(3, 2), mock_maass_form(2, 5)
        forms = FormSet((phi3, phi2, const_form()))
        s = SpectralPoint.from_leading(p, [0.3 + 0.1j, -0.2j])
        m = 360
        expect = 0j
        for c1 in range(1, m + 1):
            for c2 in range(1, m // c1 + 1):
                if m % (c1 * c2):
                    continue
                c3 = m // (c1 * c2)
                expect += (hecke_extend(phi3, c1) * c1 ** s.values[0]
                           * hecke_extend(phi2, c2) * c2 ** s.values[1]
                           * c3 ** s.values[2])
        assert eis_hecke_eigenvalue(p, forms, s, m) == pytest.approx(
            expect, rel=1e-12)

    def test_multiplicative_in_m(self):
        p = Partition((1, 2))
        forms = _mock_formset(p)
        s = SpectralPoint.from_leading(p, [0.6])
        a = eis_hecke_eigenvalue(p, forms, s, 8)
        b = eis_hecke_eigenvalue(p, forms, s, 9)
        ab = eis_hecke_eigenvalue(p, forms, s, 72)
        assert ab == pytest.approx(a * b, rel=1e-12)

    def test_rejects_nonpositive(self):
        p = Partition((1, 1))
        s = SpectralPoint((0.5, -0.5), p)
        with pytest.raises(ValueError):
            eis_hecke_eigenvalue(p, FormSet((const_form(),) * 2), s, 0)


class TestPermutationCovariance:
    def test_all_partitions_small_n(self):
        # exact covariance for every sigma, every partition of n <= 6
        sample_m = (2, 3, 4, 9, 30, 64, 210, 729, 1000)
        for n in range(2, 7):
            for parts in _compositions(n):
                p = Partition(parts)
                forms = _mock_formset(p)
                s = SpectralPoint.from_leading(
                    p, [0.31 * (j + 1) + 0.07j for j in range(p.r - 1)])
                for sigma in itertools.permutations(range(p.r)):
                    for m in sample_m:
                        left = eis_hecke_eigenvalue(p, forms, s, m)
                        right = eis_hecke_eigenvalue(
                            p.permuted(sigma), forms.permuted(sigma),
                            s.permuted(sigma), m)
                        residual = abs(left - right)
                        assert residual <= 1e-12 * max(1.0, abs(left)), (
                            parts, sigma, m, residual)
