"""Acceptance suite: the quantitative guarantees of the package.

Each test pins one externally visible contract with an explicit tolerance
and runtime budget; see README.md for the list.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from eiskit.cli import _compositions
from eiskit.core import (
    GroupElement,
    Partition,
    SpectralPoint,
    langlands_parameter,
    rho_borel,
    rho_parabolic,
    rho_parabolic_star,
    rho_phi,
)
from eiskit.forms import FormSet, completion_factor, const_form, mock_maass_form
from eiskit.hecke import eis_hecke_eigenvalue
from eiskit.specfun import bessel_k, zeta_completed
from eiskit.whittaker import QuadratureError, jacquet_oracle, whittaker_gl3
from eiskit.eisenstein import (
    FWRequest,
    check_functional_equation,
    closed_form_fourier_gl2,
    extract_fourier_coefficient,
    fw_formula,
)
from eiskit.uniqueness import (
    AffineMap,
    BlockStructure,
    _exact_witness,
    decide_affine_symmetry,
    enumerate_permutation_symmetries,
    random_falsification,
)
from witness_check import record_rejected_maps, refutes


def test_01_rho_tables_exact():
    t0 = time.time()
    assert rho_borel(2) == (Fraction(1, 2), Fraction(-1, 2))
    assert rho_borel(3) == (Fraction(1), Fraction(0), Fraction(-1))
    assert rho_parabolic(Partition((1, 2))) == (Fraction(1), Fraction(-1, 2))
    assert rho_parabolic(Partition((2, 1))) == (Fraction(1, 2), Fraction(-1))
    assert rho_parabolic(Partition((2, 2))) == (Fraction(1), Fraction(-1))
    assert time.time() - t0 < 1.0


def test_02_rho_identity_all_partitions_n_le_8():
    t0 = time.time()
    for n in range(2, 9):
        rb = rho_borel(n)
        for parts in _compositions(n):
            p = Partition(parts)
            lhs = tuple(a + b for a, b in
                        zip(rho_phi(p), rho_parabolic_star(p)))
            assert lhs == rb, parts
    assert time.time() - t0 < 1.0


def test_03_completed_zeta_functional_equation():
    t0 = time.time()
    rng = np.random.default_rng(0)
    re = rng.uniform(0.1, 0.9, size=100)
    im = rng.uniform(-30.0, 30.0, size=100)
    for sr, si in zip(re, im):
        s = complex(sr, si)
        assert abs(zeta_completed(s) - zeta_completed(1 - s)) <= 1e-10, s
    assert time.time() - t0 < 10.0


def test_04_bessel_k_half_closed_form():
    t0 = time.time()
    for x in (0.1, 1.0, 10.0):
        closed = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert abs(bessel_k(0.5, x) - closed) / closed <= 1e-12, x
    assert time.time() - t0 < 1.0


def test_05_gl2_coefficient_reproduction():
    t0 = time.time()
    p = Partition((1, 1))
    s = SpectralPoint((1.5, -1.5), p)
    forms = FormSet((const_form(), const_form()))
    g = GroupElement.from_iwasawa(np.eye(2), (1.0,))
    for m in (0, 1, 2, 3):
        req = FWRequest(partition=p, forms=forms, M=(m,), s=s, g=g)
        got = extract_fourier_coefficient(2, req, height=500, quad_nodes=64)
        want = closed_form_fourier_gl2(m, 1.5, 1.0)
        assert abs(got - want) <= 1e-4 * abs(want), m
    assert time.time() - t0 < 120.0


def test_06_gl2_completed_coefficient_fe():
    t0 = time.time()
    rng = random.Random(1)
    for _ in range(20):
        m = rng.randint(0, 8)
        s1 = complex(rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0))
        y = rng.uniform(0.3, 3.0)
        left = zeta_completed(2 * s1 + 1) * closed_form_fourier_gl2(m, s1, y)
        right = (zeta_completed(-2 * s1 + 1)
                 * closed_form_fourier_gl2(m, -s1, y))
        assert abs(left - right) <= 1e-8 * max(1.0, abs(left)), (m, s1, y)
    assert time.time() - t0 < 10.0


def test_07_divisor_sum_covariance():
    t0 = time.time()
    rng = random.Random(2)
    m_values = sorted(rng.sample(range(2, 1001), 8)) + [1]
    for n in range(2, 7):
        for parts in _compositions(n):
            p = Partition(parts)
            forms = FormSet(tuple(
                const_form() if nk == 1 else mock_maass_form(nk, 10 + j)
                for j, nk in enumerate(parts)))
            s = SpectralPoint.from_leading(
                p, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for _ in range(p.r - 1)])
            for sigma in itertools.permutations(range(p.r)):
                for m in m_values:
                    left = eis_hecke_eigenvalue(p, forms, s, m)
                    right = eis_hecke_eigenvalue(
                        p.permuted(sigma), forms.permuted(sigma),
                        s.permuted(sigma), m)
                    resid = abs(left - right)
                    assert resid <= 1e-12 * max(1.0, abs(left)), (
                        parts, sigma, m, resid)
    assert time.time() - t0 < 30.0


def test_08_symbolic_fe_closure():
    t0 = time.time()
    # full permutation group on the minimal-parabolic GL(3) case
    p = Partition((1, 1, 1))
    forms = FormSet((const_form(),) * 3)
    s = SpectralPoint((0.4, 0.1, -0.5), p)
    for sigma in itertools.permutations(range(3)):
        assert check_functional_equation(p, forms, s, sigma,
                                         mode="symbolic").passed, sigma
    # (1,2) <-> (2,1)
    p12 = Partition((1, 2))
    forms12 = FormSet((const_form(), mock_maass_form(2, 1)))
    s12 = SpectralPoint.from_leading(p12, [0.8])
    rep = check_functional_equation(p12, forms12, s12, (1, 0),
                                    mode="symbolic")
    assert rep.passed and tuple(rep.metadata["sigma_partition"]) == (2, 1)
    # (2,2) block swap
    p22 = Partition((2, 2))
    forms22 = FormSet((mock_maass_form(2, 1), mock_maass_form(2, 2)))
    s22 = SpectralPoint.from_leading(p22, [0.6])
    assert check_functional_equation(p22, forms22, s22, (1, 0),
                                     mode="symbolic").passed
    assert time.time() - t0 < 5.0


def test_09_gl3_whittaker_invariance_and_oracle():
    t0 = time.time()
    rng = np.random.default_rng(4)
    # permutation invariance at 5 random points
    for _ in range(5):
        a1 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
        a2 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0))
        alpha = (a1, a2, -a1 - a2)
        y1 = rng.uniform(0.6, 1.6)
        y2 = rng.uniform(0.6, 1.6)
        vals = [whittaker_gl3(tuple(alpha[i] for i in perm), y1, y2)
                for perm in itertools.permutations(range(3))]
        ref = max(abs(v) for v in vals)
        assert max(abs(v - vals[0]) for v in vals) <= 1e-6 * max(ref, 1e-30)
    # independent-oracle agreement at 10 certified cone points
    certified = 0
    attempts = 0
    while certified < 10 and attempts < 30:
        attempts += 1
        # cone points with both parameter gaps >= 1, where the oracle's
        # two-pass error estimate is reliable
        g1 = rng.uniform(1.0, 2.2)
        g2 = rng.uniform(1.0, 2.2)
        t = rng.uniform(-1.0, 1.0)
        shift = (g2 - g1) / 3
        alpha = (complex(g1, t) + shift, complex(0.0, -2 * t) + shift,
                 complex(-g2, t) + shift)
        y1 = rng.uniform(0.7, 1.3)
        y2 = rng.uniform(0.7, 1.3)
        try:
            oracle = jacquet_oracle(alpha, (y1, y2), tol=1e-5)
        except QuadratureError:
            continue  # the oracle declined to certify this point
        fast = whittaker_gl3(alpha, y1, y2)
        assert abs(fast - oracle) <= 1e-5 * max(abs(oracle), 1e-30), (
            alpha, y1, y2)
        certified += 1
    assert certified == 10
    assert time.time() - t0 < 300.0


@pytest.mark.slow
@pytest.mark.parametrize("s_values", [
    (2.4, 0.1, -2.5),
    (2.1 + 0.4j, 0.2 - 0.1j, -2.3 - 0.3j),
], ids=["real", "complex"])
def test_10_gl3_numeric_coefficient_vs_factored_formula(s_values):
    # a real and a complex point away from s = (2, 0, -2), where a constant
    # fitted at that one point would also agree: the raw coefficient is the
    # E* coefficient over the completion factor
    t0 = time.time()
    p = Partition((1, 1, 1))
    s = SpectralPoint(s_values, p)
    forms = FormSet((const_form(),) * 3)
    g = GroupElement.identity(3)
    req = FWRequest(partition=p, forms=forms, M=(1, 1), s=s, g=g)
    got = extract_fourier_coefficient(3, req, height=15, quad_nodes=12)
    want = fw_formula(req) / completion_factor(p, forms, s,
                                               truncation=4000).value
    assert abs(got - want) <= 5e-2 * abs(want), (got, want)
    assert time.time() - t0 < 900.0


def test_11_uniqueness_certification(monkeypatch):
    t0 = time.time()
    # exactly the kernel-classes of block permutations are accepted
    cases = [
        (Partition((1, 1, 1)),
         FormSet((const_form(),) * 3), BlockStructure((3,))),
        (Partition((2, 2)),
         FormSet((mock_maass_form(2, 1), mock_maass_form(2, 2))),
         BlockStructure((1, 1))),
        (Partition((2, 2, 2)),
         FormSet((mock_maass_form(2, 5),) * 3), BlockStructure((3,))),
    ]
    rng = random.Random(13)
    for part, forms, blocks in cases:
        r = part.r
        expected = set(enumerate_permutation_symmetries(part, forms))
        for sigma in itertools.permutations(range(r)):
            base = AffineMap.permutation(sigma)
            verdict = decide_affine_symmetry(part, blocks, base)
            assert verdict.accepted == (sigma in expected), (part, sigma)
            if verdict.accepted:
                assert verdict.permutation == sigma
                # any kernel representative decides the same way
                rows = [list(row) for row in base.A]
                for i in range(r):
                    t = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                    rows[i] = [v + t * part.parts[k]
                               for k, v in enumerate(rows[i])]
                shifted = AffineMap(tuple(tuple(rw) for rw in rows), base.b)
                v2 = decide_affine_symmetry(part, blocks, shifted)
                assert v2.accepted and v2.permutation == sigma
                # at the helper's 5 (_WITNESS_ATTEMPTS) seeded rational
                # points on the hyperplane, an accepted map ties in every block
                for mu in (base, shifted):
                    assert _exact_witness(part, blocks, mu, rng) is None
    part, blocks = Partition((1, 1, 1)), BlockStructure((3,))
    maps = record_rejected_maps(monkeypatch)
    report = random_falsification(part, blocks, trials=100, seed=7)
    assert report.trials == 100 and report.rejections == 100
    for w in report.witnesses:
        assert refutes(part, blocks, maps[w["trial"]], w), w
    assert time.time() - t0 < 60.0
