"""Divisor sums and Hecke eigenvalues of Eisenstein series.

Both are multiplicative in m, so they are computed one prime power p^a || m
at a time (never a global divisor scan), and m up to 1e6 with r up to 6
stays fast.
"""

from __future__ import annotations

import cmath

from .core import Partition, SpectralPoint
from .forms import FormSet, _factorize, _local_series

__all__ = [
    "divisor_sigma",
    "eis_hecke_eigenvalue",
]


def _power(p: int, x: complex) -> complex:
    """p^x; a power beyond the float range raises ValueError."""
    try:
        return complex(p) ** x
    except OverflowError:
        raise ValueError(f"the divisor-sum term {p}^{x} overflows the float "
                         "range") from None


def _finite(value: complex, what: str) -> complex:
    if not cmath.isfinite(value):
        raise ValueError(f"the {what} overflows the float range")
    return value


def divisor_sigma(s: complex, m: int) -> complex:
    """sigma_s(m) = sum over positive divisors d of m of d^s
    = prod over p^k || m of (1 + p^s + ... + p^{ks}).

    A term or a result beyond the float range raises ValueError.
    """
    s = complex(s)
    out = 1.0 + 0.0j
    for p, k in _factorize(m).items():
        out *= sum(_power(p, e * s) for e in range(k + 1))
    return _finite(out, "divisor sum")


def eis_hecke_eigenvalue(partition: Partition, forms: FormSet,
                         s: SpectralPoint, m: int) -> complex:
    """sum over c_1 ... c_r = m of prod_j lambda_{phi_j}(c_j) c_j^{s_j}.

    At p^a || m this is the x^a coefficient of the product over j of the
    shifted local series sum_e lambda_j(p^e) p^{e s_j} x^e.  A term or a
    result beyond the float range raises ValueError.
    """
    forms.check_against(partition)
    total = 1.0 + 0.0j
    for p, a in _factorize(m).items():
        local = [1.0 + 0.0j] + [0j] * a
        for form, sj in zip(forms.forms, s.values):
            shifted = [lam * _power(p, e * sj)
                       for e, lam in enumerate(_local_series(form, p, a))]
            local = [sum(local[i] * shifted[e - i] for i in range(e + 1))
                     for e in range(a + 1)]
        total *= local[a]
    return _finite(total, "Hecke eigenvalue")

