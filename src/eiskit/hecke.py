"""Hecke eigenvalues of Eisenstein series: the one divisor-sum engine.

The eigenvalue is multiplicative in m, so it is computed one prime power
p^a || m at a time (never a global divisor scan), and m up to 1e6 with r up
to 6 stays fast.
"""

from __future__ import annotations

import cmath

from .core import SpectralPoint
from .forms import FormSet, _factorize, _local_series

__all__ = ["eis_hecke_eigenvalue"]


def _power(p: int, x: complex) -> complex:
    """p^x; an overflow, or an infinite x (2 * 1e308i), whose power Python
    reports as a ZeroDivisionError, raises ValueError."""
    try:
        return complex(p) ** x
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"the divisor-sum term {p}^{x} overflows the float "
                         "range") from None


def eis_hecke_eigenvalue(forms: FormSet, s: SpectralPoint, m: int
                         ) -> complex:
    """sum over c_1 ... c_r = m of prod_j lambda_{phi_j}(c_j) c_j^{s_j}.

    At p^a || m this is the x^a coefficient of the product over j of the
    shifted local series sum_e lambda_j(p^e) p^{e s_j} x^e; m^{-s/2} sigma_s(m)
    on the GL(2) constant forms at (s/2, -s/2).  Forms of degrees other than
    the parts of ``s.partition``, or a term or result beyond the float
    range, raise ValueError.
    """
    forms.check_against(s.partition)
    total = 1.0 + 0.0j
    for p, a in _factorize(m).items():
        local = [1.0 + 0.0j] + [0j] * a
        for form, sj in zip(forms.forms, s.values):
            shifted = [lam * _power(p, e * sj)
                       for e, lam in enumerate(_local_series(form, p, a))]
            local = [sum(local[i] * shifted[e - i] for i in range(e + 1))
                     for e in range(a + 1)]
        total *= local[a]
    if not cmath.isfinite(total):
        raise ValueError("the Hecke eigenvalue overflows the float range")
    return total

