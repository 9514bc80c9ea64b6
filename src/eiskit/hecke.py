"""Divisor sums and Hecke eigenvalues of Eisenstein series.

Both are multiplicative in m, so they are computed one prime power p^a || m
at a time (never a global divisor scan), and m up to 1e6 with r up to 6
stays fast.
"""

from __future__ import annotations

from .core import Partition, SpectralPoint
from .forms import FormSet, _factorize, _local_series

__all__ = [
    "divisor_sigma",
    "eis_hecke_eigenvalue",
]


def divisor_sigma(s: complex, m: int) -> complex:
    """sigma_s(m) = sum over positive divisors d of m of d^s
    = prod over p^k || m of (1 + p^s + ... + p^{ks})."""
    s = complex(s)
    out = 1.0 + 0.0j
    for p, k in _factorize(m).items():
        out *= sum(complex(p) ** (e * s) for e in range(k + 1))
    return out


def eis_hecke_eigenvalue(partition: Partition, forms: FormSet,
                         s: SpectralPoint, m: int) -> complex:
    """sum over c_1 ... c_r = m of prod_j lambda_{phi_j}(c_j) c_j^{s_j}.

    At p^a || m this is the x^a coefficient of the product over j of the
    shifted local series sum_e lambda_j(p^e) p^{e s_j} x^e.
    """
    forms.check_against(partition)
    total = 1.0 + 0.0j
    for p, a in _factorize(m).items():
        local = [1.0 + 0.0j] + [0j] * a
        for form, sj in zip(forms.forms, s.values):
            shifted = [lam * complex(p) ** (e * sj)
                       for e, lam in enumerate(_local_series(form, p, a))]
            local = [sum(local[i] * shifted[e - i] for i in range(e + 1))
                     for e in range(a + 1)]
        total *= local[a]
    return total

