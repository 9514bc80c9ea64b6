"""Scalar reference for the lambda(n) tables, for the forms and Hecke tests.

The library reads lambda(n) from one prime sieve per form; this function
computes each value on its own, from the factorization of n.
"""

from eiskit.forms import FormSpec, _factorize, _local_series


def hecke_extend(form: FormSpec, m: int) -> complex:
    """lambda(m) of one form, the multiplicative extension of its prime data."""
    out = 1.0 + 0.0j
    for p, k in _factorize(m).items():
        out *= _local_series(form, p, k)[k]
    return out
