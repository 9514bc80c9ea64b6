"""Complex special functions: Gamma (Lanczos), Riemann zeta (Euler-Maclaurin),
completed zeta, and the K-Bessel function with complex order.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "PoleError",
    "gamma_complex",
    "zeta",
    "zeta_completed",
    "bessel_k",
]


class PoleError(ZeroDivisionError):
    """Evaluation requested at (or too near) a pole."""

    def __init__(self, where: complex, what: str):
        self.where = where
        self.what = what
        super().__init__(f"{what} has a pole at {where}")


# ------------------------------ Gamma ---------------------------------------

# Lanczos g=7, 9-term coefficients (Godfrey's set); ~15 significant digits.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_series(z: complex) -> complex:
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z + i)
    return acc


def _is_nonpositive_int(z: complex) -> bool:
    return (abs(z.imag) < 1e-14 and z.real <= 0.5
            and abs(z.real - round(z.real)) < 1e-14)


def gamma_complex(z: complex) -> complex:
    """Gamma(z) by the Lanczos approximation, reflection for Re z < 1/2."""
    z = complex(z)
    if _is_nonpositive_int(z):
        raise PoleError(complex(round(z.real)), "Gamma")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma_complex(1.0 - z))
    w = z - 1.0
    base = w + _LANCZOS_G + 0.5
    return (
        math.sqrt(2.0 * math.pi)
        * base ** (w + 0.5)
        * cmath.exp(-base)
        * _lanczos_series(w)
    )


# ------------------------------- Zeta ---------------------------------------

@lru_cache(maxsize=None)
def _bernoulli(k: int) -> Fraction:
    """Exact Bernoulli number B_k (B_1 = -1/2 convention)."""
    if k == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(k):
        acc += Fraction(math.comb(k + 1, j)) * _bernoulli(j)
    return -acc / (k + 1)


def zeta(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin summation.

    50 terms and 20 Bernoulli corrections give ~1e-14 absolute error for
    |Im s| <= 50 and Re s >= -2.
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-14:
        raise PoleError(1.0, "zeta")
    n = 50
    acc = sum(k ** (-s) for k in range(1, n))
    acc += n ** (1.0 - s) / (s - 1.0)
    acc += 0.5 * n ** (-s)
    # correction terms: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * n^{-s-2k+1}
    rising = s
    for k in range(1, 21):
        b = float(_bernoulli(2 * k)) / math.factorial(2 * k)
        acc += b * rising * n ** (-s - 2 * k + 1)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return acc


def zeta_completed(s: complex) -> complex:
    """zeta*(s) = pi^{-s/2} Gamma(s/2) zeta(s); poles at s = 0 and s = 1."""
    s = complex(s)
    if abs(s) < 1e-14:
        raise PoleError(0.0, "zeta*")
    if abs(s - 1.0) < 1e-14:
        raise PoleError(1.0, "zeta*")
    return (
        cmath.exp(-0.5 * s * math.log(math.pi))
        * gamma_complex(0.5 * s)
        * zeta(s)
    )


# ----------------------------- K-Bessel -------------------------------------

# 16-node Gauss-Legendre rule on [-1, 1], applied per panel
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
BESSEL_ASYMPTOTIC_CROSSOVER = 30.0
# terms of the large-x asymptotic series
_ASYMPTOTIC_TERMS = 30
# entries per (x, node) or (row, grid point) table chunk: keeps the
# temporaries of a large batch in cache (the lattice sums use it too)
_ROW_ENTRIES = 1 << 16


def bessel_k(nu: complex, x: float) -> complex:
    """K-Bessel function of complex order nu at real x > 0."""
    if x <= 0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    return complex(bessel_k_batch(nu, [x])[0])


def _bessel_k_bucket(nu: complex, x: np.ndarray) -> np.ndarray:
    """Quadrature K_nu over a batch of x spanning at most one octave.

    The panels' nodes t and weights w are laid out once for the bucket, so
    K_nu(x) = sum exp(-x cosh t) cosh(nu t) w is one exp of an (x, node)
    table and one real matmul against [Re, Im] of cosh(nu t) w, taken in
    row chunks of at most `_ROW_ENTRIES` entries.
    """
    x_min, x_max = float(x.min()), float(x.max())
    a = abs(nu.real)
    t_max = 1.0
    target = 70.0
    while x_min * math.cosh(t_max) - a * t_max - x_min < target:
        t_max += 0.5
    # graded panels: fine near t=0 where the integrand of the largest x is
    # concentrated, doubling outward
    width = min(0.25, 1.5 / math.sqrt(x_max))
    edges = [0.0]
    while edges[-1] < t_max:
        edges.append(min(edges[-1] + width, t_max))
        width = min(2.0 * width, 0.5)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    t = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    w = np.cosh(nu * t) * (half[:, None] * _GL_WEIGHTS).ravel()
    w_parts = w.view(float).reshape(-1, 2)
    cosh_t = np.cosh(t)
    out = np.empty((x.size, 2))
    step = max(1, _ROW_ENTRIES // t.size)
    for i in range(0, x.size, step):
        out[i:i + step] = np.exp(-np.outer(x[i:i + step], cosh_t)) @ w_parts
    return out.view(complex).ravel()


def bessel_k_batch(nu: complex, x: np.ndarray) -> np.ndarray:
    """K_nu over an array of real x > 0, order fixed; vectorized quadrature.

    x >= 30 takes the asymptotic series sqrt(pi/2x) e^-x sum_k prod_j
    (4 nu^2 - (2j-1)^2) / (8 j x), its 30 terms one cumprod of a factor
    table.  Smaller x is grouped into octaves by one stable sort, and each
    octave is one Gauss-Legendre quadrature of
    K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt (`_bessel_k_bucket`),
    a few numpy calls however many points the octave holds, up to the row
    chunking of a large batch.
    """
    x = np.asarray(x, dtype=float)
    if x.size and x.min() <= 0:
        raise ValueError("bessel_k_batch requires x > 0")
    nu = complex(nu)
    flat = x.ravel()
    out = np.empty(flat.shape, dtype=complex)
    big = flat >= BESSEL_ASYMPTOTIC_CROSSOVER
    if big.any():
        xb = flat[big]
        k = np.arange(1, _ASYMPTOTIC_TERMS + 1)
        factors = np.ones((_ASYMPTOTIC_TERMS + 1, xb.size), dtype=complex)
        factors[1:] = ((4.0 * nu * nu - (2 * k - 1) ** 2)[:, None]
                       / (8.0 * k[:, None] * xb))
        # row 0 is the series' leading 1; the rows add in order of k
        acc = np.cumprod(factors, axis=0).sum(axis=0)
        out[big] = np.sqrt(np.pi / (2.0 * xb)) * np.exp(-xb) * acc
    small = np.flatnonzero(~big)
    if small.size:
        octave = np.floor(np.log2(flat[small])).astype(int)
        order = np.argsort(octave, kind="stable")
        cuts = np.flatnonzero(np.diff(octave[order])) + 1
        for sel in np.split(small[order], cuts):
            out[sel] = _bessel_k_bucket(nu, flat[sel])
    return out.reshape(x.shape)
