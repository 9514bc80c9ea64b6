"""Complex special functions: Gamma (Lanczos), Riemann zeta (Euler-Maclaurin),
completed zeta, and the K-Bessel function with complex order.  Every
failure an argument can cause is a ValueError: a pole, an overflow, or an
argument beyond zeta's checked range.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache, wraps

import numpy as np

__all__ = [
    "gamma_complex",
    "zeta",
    "zeta_completed",
    "bessel_k",
]


def _in_float_range(f):
    """f(z), or a ValueError naming f and z where f's complex arithmetic
    overflows: an OverflowError, a ZeroDivisionError (Python's report of an
    infinite phase) or a value that is not finite."""
    @wraps(f)
    def checked(z):
        try:
            value = f(z)
        except (OverflowError, ZeroDivisionError):
            value = math.nan
        if not cmath.isfinite(value):
            raise ValueError(f"{f.__name__} at {complex(z)} overflows the "
                             "float range")
        return value
    return checked


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


def _lanczos(z: complex) -> complex:
    """Gamma(z) for Re z >= 1/2."""
    w = z - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (w + i)
    base = w + _LANCZOS_G + 0.5
    # base ** (w + 0.5) alone overflows from about z = 142, where Gamma is
    # still representable, so the power and exp(-base) are taken as one exp
    power = (w + 0.5) * cmath.log(base) - base
    if math.isinf(power.imag):
        # cmath.exp raises a bare "math domain error" at an infinite phase
        raise OverflowError(f"Gamma at {z} has an infinite phase")
    return math.sqrt(2.0 * math.pi) * cmath.exp(power) * acc


@_in_float_range
def gamma_complex(z: complex) -> complex:
    """Gamma(z) by the Lanczos approximation, reflection for Re z < 1/2;
    a pole raises ValueError "Gamma has a pole at ...", an overflow (also of
    pi z in the reflection) ValueError "gamma_complex at ... overflows the
    float range"."""
    z = complex(z)
    if (abs(z.imag) < 1e-14 and z.real <= 0.5
            and abs(z.real - round(z.real)) < 1e-14):
        raise ValueError(f"Gamma has a pole at {complex(round(z.real))}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        pz = math.pi * z
        if math.isinf(pz.real):
            # cmath.sin raises a bare "math domain error" there
            raise OverflowError(f"pi z is infinite at z = {z}")
        return math.pi / (cmath.sin(pz) * _lanczos(1.0 - z))
    return _lanczos(z)


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


@_in_float_range
def zeta(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin summation: 50 terms and 20 Bernoulli
    corrections, for |Im s| <= 150 only (ValueError beyond), and for
    Re s < -1/2, where the sum fails, by reflection from zeta(1 - s).

    Against mpmath on that range, where |zeta(s)| > 0.1, the relative error
    is at most 5e-14 for Re s >= 1 and 4e-13 for Re s < 1; at Re s = 2 it
    is already 6e-5 at |Im s| = 300.  zeta(-2k) is exactly 0 for every
    k >= 1.  The pole raises ValueError "zeta has a pole at 1.0", and an
    overflow ValueError "zeta at ... overflows the float range", as
    Gamma(1 - s) does from Re s = -170.6 off the trivial zeros.
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-14:
        raise ValueError("zeta has a pole at 1.0")
    if abs(s.imag) > 150.0:
        raise ValueError(f"zeta at {s} is outside its checked range "
                         "|Im s| <= 150")
    if s.real < -0.5:
        # the sine is read at s/2 - k, k the nearest integer: 0 at s = -2k,
        # returned before Gamma(1 - s) can overflow
        k = round(0.5 * s.real)
        if s == 2 * k:
            return 0j
        return ((-1) ** k * 2.0 ** s * math.pi ** (s - 1.0) * _lanczos(1.0 - s)
                * cmath.sin(math.pi * (0.5 * s - k)) * zeta(1.0 - s))
    n = 50
    acc = (sum(k ** (-s) for k in range(1, n)) + n ** (1.0 - s) / (s - 1.0)
           + 0.5 * n ** (-s))
    # correction terms: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * n^{-s-2k+1}
    rising = s
    for k in range(1, 21):
        b = float(_bernoulli(2 * k)) / math.factorial(2 * k)
        acc += b * rising * n ** (-s - 2 * k + 1)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return acc


@_in_float_range
def zeta_completed(s: complex) -> complex:
    """zeta*(s) = pi^{-s/2} Gamma(s/2) zeta(s); poles at s = 0 and s = 1.

    For Re s < 0 it is read as zeta*(1 - s).  An overflow raises ValueError
    naming the function that overflows: zeta_completed(400) is about 1e273,
    but gamma_complex(200) overflows."""
    s = complex(s)
    for pole in (0.0, 1.0):
        if abs(s - pole) < 1e-14:
            raise ValueError(f"zeta* has a pole at {pole}")
    if s.real < 0:
        return zeta_completed(1 - s)
    return (cmath.exp(-0.5 * s * math.log(math.pi)) * gamma_complex(0.5 * s)
            * zeta(s))


# ----------------------------- K-Bessel -------------------------------------

# entries per (x, node) or (row, grid point) table chunk: keeps the
# temporaries of a large batch in cache (the lattice sums use it too)
_ROW_ENTRIES = 1 << 16


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 16-node Gauss-Legendre rule on [-1, 1], applied per panel, as
    read-only arrays.  Built on first use, so that a process which never
    evaluates K-Bessel does not import numpy.polynomial (about 1.5 MB of
    resident memory)."""
    rule = np.polynomial.legendre.leggauss(16)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def bessel_k(nu: complex, x: float) -> complex:
    """K-Bessel function of complex order nu at real x > 0."""
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
    nodes, weights = _gauss_legendre()
    t = (mid[:, None] + half[:, None] * nodes).ravel()
    w = np.cosh(nu * t) * (half[:, None] * weights).ravel()
    w_parts = w.view(float).reshape(-1, 2)
    cosh_t = np.cosh(t)
    out = np.empty((x.size, 2))
    step = max(1, _ROW_ENTRIES // t.size)
    for i in range(0, x.size, step):
        out[i:i + step] = np.exp(-np.outer(x[i:i + step], cosh_t)) @ w_parts
    return out.view(complex).ravel()


def bessel_k_batch(nu: complex, x: np.ndarray) -> np.ndarray:
    """K_nu over an array of real x > 0, order fixed; vectorized quadrature.

    The x are grouped into octaves by one stable sort, and each octave is
    one Gauss-Legendre quadrature of
    K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt (`_bessel_k_bucket`),
    a few numpy calls however many points the octave holds, up to the row
    chunking of a large batch.  Every x takes this one quadrature, which
    needs no fixed-order expansion in 1/x and so also holds at orders
    comparable to x.  A value that is not finite (cosh(nu t) overflows for
    |Re nu| beyond about 130) raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if x.size and x.min() <= 0:
        raise ValueError("bessel_k_batch requires x > 0")
    nu = complex(nu)
    flat = x.ravel()
    out = np.empty(flat.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if flat.size:
            octave = np.floor(np.log2(flat)).astype(int)
            order = np.argsort(octave, kind="stable")
            cuts = np.flatnonzero(np.diff(octave[order])) + 1
            for sel in np.split(order, cuts):
                out[sel] = _bessel_k_bucket(nu, flat[sel])
    if not np.isfinite(out).all():
        raise ValueError(f"the K-Bessel quadrature of order {nu} overflows "
                         "the float range")
    return out.reshape(x.shape)
