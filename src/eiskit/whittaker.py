"""Completed Whittaker functions for GL(2) and GL(3).

`whittaker_gl2` and `whittaker_gl3` evaluate the completed (Gamma-normalized)
Whittaker function through rapidly convergent K-Bessel representations, valid
for every parameter vector.  `jacquet_oracle` evaluates the defining unipotent
integral directly; it converges only in the cone Re(alpha_i - alpha_{i+1}) > 0
and serves as an independent cross-check of the fast evaluators.
"""

from __future__ import annotations

import cmath
import math
import numpy as np

from .specfun import bessel_k, bessel_k_batch, gamma_complex

__all__ = [
    "DomainError",
    "QuadratureError",
    "WHITTAKER_GL2_CONSTANT",
    "WHITTAKER_GL3_CONSTANT",
    "whittaker_gl2",
    "whittaker_gl3",
    "jacquet_oracle",
]


class DomainError(ValueError):
    """Parameters outside the region where the requested evaluation is defined."""


class QuadratureError(RuntimeError):
    """Quadrature failed to meet the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved estimate {achieved:.3e})")
        self.achieved = achieved


# Normalization constants tying the K-Bessel evaluators to the unipotent
# integral (jacquet_oracle).
#   n=2: for alpha = (nu, -nu) and s = 1/2 + nu the integral is
#        pi^{-s} Gamma(s) int (y / (y^2 + u^2))^s e(-u) du, and
#        int (y^2 + u^2)^{-s} e(-u) du = 2 pi^s y^{1/2-s} K_{s-1/2}(2 pi y) / Gamma(s)
#        (the identity `_jacquet_gl3` uses for its u2 integral), so
#        W = 2 sqrt(y) K_nu(2 pi y).
#   n=3: Bump's double Mellin transform (Automorphic Forms on GL(3,R),
#        LNM 1083), in this normalization with W = whittaker_gl3(alpha, y1, y2):
#          int int W y1^s1 y2^s2 dy1/y1 dy2/y2 = 1/4 pi^{-s1-s2-2}
#            prod_i Gamma((s1+1-a_i)/2) Gamma((s2+1+a_i)/2) / Gamma((s1+s2+2)/2);
#        the constant 8 is what makes that factor exactly 1/4 (checked by
#        trapezoid quadrature in log y, TestGL3MellinTransform)
WHITTAKER_GL2_CONSTANT = 2.0
WHITTAKER_GL3_CONSTANT = 8.0


def whittaker_gl2(nu: complex, y: float) -> complex:
    """Completed GL(2) Whittaker value: 2 sqrt(y) K_nu(2 pi y)."""
    if y <= 0:
        raise DomainError(f"need y > 0, got {y}")
    return WHITTAKER_GL2_CONSTANT * math.sqrt(y) * bessel_k(nu, 2.0 * math.pi * y)


def _vt_integrand(nu: complex, a2: complex, y1: float, y2: float,
                  t: np.ndarray) -> np.ndarray:
    x = np.exp(t)
    root = np.sqrt(1.0 + x * x)
    k = bessel_k_batch(nu, np.concatenate((2.0 * math.pi * y1 * root / x,
                                           2.0 * math.pi * y2 * root)))
    return k[:t.size] * k[t.size:] * np.exp(-1.5 * a2 * t)


def whittaker_gl3(alpha, y1: float, y2: float) -> complex:
    """Completed GL(3) Whittaker value via the double-K-Bessel integral.

    W(y1, y2) = 8 y1 y2 (y1/y2)^{a2/2}
                * int_0^inf K_nu(2 pi y1 sqrt(1+x^2)/x)
                            K_nu(2 pi y2 sqrt(1+x^2)) x^{-3 a2/2} dx/x
    with nu = (a1 - a3)/2; absolutely convergent for every alpha with
    sum(alpha) = 0, and invariant under permutations of alpha.  The
    trapezoid rule in t = log x starts at h = 1/4 and halves h until the
    sum changes by at most 1e-10 relative; each level evaluates both Bessel
    factors at all of its nodes in one `bessel_k_batch` call.
    """
    a1, a2, a3 = (complex(v) for v in alpha)
    if abs(a1 + a2 + a3) > 1e-9:
        raise DomainError("alpha must sum to zero")
    if y1 <= 0 or y2 <= 0:
        raise DomainError("y coordinates must be positive")
    nu = 0.5 * (a1 - a3)
    # substitution x = e^t: double-exponential decay at both ends, so the
    # trapezoid rule converges geometrically under step halving.  The
    # integrand peaks near e^{-2 pi (y1 + y2)} or below (sqrt(1+x^2) (y1/x
    # + y2) >= y1 + y2), so the cutoffs sit e^{-50} below that, not below 1:
    # truncated ends that are not negligible leave an h^2 error
    growth = 1.5 * abs(a2.real) + abs(nu.real)
    depth = 50.0 + 2.0 * math.pi * (y1 + y2)
    t_hi = 1.0
    while 2.0 * math.pi * y2 * math.exp(t_hi) - growth * t_hi < depth:
        t_hi += 0.5
    t_lo = -1.0
    while 2.0 * math.pi * y1 * math.exp(-t_lo) - growth * (-t_lo) < depth:
        t_lo -= 0.5
    h = 0.25
    prev = None
    for _ in range(6):
        t = np.arange(t_lo, t_hi + 0.5 * h, h)
        val = h * _vt_integrand(nu, a2, y1, y2, t).sum()
        if prev is not None:
            diff = abs(val - prev) / max(abs(val), 1e-300)
            if diff <= 1e-10:
                break
        prev = val
        h *= 0.5
    else:
        raise QuadratureError("whittaker_gl3 step halving stalled", diff)
    scale = (WHITTAKER_GL3_CONSTANT * y1 * y2
             * cmath.exp(0.5 * a2 * (math.log(y1) - math.log(y2))))
    return scale * val


# ------------------------- unipotent-integral oracle -------------------------


def _gamma_prefactor(alpha) -> complex:
    out = 1.0 + 0.0j
    n = len(alpha)
    for j in range(n):
        for k in range(j + 1, n):
            z = 0.5 * (1.0 + complex(alpha[j]) - complex(alpha[k]))
            out *= gamma_complex(z) * cmath.exp(-z * math.log(math.pi))
    return out


def _oscillatory_tail(h_func, L: float) -> complex:
    """Asymptotic tail sum_{|u|>L} h(u) e^{-2 pi i u} du from endpoint jets.

    Integration by parts twice:
      int_L^inf  h e^{-2 pi i u} du ~ e^{-2 pi i L} [h/(2 pi i) + h'/(2 pi i)^2
                                                     + h''/(2 pi i)^3]
      int_-inf^-L              ~ -e^{2 pi i L} [h/(2 pi i) - h'/(2 pi i)^2
                                                     + h''/(2 pi i)^3]
    with derivatives at u = +-L by central differences of step 0.25.
    """
    delta = 0.25
    stencil = np.array([-L - delta, -L, -L + delta, L - delta, L, L + delta])
    f = h_func(stencil)
    two_pi_i = 2.0j * math.pi
    hr, dhr = f[4], (f[5] - f[3]) / (2 * delta)
    d2hr = (f[5] - 2 * f[4] + f[3]) / (delta * delta)
    hl, dhl = f[1], (f[2] - f[0]) / (2 * delta)
    d2hl = (f[2] - 2 * f[1] + f[0]) / (delta * delta)
    right = cmath.exp(-two_pi_i * L) * (
        hr / two_pi_i + dhr / two_pi_i**2 + d2hr / two_pi_i**3)
    left = -cmath.exp(two_pi_i * L) * (
        hl / two_pi_i + dhl / two_pi_i**2 + d2hl / two_pi_i**3)
    return right + left


def _unit_panels(L: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.arange(-L, L)
    pts = np.concatenate([(e + 0.5) + 0.5 * nodes for e in edges])
    wts = np.tile(0.5 * weights, edges.size)
    return pts, wts


def _jacquet_gl2(alpha, y: float, L: float, order: int) -> complex:
    s = 0.5 * (1.0 + complex(alpha[0]) - complex(alpha[1]))

    def h_func(u):
        u = np.asarray(u, dtype=float)
        return np.exp(s * (math.log(y) - np.log(y * y + u * u)))

    pts, wts = _unit_panels(L, order)
    val = np.sum(h_func(pts) * np.exp(-2j * math.pi * pts) * wts)
    val += _oscillatory_tail(h_func, L)
    return _gamma_prefactor(alpha) * val


def _bessel_k_interp(nu: complex, x: np.ndarray) -> np.ndarray:
    """K_nu over a large batch via a dense log-grid table.

    Tabulates K_nu once on a logarithmic grid and evaluates by 4-point
    Lagrange interpolation in log x; with 20k points per decade the
    interpolation error is below 1e-10 relative, while the Bessel cost drops
    from one evaluation per point to one per table node.
    """
    llo, lhi = math.log(x.min()) - 1e-9, math.log(x.max()) + 1e-9
    count = max(int((lhi - llo) / math.log(10) * 20000), 8)
    grid = np.linspace(llo, lhi, count)
    table = bessel_k_batch(nu, np.exp(grid))
    h = grid[1] - grid[0]
    t = (np.log(x) - llo) / h
    i = np.clip(t.astype(int), 1, count - 3)
    f = t - i
    # cubic Lagrange on the 4 nodes around each target
    w0 = -f * (f - 1.0) * (f - 2.0) / 6.0
    w1 = (f + 1.0) * (f - 1.0) * (f - 2.0) / 2.0
    w2 = -(f + 1.0) * f * (f - 2.0) / 2.0
    w3 = (f + 1.0) * f * (f - 1.0) / 6.0
    return (w0 * table[i - 1] + w1 * table[i] + w2 * table[i + 1]
            + w3 * table[i + 2])


def _jacquet_gl3(alpha, y1: float, y2: float, L: float, order: int,
                 ratio: float) -> complex:
    # The u2 integral is exact: for the quadratic (u2-B)^2 + A^2 raised to -s,
    #   int e^{-2 pi i u2} ((u2-B)^2 + A^2)^{-s} du2
    #     = e^{-2 pi i B} 2 pi^s A^{1/2-s} K_{s-1/2}(2 pi A) / Gamma(s),
    # leaving a 2D integral over (u1, u3) that decays exponentially in u3 and
    # oscillates only in u1 (handled by endpoint tail jets).
    a1 = complex(alpha[0]) + 1.0
    a2 = complex(alpha[1])
    s = 0.5 * (a1 - a2)
    mu = s - 0.5
    r3_exp = 0.25 * (3.0 * (complex(alpha[2]) - 1.0) + 1.0)  # (3*a3 + 1)/4
    nodes, weights = np.polynomial.legendre.leggauss(order)

    def h_func(u1_arr):
        # the u3 integrand is invariant under (u1, u3) -> (-u1, -u3), so h is
        # even in u1; evaluate at |u1| and batch every Bessel argument into a
        # single call
        u1_arr = np.abs(np.asarray(u1_arr, dtype=float))
        uniq, inverse = np.unique(np.round(u1_arr, 12), return_inverse=True)
        seg_abes, seg_w, seg_phase, seg_logr = [], [], [], []
        starts, pos = [], 0
        for x1 in uniq:
            sc = x1 * x1 + y2 * y2
            u3_max = (8.0 * sc + 10.0) / y2
            bnds = [0.0]
            b = min(0.25, 0.25 * y1 * y2)
            while b < u3_max:
                bnds.append(b)
                b *= ratio
            bnds.append(u3_max)
            t3, w3 = [], []
            for lo, hi in zip(bnds[:-1], bnds[1:]):
                mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
                t3.append(mid + half * nodes)
                w3.append(half * weights)
            u3 = np.concatenate(t3)
            w3 = np.concatenate(w3)
            u3 = np.concatenate([u3, -u3])
            w3 = np.concatenate([w3, w3])
            r3sq = (y1 * y2) ** 2 + (y1 * x1) ** 2 + u3 * u3
            seg_abes.append(y2 * np.sqrt(r3sq) / sc)
            seg_phase.append(x1 * u3 / sc)
            seg_logr.append(np.log(r3sq))
            seg_w.append(w3 / math.sqrt(sc))
            starts.append(pos)
            pos += u3.size
        kvals = _bessel_k_interp(mu, 2.0 * math.pi * np.concatenate(seg_abes))
        vals = np.exp(-2j * math.pi * np.concatenate(seg_phase)
                      + r3_exp * np.concatenate(seg_logr))
        vals = vals * kvals * np.concatenate(seg_w)
        return np.add.reduceat(vals, starts)[inverse]

    pts, wts = _unit_panels(L, order)
    val = np.sum(h_func(pts) * np.exp(-2j * math.pi * pts) * wts)
    val += _oscillatory_tail(h_func, L)
    pref = (2.0 * cmath.exp(s * math.log(math.pi)) / gamma_complex(s)
            * cmath.exp((2.0 * a1 - 2.0 * s) * math.log(y1))
            * cmath.exp((a1 + 0.5 - s) * math.log(y2)))
    return _gamma_prefactor(alpha) * pref * val


def jacquet_oracle(alpha, y, tol: float = 1e-6) -> complex:
    """Direct numerical evaluation of the defining unipotent integral.

    Gamma prefactor prod_{j<k} Gamma((1+a_j-a_k)/2) / pi^{(1+a_j-a_k)/2}
    times the integral over the unipotent group against the standard
    character, with the long Weyl element.  Requires the convergence cone
    Re(alpha_i - alpha_{i+1}) > 0; two refinement passes supply an error
    estimate, and a miss of `tol` raises QuadratureError.
    """
    alpha = tuple(complex(v) for v in alpha)
    n = len(alpha)
    if n not in (2, 3):
        raise DomainError(f"supported ranks are 2 and 3, got n={n}")
    for i in range(n - 1):
        if (alpha[i] - alpha[i + 1]).real <= 0:
            raise DomainError(
                f"outside convergence cone: Re(alpha_{i+1}-alpha_{i+2}) <= 0")
    ys = [float(v) for v in (y if hasattr(y, "__len__") else [y])]
    if len(ys) != n - 1 or any(v <= 0 for v in ys):
        raise DomainError("need n-1 positive y coordinates")
    if n == 2:
        coarse = _jacquet_gl2(alpha, ys[0], L=150.0, order=10)
        fine = _jacquet_gl2(alpha, ys[0], L=220.0, order=12)
    else:
        coarse = _jacquet_gl3(alpha, ys[0], ys[1], L=42.0, order=14, ratio=1.1)
        fine = _jacquet_gl3(alpha, ys[0], ys[1], L=60.0, order=14, ratio=1.08)
    achieved = abs(fine - coarse) / max(abs(fine), 1e-300)
    if achieved > tol:
        raise QuadratureError("jacquet_oracle refinement disagreement", achieved)
    return fine
