"""Truncated Borel Eisenstein series for GL(2) and GL(3).

Lattice sums over coset representatives, Fourier-coefficient extraction by
periodic quadrature over the unipotent coordinates, assembly of the
Fourier-Whittaker coefficient from its factored form, and functional-equation
checking (symbolic bookkeeping closure and numeric comparison).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .core import GroupElement, Partition, SpectralPoint, langlands_parameter
from .forms import FormSet, adjoint_l_at_one
from .hecke import eis_hecke_eigenvalue
from .whittaker import QuadratureError, whittaker_gl2, whittaker_gl3

__all__ = [
    "FWRequest",
    "FEReport",
    "ConvergenceError",
    "canonical_coset_form",
    "eval_eisenstein",
    "closed_form_fourier_gl2",
    "scattering_phi",
    "extract_fourier_coefficient",
    "fw_formula",
    "check_functional_equation",
]


class ConvergenceError(ValueError):
    """Spectral point outside the absolute-convergence regime."""


@dataclass(frozen=True)
class FWRequest:
    """A Fourier-Whittaker coefficient request for M = (m, 1, ..., 1).

    m = 0 requests the constant term (quadrature extraction only; the
    factored coefficient formula needs m >= 1).
    """

    partition: Partition
    forms: FormSet
    M: tuple[int, ...]
    s: SpectralPoint
    g: GroupElement

    def __post_init__(self):
        if len(self.M) != self.partition.n - 1 or self.M[0] < 0:
            raise ValueError("M must be an (n-1)-tuple with m >= 0")
        if any(v != 1 for v in self.M[1:]):
            raise ValueError("only M = (m, 1, ..., 1) is supported")
        self.forms.check_against(self.partition)


@dataclass(frozen=True)
class FEReport:
    """Outcome of a functional-equation comparison."""

    mode: str
    sigma: tuple[int, ...]
    passed: bool
    left: object = None
    right: object = None
    abs_residual: float = 0.0
    rel_residual: float = 0.0
    metadata: dict = field(default_factory=dict)


# ------------------------------- cosets --------------------------------------


def _sign_canonical(v: tuple[int, ...]) -> tuple[int, ...]:
    for c in v:
        if c != 0:
            return v if c > 0 else tuple(-x for x in v)
    return v


def canonical_coset_form(matrix: np.ndarray) -> tuple:
    """Canonical key identifying the lower-parabolic coset of `matrix`."""
    m = np.asarray(matrix, dtype=np.int64)
    if m.shape == (2, 2):
        return _sign_canonical((int(m[1, 0]), int(m[1, 1])))
    v = _sign_canonical(tuple(int(x) for x in m[2]))
    a = _sign_canonical(tuple(int(x) for x in np.cross(m[1], m[2])))
    return (v, a)


def _coprime_pairs(height: int, chunk: int = 200):
    """Bottom rows of the GL(2) coset representatives up to `height`.

    Coprime (c, d) with |c|, |d| <= `height`, one per +- pair: (0, 1) and
    every c > 0.  Yields (c, d) int64 array pairs in c-chunks.
    """
    yield (np.array([0], np.int64), np.array([1], np.int64))
    d_all = np.arange(-height, height + 1, dtype=np.int64)
    for lo in range(1, height + 1, chunk):
        cs = np.arange(lo, min(lo + chunk, height + 1), dtype=np.int64)
        cg, dg = np.meshgrid(cs, d_all, indexing="ij")
        keep = np.gcd(cg, np.abs(dg)) == 1
        yield (cg[keep], dg[keep])


# ----------------------------- series evaluation -----------------------------


def _check_convergence(n: int, s: SpectralPoint) -> None:
    vals = s.values
    if n == 2:
        if vals[0].real <= 0.5:
            raise ConvergenceError(
                f"need Re s1 > 1/2 for absolute convergence, got {vals[0]}")
    else:
        for i in range(len(vals) - 1):
            if (vals[i] - vals[i + 1]).real <= 1.0:
                raise ConvergenceError(
                    "need Re(s_i - s_{i+1}) > 1 for absolute convergence")


def _borel_exponents(n: int, s: SpectralPoint) -> tuple[complex, ...]:
    """Exponents (c1, ..., c_{n-1}) with |g|^{s+rho} = prod Y_i^{c_i}."""
    if n == 2:
        a = (s.values[0] + 0.5,)
        return (a[0],)
    a = tuple(s.values[i] + (1 - i) for i in range(3))  # s + (1, 0, -1)
    return (a[0] + a[1], a[0])


def _canonical_primitive(x: np.ndarray) -> np.ndarray:
    """Mask of the rows of `x` that are primitive with a positive lead entry."""
    lead = x[np.arange(len(x)), (x != 0).argmax(axis=1)]
    return (np.gcd.reduce(x, axis=1) == 1) & (lead > 0)


# (v, grid point) pairs per block: bounds the enumerator's temporaries
_COSET_BLOCK = 1 << 16


def _coset_rows_gl3(height: int, height_a: int | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Plucker rows (v, a) of the GL(3) coset representatives.

    Every sign-canonical primitive v with |v| <= `height` (sup-norm), paired
    with every sign-canonical primitive a with a . v = 0 and |a| <= `height_a`
    (default `height`).  The lattice sum only needs these two rows of each
    representative, not its unimodular lift.  For a block of v sharing the
    coordinate k where |v| is largest, a . v = 0 is solved for a_k over the
    (2 height_a + 1)^2 grid of the other two coordinates of a.
    """
    if height_a is None:
        height_a = height
    span = np.arange(-height, height + 1, dtype=np.int64)
    v_all = np.stack(np.meshgrid(span, span, span, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    v_all = v_all[_canonical_primitive(v_all)]
    pivot = np.abs(v_all).argmax(axis=1)
    span = np.arange(-height_a, height_a + 1, dtype=np.int64)
    p, q = (x.ravel() for x in np.meshgrid(span, span, indexing="ij"))
    block = max(1, _COSET_BLOCK // p.size)
    vs, avs = [np.empty((0, 3), np.int64)], [np.empty((0, 3), np.int64)]
    for k in range(3):
        i, j = (c for c in range(3) if c != k)
        v_k = v_all[pivot == k]
        for lo in range(0, len(v_k), block):
            v = v_k[lo:lo + block]
            a_k, rem = np.divmod(-(v[:, i, None] * p + v[:, j, None] * q),
                                 v[:, k, None])
            rows, cols = np.nonzero((rem == 0) & (np.abs(a_k) <= height_a))
            a = np.empty((rows.size, 3), np.int64)
            a[:, i], a[:, j], a[:, k] = p[cols], q[cols], a_k[rows, cols]
            keep = _canonical_primitive(a)
            vs.append(v[rows[keep]])
            avs.append(a[keep])
    return np.concatenate(vs), np.concatenate(avs)


def _smooth_window(x: np.ndarray, lower: float = 0.5) -> np.ndarray:
    """C^infinity cutoff: 1 on x <= lower, 0 on x >= 1, bump-glued between.

    A wide transition zone (small `lower`) averages the arithmetic
    fluctuations of the boundary shells, which is what drives the decay of
    the coefficient-extraction bias.
    """
    out = np.zeros(x.shape)
    out[x <= lower] = 1.0
    mid = (x > lower) & (x < 1.0)
    t = (x[mid] - lower) / (1.0 - lower)
    fa = np.exp(-1.0 / (1.0 - t))
    fb = np.exp(-1.0 / t)
    out[mid] = fa / (fa + fb)
    return out


# full-weight fraction of the smooth truncation window: a wide transition
# zone averages many boundary shells, which is what makes the extraction
# bias decay (measured on the GL(2) case against the closed forms)
WINDOW_LOWER = 0.15

_WEIGHT_NODES = 2049
_weight_table_cache: dict[tuple, np.ndarray] = {}


def _combined_weight_table(top: float, cuts: np.ndarray,
                           cut_weights: np.ndarray) -> np.ndarray:
    """2-D table of sum_k cw_k window(r_v/c_k) window(r_a/c_k).

    Sampled on a uniform [0, top]^2 grid for bilinear lookup; one table per
    (top, cuts) is cached, since building it costs more than one chunk.
    """
    key = (float(top), cuts.tobytes(), cut_weights.tobytes())
    table = _weight_table_cache.get(key)
    if table is None:
        xs = np.linspace(0.0, top, _WEIGHT_NODES)
        table = np.zeros((_WEIGHT_NODES, _WEIGHT_NODES))
        for cw, c in zip(cut_weights, cuts):
            col = _smooth_window(xs / c, WINDOW_LOWER)
            table += cw * np.outer(col, col)
        _weight_table_cache[key] = table
        if len(_weight_table_cache) > 8:
            _weight_table_cache.pop(next(iter(_weight_table_cache)))
    return table


def _bilinear(table: np.ndarray, top: float, xv: np.ndarray,
              ya: np.ndarray) -> np.ndarray:
    scale = (_WEIGHT_NODES - 1) / top
    fx = np.clip(xv * scale, 0.0, _WEIGHT_NODES - 1.000001)
    fy = np.clip(ya * scale, 0.0, _WEIGHT_NODES - 1.000001)
    ix = fx.astype(np.intp)
    iy = fy.astype(np.intp)
    fx -= ix
    fy -= iy
    flat = table.ravel()
    base = ix * _WEIGHT_NODES + iy
    return ((flat[base] * (1 - fx) + flat[base + _WEIGHT_NODES] * fx)
            * (1 - fy)
            + (flat[base + 1] * (1 - fx)
               + flat[base + _WEIGHT_NODES + 1] * fx) * fy)


def _gl3_terms(vs: np.ndarray, avs: np.ndarray, w_mats: np.ndarray,
               c1: complex, c2: complex, cuts: np.ndarray | None = None,
               cut_weights: np.ndarray | None = None):
    """Terms Y1(gamma W)^c1 Y2(gamma W)^c2 per coset and grid matrix W.

    Yields (lo, terms) for consecutive chunks of cosets, `terms` of shape
    (chunk, grid) holding the cosets vs[lo:lo + chunk]; chunking bounds the
    temporaries.  Uses the row identities for M = gamma W with
    gamma = [[r1], [r2], [v]]:
      |row3(M)|^2 = |v W|^2,   row2 x row3 = (r2 x v) cof(W) = a cof(W),
      det M = det W,
    so only the Plucker data (v, a) enters.  Grid tensors are precomputed and
    the per-coset work is two real matrix products.

    With `cuts` set, each term carries the convex combination over the
    cutoff scales c_k, with weights `cut_weights`, of the smooth weights
    window(|v W| / c_k) * window(|a cof(W)| / c_k).  Both arguments are
    continuous coset invariants of gamma W, so the weighted full-lattice sum
    is an exactly 1-periodic C^infinity function of the unipotent coordinates
    of W -- the property the coefficient quadrature needs.  The caller must
    enumerate (vs, avs) widely enough to cover the window support for every
    grid matrix.  All scales share the power evaluations (the dominant cost).
    """
    grid = w_mats.shape[0]
    w_flat = w_mats.transpose(1, 0, 2).reshape(3, grid * 3)
    cof = np.empty_like(w_mats)
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(w_mats, i, axis=1), j, axis=2)
            cof[:, i, j] = ((-1) ** (i + j)) * (
                minor[:, 0, 0] * minor[:, 1, 1]
                - minor[:, 0, 1] * minor[:, 1, 0])
    cof_flat = cof.transpose(1, 0, 2).reshape(3, grid * 3)
    dets = np.abs(np.linalg.det(w_mats))
    log_det = np.log(dets)
    real_exp = (abs(complex(c1).imag) < 1e-14
                and abs(complex(c2).imag) < 1e-14)
    e_cr = 0.5 * c1 - c2
    e_r3 = -c1 + 0.5 * c2
    if real_exp:
        e_cr, e_r3, c2r = e_cr.real, e_r3.real, complex(c2).real
    else:
        c2r = c2

    if cuts is not None:
        top = cuts.max()
        table = _combined_weight_table(top, cuts, cut_weights)

    for lo in range(0, len(vs), 256):
        v, a = vs[lo:lo + 256].astype(float), avs[lo:lo + 256].astype(float)
        r3 = (v @ w_flat).reshape(len(v), grid, 3)
        cr = (a @ cof_flat).reshape(len(v), grid, 3)
        r3sq = np.einsum("cgk,cgk->cg", r3, r3)
        crsq = np.einsum("cgk,cgk->cg", cr, cr)
        if cuts is None:
            logp = e_cr * np.log(crsq) + e_r3 * np.log(r3sq) + c2r * log_det
            yield lo, np.exp(logp)
            continue
        rad_v = np.sqrt(r3sq)
        rad_a = np.sqrt(crsq)
        mask = (rad_v < top) & (rad_a < top)
        logp = (e_cr * np.log(crsq[mask]) + e_r3 * np.log(r3sq[mask])
                + c2r * np.broadcast_to(log_det, mask.shape)[mask])
        powers = np.exp(logp)
        weight = _bilinear(table, top, rad_v[mask], rad_a[mask])
        out = np.zeros((len(v), grid), dtype=float if real_exp else complex)
        out[mask] = weight * powers
        yield lo, out


def eval_eisenstein(n: int, g: GroupElement, s: SpectralPoint, height: int
                    ) -> tuple[complex, float]:
    """Truncated lattice sum of the Borel series, with a heuristic tail bound.

    Returns (partial sum over cosets of height <= `height`, tail estimate).
    For n = 3 the tail estimate is the outer-shell mass |S(H) - S(H // 2)|,
    the part of the sum from heights above H // 2; it is a heuristic, not a
    proven bound.
    """
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    _check_convergence(n, s)
    if n == 2:
        return _eval_gl2(g, s, height)
    vs, avs = _coset_rows_gl3(height)
    c1, c2 = _borel_exponents(3, s)
    w = g.entries[np.newaxis, :, :].astype(float)
    heights = np.maximum(np.abs(vs).max(axis=1), np.abs(avs).max(axis=1))
    inner = heights <= max(1, height // 2)
    total = inner_sum = 0.0
    for lo, terms in _gl3_terms(vs, avs, w, c1, c2):
        total += terms.sum()
        inner_sum += terms[inner[lo:lo + len(terms)]].sum()
    return complex(total), float(abs(total - inner_sum))


def _eval_gl2(g: GroupElement, s: SpectralPoint, height: int
              ) -> tuple[complex, float]:
    from .core import iwasawa

    coords, _, _ = iwasawa(g)
    y = float(coords.y[0])
    x = float(coords.x[0, 1])
    z = complex(x, y)
    sigma = s.values[0] + 0.5
    total = 0j
    for c, d in _coprime_pairs(height):
        denom = np.abs(c * z + d) ** 2
        total += complex(np.exp(sigma * (math.log(y) - np.log(denom))).sum())
    sr = sigma.real
    tail = (2.5 * y**sr * min(1.0, y) ** (-2 * sr)
            * height ** (2 - 2 * sr) / max(2 * sr - 2, 1e-9))
    return total, float(tail)


# --------------------------- GL(2) closed forms -------------------------------


def scattering_phi(s: complex) -> complex:
    """phi(s) = zeta*(2s-1)/zeta*(2s)."""
    from .specfun import zeta_completed

    return zeta_completed(2 * s - 1) / zeta_completed(2 * s)


def closed_form_fourier_gl2(m: int, s1: complex, y: float) -> complex:
    """Fourier coefficient (as a function of y) of the GL(2) Borel series.

    m = 0:   y^{s1+1/2} + phi(s1+1/2) y^{1/2-s1}
    m != 0:  2 sigma_{2 s1}(m) |m|^{-s1} sqrt(y) K_{s1}(2 pi |m| y) / zeta*(2 s1 + 1)

    The factor 2 for m != 0 makes this the exact e(m x)-coefficient of the
    lattice sum over the coprime bottom rows (c, d), one per +- pair, as
    verified by quadrature extraction (the one-sided expansion convention
    omits it).
    """
    from .hecke import divisor_sigma
    from .specfun import bessel_k, zeta_completed

    if y <= 0:
        raise ValueError("need y > 0")
    if m == 0:
        return (cmath.exp((s1 + 0.5) * math.log(y))
                + scattering_phi(s1 + 0.5) * cmath.exp((0.5 - s1) * math.log(y)))
    am = abs(m)
    return (2 * divisor_sigma(2 * s1, am) * am ** (-s1) * math.sqrt(y)
            * bessel_k(s1, 2 * math.pi * am * y) / zeta_completed(2 * s1 + 1))


# ------------------------- coefficient extraction ----------------------------


def extract_fourier_coefficient(n: int, request: FWRequest, height: int,
                                quad_nodes: int, diag_tol: float = 0.25
                                ) -> complex:
    """M-th Fourier coefficient of the truncated series.

    Periodic trapezoid quadrature of the truncated lattice sum at u g against
    exp(-2 pi i sum m_i u_{i,i+1}) over the unipotent coordinates, with
    `quad_nodes` nodes per axis.  When `quad_nodes` is even, the embedded
    half-grid provides a convergence diagnostic; a relative disagreement
    beyond `diag_tol` raises QuadratureError.
    """
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    _check_convergence(n, request.s)
    if n == 2:
        # the height cutoff biases each coefficient by ~ C * H^(1-2 Re s1);
        # a two-height extrapolation with that exact exponent cancels it
        value, half = _extract_gl2(request, height, quad_nodes)
        if height >= 8:
            v_lo, _ = _extract_gl2(request, height // 2, quad_nodes)
            q = 2.0 * request.s.values[0].real - 1.0
            w = 2.0 ** q
            value = (w * value - v_lo) / (w - 1.0)
            half = (w * half - v_lo) / (w - 1.0)
    elif n == 3:
        value, half = _extract_gl3(request, height, quad_nodes)
    else:
        raise ValueError("only n = 2 and n = 3 are supported")
    if half is not None:
        disagreement = abs(value - half) / max(abs(value), 1e-300)
        if disagreement > diag_tol:
            raise QuadratureError(
                "node-doubling disagreement in coefficient extraction",
                disagreement)
    return value


def _extract_gl2(request: FWRequest, height: int, quad_nodes: int
                 ) -> tuple[complex, complex | None]:
    from .core import iwasawa

    m = request.M[0]
    coords, _, _ = iwasawa(request.g)
    y = float(coords.y[0])
    x0 = float(coords.x[0, 1])
    sigma = request.s.values[0] + 0.5
    # window centered on the base point: the truncated series is symmetric
    # under u -> -u there, so the symmetric grid cancels odd truncation noise
    u = ((np.arange(quad_nodes) - quad_nodes // 2) / quad_nodes)[None, :]
    z = (x0 + u) + 1j * y
    series = np.zeros(quad_nodes, dtype=complex)
    for c, d in _coprime_pairs(height):
        denom = np.abs(c[:, None] * z + d[:, None]) ** 2
        series += np.exp(sigma * (math.log(y) - np.log(denom))).sum(axis=0)
    phase = np.exp(-2j * math.pi * m * u[0])
    value = complex((series * phase).mean())
    half = None
    if quad_nodes % 2 == 0:
        half = complex((series[::2] * phase[::2]).mean())
    return value, half


def _unipotent_grid(nodes: int, g: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    u = (np.arange(nodes) - nodes // 2) / nodes
    u12, u13, u23 = np.meshgrid(u, u, u, indexing="ij")
    grid = nodes**3
    w = np.tile(np.eye(3), (grid, 1, 1))
    w[:, 0, 1] = u12.ravel()
    w[:, 0, 2] = u13.ravel()
    w[:, 1, 2] = u23.ravel()
    w = w @ g[np.newaxis, :, :]
    return w, u12.ravel(), u23.ravel()


def _extract_gl3(request: FWRequest, height: int, quad_nodes: int
                 ) -> tuple[complex, complex | None]:
    m1 = request.M[0]
    sp = request.s
    if request.partition.parts != (1, 1, 1):
        raise ValueError("series extraction is implemented for the Borel case")
    c1, c2 = _borel_exponents(3, sp)
    w, u12, u23 = _unipotent_grid(quad_nodes, request.g.entries.astype(float))
    # smooth-window truncation: weight each coset by window(|vW|/H) *
    # window(|a cof(W)|/H), making the quadrature integrand an exactly
    # periodic C^infinity function of u (aliasing decays faster than any
    # power of the node count).  Enumerate wide enough to cover the window
    # support at every grid point: |v| <= H / sigma_min(W) and
    # |a| <= H * sigma_max(W) / det(W).
    svals = np.linalg.svd(w, compute_uv=False)
    dets = np.abs(np.linalg.det(w))
    margin_v = 1.0 / svals[:, 2].min()
    margin_a = (svals[:, 0] / dets).max()
    hv = int(math.ceil(height * margin_v))
    ha = int(math.ceil(height * margin_a))
    vs, avs = _coset_rows_gl3(hv, ha)
    # average the smooth truncation over a band of cutoff scales: the scale
    # average of smooth windows is itself a smooth window, and it cancels the
    # arithmetic fluctuation of the boundary shells (the dominant truncation
    # error) at no extra power-evaluation cost.  Hann weighting of the scales
    # suppresses the band-edge contribution of the oscillatory part.
    cuts = np.linspace(0.3 * height, float(height), 24)
    cut_weights = np.hanning(len(cuts) + 2)[1:-1]
    cut_weights /= cut_weights.sum()
    series = sum(terms.sum(axis=0) for _, terms in
                 _gl3_terms(vs, avs, w, c1, c2, cuts, cut_weights))
    phase = np.exp(-2j * math.pi * (m1 * u12 + u23))
    value = complex((series * phase).mean())
    half = None
    if quad_nodes % 2 == 0:
        n = quad_nodes
        keep = ((np.arange(n**3) // (n * n) % 2 == 0)
                & (np.arange(n**3) // n % n % 2 == 0)
                & (np.arange(n**3) % n % 2 == 0))
        half = complex((series[keep] * phase[keep]).mean())
    return value, half


# --------------------------- coefficient assembly ----------------------------

def fw_formula(request: FWRequest, truncation: int = 4000) -> complex:
    """M-th Fourier coefficient of the completed series E*, factored.

    prod_{n_k >= 2} L*(1, Ad phi_k)^{-1/2} x lambda_{P,Phi}(M, s)
        x prod_k m_k^{-k(n-k)/2} x W_{alpha_{P,Phi}(s)}(M g).

    E* is the lattice sum times the completion factor
    prod_{j<l} L*(1 + s_j - s_l, phi_j x phi_l), so the coefficient of the
    raw lattice sum (what extract_fourier_coefficient measures) is
    fw_formula(request) / forms.completion_factor(...).value.
    """
    from .core import iwasawa

    part = request.partition
    n = part.n
    if n not in (2, 3):
        raise ValueError("Whittaker factor implemented for n = 2, 3 only")
    m = request.M[0]
    if m < 1:
        raise ValueError("the factored coefficient needs m >= 1")
    lam = eis_hecke_eigenvalue(part, request.forms, request.s, m)
    power = m ** (-0.5 * 1 * (n - 1))  # k = 1 entry of M
    adj = 1.0 + 0.0j
    for nk, form in zip(part.parts, request.forms.forms):
        if nk >= 2:
            adj *= adjoint_l_at_one(form, truncation).value ** (-0.5)
    alpha = langlands_parameter(part, request.forms, request.s)
    m_diag = np.diag([float(m)] + [1.0] * (n - 1))
    coords, _, _ = iwasawa(GroupElement(m_diag @ request.g.entries))
    if n == 2:
        wval = whittaker_gl2(alpha.entries[0], coords.y[0])
    else:
        wval = whittaker_gl3(alpha.entries, coords.y[1], coords.y[0])
    return adj * lam * power * wval


# --------------------------- functional equations ----------------------------


def _multiset(items) -> tuple:
    return tuple(sorted(items))


def _round_c(z: complex, digits: int = 9) -> tuple[float, float]:
    return (round(z.real, digits), round(z.imag, digits))


def check_functional_equation(partition: Partition, forms: FormSet,
                              s: SpectralPoint, sigma, samples=None,
                              mode: str = "symbolic",
                              truncation: int = 4000) -> FEReport:
    """Check E*-coefficient covariance under a block permutation sigma.

    symbolic: exact multiset equality of the three factors of the coefficient
    (adjoint L-factors, divisor-sum data (phi_j, s_j), flattened Whittaker
    parameters), with s treated as labelled coordinates.
    numeric: fw_formula on both sides at each (g, M) sample.
    """
    sigma = tuple(sigma)
    part2 = partition.permuted(sigma)
    forms2 = forms.permuted(sigma)
    s2 = s.permuted(sigma)
    if mode == "symbolic":
        # labels: s_j carries its original index through the permutation
        labels = list(range(partition.r))
        labels2 = [labels[sigma[j]] for j in range(partition.r)]
        adj_l = _multiset((nk, f.name) for nk, f in
                          zip(partition.parts, forms.forms) if nk >= 2)
        adj_r = _multiset((nk, f.name) for nk, f in
                          zip(part2.parts, forms2.forms) if nk >= 2)
        div_l = _multiset((f.name, lab) for f, lab in
                          zip(forms.forms, labels))
        div_r = _multiset((f.name, lab) for f, lab in
                          zip(forms2.forms, labels2))
        wh_l = _multiset((_round_c(complex(a)), lab)
                         for f, lab in zip(forms.forms, labels)
                         for a in f.alpha)
        wh_r = _multiset((_round_c(complex(a)), lab)
                         for f, lab in zip(forms2.forms, labels2)
                         for a in f.alpha)
        passed = adj_l == adj_r and div_l == div_r and wh_l == wh_r
        return FEReport(mode="symbolic", sigma=sigma, passed=passed,
                        left=(adj_l, div_l, wh_l), right=(adj_r, div_r, wh_r),
                        metadata={"partition": partition.parts,
                                  "sigma_partition": part2.parts})
    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    if samples is None:
        samples = [(GroupElement.identity(partition.n),
                    (1,) * (partition.n - 1))]
    worst_abs = worst_rel = 0.0
    left = right = None
    for g, big_m in samples:
        left = fw_formula(FWRequest(partition, forms, tuple(big_m), s, g),
                          truncation)
        right = fw_formula(FWRequest(part2, forms2, tuple(big_m), s2, g),
                           truncation)
        a = abs(left - right)
        worst_abs = max(worst_abs, a)
        worst_rel = max(worst_rel, a / max(abs(left), 1e-300))
    return FEReport(mode="numeric", sigma=sigma,
                    passed=bool(worst_rel <= 1e-6), left=left, right=right,
                    abs_residual=worst_abs, rel_residual=worst_rel,
                    metadata={"samples": len(samples),
                              "truncation": truncation})
