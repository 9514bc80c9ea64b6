"""Truncated Borel Eisenstein series for GL(2) and GL(3).

Lattice sums over coset representatives, Fourier-coefficient extraction by
periodic quadrature over the unipotent coordinates, assembly of the
Fourier-Whittaker coefficient from its factored form, and functional-equation
checking (symbolic bookkeeping closure and numeric comparison).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (GroupElement, Partition, SpectralPoint, iwasawa,
                   langlands_parameter, rho_borel)
from .forms import DEFAULT_TRUNCATION, FormSet, _primes_up_to, adjoint_l_at_one
from .hecke import divisor_sigma, eis_hecke_eigenvalue
from .specfun import _ROW_ENTRIES, bessel_k, zeta_completed
from .whittaker import QuadratureError, whittaker_gl2, whittaker_gl3

__all__ = [
    "FWRequest",
    "FEReport",
    "ConvergenceError",
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
        if self.g.n != self.partition.n:
            raise ValueError(f"g is {self.g.n} x {self.g.n}, "
                             f"partition has n = {self.partition.n}")
        self.forms.check_against(self.partition)


@dataclass(frozen=True)
class FEReport:
    """Outcome of a functional-equation comparison."""

    mode: str
    sigma: tuple[int, ...]
    passed: bool
    abs_residual: float = 0.0
    rel_residual: float = 0.0
    metadata: dict = field(default_factory=dict)


# ------------------------------- cosets --------------------------------------


def _coprime_pairs(height: int):
    """Bottom rows (c, d) of the GL(2) coset representatives up to `height`.

    Coprime (c, d) with |c|, |d| <= `height`, one per +- pair: (0, 1) and
    every c > 0.  Yields (rows, 2) int64 arrays in c-chunks of width 200,
    each in (c, d) order, read from one (height+1)^2 coprimality mask.
    """
    yield np.array([[0, 1]], np.int64)
    # coprime[c, |d|]: each prime p strikes the rows c = p, 2p, ... at the
    # columns |d| = 0, p, 2p, ... (gcd(c, 0) = c)
    coprime = np.ones((height + 1, height + 1), bool)
    for p in _primes_up_to(height):
        coprime[p::p, ::p] = False
    d_all = np.arange(-height, height + 1, dtype=np.int64)
    d_abs = np.abs(d_all)
    for lo in range(1, height + 1, 200):
        c, d = np.nonzero(coprime[lo:lo + 200, d_abs])
        yield np.stack((c + lo, d_all[d]), axis=1)


# ----------------------------- series evaluation -----------------------------


def _check_series(n: int, s: SpectralPoint, height: int) -> None:
    """Reject a lattice sum outside the Borel series of GL(2) and GL(3)."""
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    if n not in (2, 3) or s.partition.parts != (1,) * n:
        raise ValueError("lattice sums cover the Borel series for n = 2, 3")
    for i in range(n - 1):
        gap = s.values[i] - s.values[i + 1]
        if not cmath.isfinite(gap):
            raise ValueError("s_i - s_{i+1} is beyond the float range")
        if gap.real <= 1.0:
            raise ConvergenceError(
                "need Re(s_i - s_{i+1}) > 1 for absolute convergence")


def _ramp(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[i] - 1 for each i in turn, concatenated."""
    ends = np.cumsum(counts, dtype=counts.dtype)
    return (np.arange(ends[-1] if ends.size else 0, dtype=counts.dtype)
            - np.repeat(ends - counts, counts))


# bottom rows v per enumeration block: bounds the enumerator's temporaries
_V_BLOCK = 1024


def _primitive_box(height: int, gcd: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Sign-canonical primitive x in Z^3 with |x| <= `height` (sup-norm).

    Returns the vectors, ordered by their raveled index in the box
    [-height, height]^3, and the table from that raveled index to the
    vector's position (-1 off the set).
    """
    span = np.arange(-height, height + 1, dtype=np.int32)
    box = np.stack(np.meshgrid(span, span, span, indexing="ij"),
                   axis=-1).reshape(-1, 3)
    ab = np.abs(box)
    lead = np.where(box[:, 0] != 0, box[:, 0],
                    np.where(box[:, 1] != 0, box[:, 1], box[:, 2]))
    keep = (gcd[gcd[ab[:, 0], ab[:, 1]], ab[:, 2]] == 1) & (lead > 0)
    index = np.full(len(box), -1, np.int32)
    index[keep] = np.arange(np.count_nonzero(keep), dtype=np.int32)
    return box[keep], index


# the pairs depend on the heights only; a few (hv, ha) bound the memory held
@functools.lru_cache(maxsize=4)
def _coset_pairs_gl3(height: int, height_a: int) -> tuple[np.ndarray, ...]:
    """Plucker rows (v, a) of the GL(3) coset representatives, as index pairs.

    Every sign-canonical primitive v with |v| <= `height` (sup-norm), paired
    with every sign-canonical primitive a with a . v = 0 and |a| <= `height_a`.
    The lattice sum only needs these two rows of each representative, not
    its unimodular lift, and its terms factor over them.  Returns
    (V, A, iv, ia, upto): the distinct rows V and A, the int32 index pairs
    (V[iv], A[ia]) of the cosets in order of coset height max(|v|, |a|), and
    upto[h], the number of cosets of height <= h.  The arrays are read-only,
    since the cache shares them.

    Let c = |v_k| be the largest entry of v and i < j the other indices.  In
    the coordinates (i, j, k), v-perp in Z^3 has the Hermite basis
    A1 = (g, t, *), A2 = (0, m, *) with g = gcd(v_j, c), m = c / g and
    t = -v_i (v_j / g)^-1 mod m, the k entries fixed by a . v = 0.  Then
    a = x A1 + y A2 is primitive exactly when gcd(x, y) = 1, and the
    half-plane x > 0, or x = 0 < y, holds one a of each +- pair.  For each
    (v, x) the slabs |a_j|, |a_k| <= height_a bound y to an interval, so no
    candidate is rejected for its size and the work grows with the pairs
    returned.  Intermediates stay within a few times height * height_a, so
    int32 serves throughout.
    """
    ha = height_a
    # |x| <= ha and |y| <= 2 ha index the gcd table as well as |v| <= height
    width = max(height, 2 * ha) + 1
    gcd = np.gcd.outer(*[np.arange(width, dtype=np.int32)] * 2)
    inv = np.zeros((height + 1, height + 1), np.int32)  # r^-1 mod m
    for m in range(2, height + 1):
        for r in range(1, m):
            if gcd[r, m] == 1:
                inv[m, r] = pow(r, -1, m)
    v_all, _ = _primitive_box(height, gcd)
    a_all, a_index = _primitive_box(ha, gcd)
    pivot = np.abs(v_all).argmax(axis=1)
    ivs, ias = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    for k in range(3):
        i, j = (c for c in range(3) if c != k)
        on_k = np.flatnonzero(pivot == k).astype(np.int32)
        for lo in range(0, len(on_k), _V_BLOCK):
            sel = on_k[lo:lo + _V_BLOCK]
            v = v_all[sel]
            vi, vj, vk = v[:, i], v[:, j], v[:, k]
            c = np.abs(vk)
            g = gcd[np.abs(vj), c]
            m = c // g
            t = (-vi * inv[m, (vj // g) % m]) % m
            a1k = -(vi * g + vj * t) // vk
            a2k = -(vj // g) * np.sign(vk)
            # slab |a_k| <= ha as |x e + y b| <= ha with b > 0; at v_j = 0
            # (a2k = 0) it follows from |a_i| <= ha, as |a_k| = x |v_i| <= x c
            b = np.where(a2k == 0, 1, np.abs(a2k))
            e = np.where(a2k == 0, 0, np.sign(a2k) * a1k)
            nx = ha // g + 1
            row = np.repeat(np.arange(len(v), dtype=np.int32), nx)
            x = _ramp(nx)
            xt, xe = x * t[row], x * e[row]
            mr, br = m[row], b[row]
            y_lo = -np.minimum((ha + xt) // mr, (ha + xe) // br)
            y_hi = np.minimum((ha - xt) // mr, (ha - xe) // br)
            first = np.cumsum(nx) - nx  # the x = 0 pair of each v
            y_lo[first] = np.maximum(y_lo[first], 1)
            ny = np.maximum(y_hi - y_lo + 1, 0)
            pair = np.repeat(np.arange(row.size, dtype=np.int32), ny)
            y = _ramp(ny) + y_lo[pair]
            keep = gcd[x[pair], np.abs(y)] == 1
            pair, y = pair[keep], y[keep]
            r, xp = row[pair], x[pair]
            a = np.empty((pair.size, 3), np.int32)
            a[:, i] = xp * g[r]
            a[:, j] = xt[pair] + y * m[r]
            a[:, k] = xp * a1k[r] + y * a2k[r]
            # a_i >= 0, and a_j > 0 where a_i = 0: a lead entry below zero
            # can only be a_k
            flip = (a[:, k] < 0) & ~a[:, :k].any(axis=1)
            np.negative(a, out=a, where=flip[:, None])
            ivs.append(sel[r])
            ias.append(a_index[np.ravel_multi_index((a + ha).T,
                                                    (2 * ha + 1,) * 3)])
    iv, ia = np.concatenate(ivs), np.concatenate(ias)
    # int16 keys take numpy's linear-time radix sort
    heights = np.maximum(np.abs(v_all).max(axis=1)[iv],
                         np.abs(a_all).max(axis=1)[ia]).astype(np.int16)
    order = np.argsort(heights, kind="stable")
    upto = np.cumsum(np.bincount(heights, minlength=max(height, ha) + 1))
    out = (v_all, a_all, iv[order], ia[order], upto)
    for arr in out:
        arr.flags.writeable = False
    return out


# full-weight fraction of the GL(3) extraction window.  Any value in (0, 1)
# keeps the integrand periodic and C^infinity; it only sets the truncation
# error.  At s = (2.4, .1, -2.5), (3, 0, -3), (2, 0, -2), (2.1+.4i, .2-.1i,
# -2.3-.3i) and (H, nodes) = (8, 6), (10, 10), the errors against the factored
# formula (geometric mean, worst) are (7.6e-3, 2.7e-2) at 0.15, (3.2e-2,
# 2.7e-1) at 0.3 and (8.3e-3, 1.7e-1) at 0.5
WINDOW_LOWER = 0.15


def _smooth_window(x: np.ndarray) -> np.ndarray:
    """C^infinity cutoff: 1 on x <= WINDOW_LOWER, 0 on x >= 1, bump-glued
    between."""
    out = np.zeros(x.shape)
    out[x <= WINDOW_LOWER] = 1.0
    mid = (x > WINDOW_LOWER) & (x < 1.0)
    t = (x[mid] - WINDOW_LOWER) / (1.0 - WINDOW_LOWER)
    fa = np.exp(-1.0 / (1.0 - t))
    fb = np.exp(-1.0 / t)
    out[mid] = fa / (fa + fb)
    return out


@functools.cache
def _window_band() -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and values F(x) = sum_k c_k window(x / k_k) of the row weight.

    The scales k_k = linspace(0.3, 1, 24) average the smooth truncation over
    a band of cutoffs: the average of smooth windows is itself a smooth
    window, and it cancels the arithmetic fluctuation of the boundary shells
    (the dominant truncation error) at no extra power-evaluation cost.  The
    Hann weights c_k, normalised so that F(0) = 1, suppress the band-edge
    contribution of the oscillatory part.  F is 0 on x >= 1.
    """
    scales = np.linspace(0.3, 1.0, 24)
    weights = np.hanning(len(scales) + 2)[1:-1]
    xs = np.linspace(0.0, 1.0, (1 << 16) + 1)  # interpolated within 7e-10
    band = (weights / weights.sum()) @ np.array(
        [_smooth_window(xs / k) for k in scales])
    xs.flags.writeable = band.flags.writeable = False
    return xs, band


def _norm_sq(rows: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """|p M|^2 for every row p of `rows` and grid matrix M: (rows, grid).

    Accumulated one column of M at a time, in place, to bound temporaries.
    """
    p = rows.astype(float)
    out = np.zeros((len(p), len(mats)))
    col = np.empty_like(out)
    for j in range(mats.shape[2]):
        np.matmul(p, mats[:, :, j].T, out=col)
        col *= col
        out += col
    return out


def _powers(sq: np.ndarray, e, shift) -> np.ndarray:
    """exp(e log(sq) + shift), in place on `sq` when `e` is real."""
    logp = np.log(sq, out=sq)
    logp = np.multiply(logp, e, out=logp if isinstance(e, float) else None)
    logp += shift
    return np.exp(logp, out=logp)


def _row_factors(w_mats: np.ndarray, s: SpectralPoint) -> tuple:
    """Matrices, exponents and log-shifts of the row factors of a coset term.

    For M = gamma W with gamma = [[r1], [r2], [v]] (GL(2): [[r1], [v]]) the
    row identities
      |row_n(M)|^2 = |v W|^2,   row2 x row3 = (r2 x v) cof(W) = a cof(W),
      det M = det W
    make the term of the Borel series a product of one power per Plucker
    row.  With lam = s + rho the term is prod_i a_i^lam_i over the Iwasawa
    diagonal a of M, where |v W| = a_n, |a cof(W)| = a_{n-1} a_n and
    |det W| = a_1 ... a_n; so it is P_v Q_a with P_v = |vW|^2e_v |det W|^e_det
    and Q_a = |a cof(W)|^2e_a, where e_k = (lam_{n+1-k} - lam_{n-k}) / 2 and
    e_det = lam_1.  Returns ((W, e_v, e_det log|det W|), (cof(W), e_a, 0)),
    the shifts one per grid matrix W (GL(2): the first only).  Real
    exponents are floats.
    """
    n = w_mats.shape[-1]
    lam = [v + float(r) for v, r in zip(s.values, rho_borel(n))]
    exps = [(lam[n - k] - lam[n - k - 1]) / 2 for k in range(1, n)] + [lam[0]]
    if all(abs(e.imag) < 1e-14 for e in exps):
        exps = [e.real for e in exps]
    *row_exps, e_det = exps
    dets = np.linalg.det(w_mats)
    factors = [(w_mats, row_exps[0], e_det * np.log(np.abs(dets)))]
    if n == 3:
        cof = dets[:, None, None] * np.linalg.inv(w_mats).transpose(0, 2, 1)
        factors.append((cof, row_exps[1], np.zeros(len(w_mats))))
    return tuple(factors)


def _row_powers(w_mats: np.ndarray, s: SpectralPoint, *rows: np.ndarray
                ) -> list[np.ndarray]:
    """P for the v `rows` (and Q for the a rows), each (rows, grid)."""
    return [_powers(_norm_sq(r, mats), e, shift)
            for r, (mats, e, shift) in zip(rows, _row_factors(w_mats, s))]


# index pairs per block of `_pair_sums`: bounds its temporaries
_SUM_BLOCK = 1 << 14


def _pair_sums(p: np.ndarray, q: np.ndarray, iv: np.ndarray, ia: np.ndarray
               ) -> np.ndarray:
    """Sum of P[iv] Q[ia] over the index pairs, per grid matrix."""
    total = np.zeros(p.shape[1], np.result_type(p, q))
    for lo in range(0, len(iv), _SUM_BLOCK):
        total += (p[iv[lo:lo + _SUM_BLOCK]]
                  * q[ia[lo:lo + _SUM_BLOCK]]).sum(axis=0)
    return total


def _carry_sum(carry: np.ndarray | None, terms: np.ndarray) -> np.ndarray:
    """carry + the rows of `terms`, added one after another, the carry into
    terms[0] in place; no carry for the first chunk of a block."""
    if carry is None:
        return terms.sum(axis=0)
    if not len(terms):
        return carry
    terms[0] += carry
    return terms.sum(axis=0)


def _shell_sums(n: int, w_mats: np.ndarray, s: SpectralPoint, height: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Lattice sums S(H) and S(H // 2) over the cosets, per grid matrix W.

    GL(3) evaluates one power per distinct Plucker row (`_row_powers`) and
    forms each coset term as P[iv] Q[ia].  The inner sum takes the cosets
    whose height (the sup-norm of their Plucker rows) is at most H // 2: a
    prefix of the height-ordered pairs.

    GL(2) coefficients cancel to ~1e-4 of the series, so their last digits
    depend on the summation order, and that order is fixed: each c-block of
    `_coprime_pairs` is summed on its own and added to the running total.
    Inside a block, numpy's sum(axis=0) of a (rows, width >= 2) table adds
    the rows one after another, in enumeration order.  The block is taken in
    chunks of at most `_ROW_ENTRIES` = 2^16 (row, grid point) entries (1024
    rows at 64 grid points, 0.5 MB per real table), and each chunk's
    table carries the block's running sum as its first row, so the chunked
    sum adds the same numbers in the same order as one whole-block table.
    The inner sum S(H // 2), over the rows with max(|c|, |d|) <= H // 2, is
    carried the same way.  A single grid matrix (width 1) is summed
    pairwise, which chunks would reorder, so its blocks stay whole; their
    table is one column.
    """
    half = height // 2
    if n == 3:
        v_rows, a_rows, iv, ia, upto = _coset_pairs_gl3(height, height)
        p, q = _row_powers(w_mats, s, v_rows, a_rows)
        cut = upto[half]
        inner = _pair_sums(p, q, iv[:cut], ia[:cut])
        return inner + _pair_sums(p, q, iv[cut:], ia[cut:]), inner
    (mats, e, shift), = _row_factors(w_mats, s)
    width = len(w_mats)
    total = inner = 0.0
    for v in _coprime_pairs(height):
        step = max(1, _ROW_ENTRIES // width) if width > 1 else len(v)
        # elementwise: a max along the short row axis is several times slower
        heights = np.maximum(np.abs(v[:, 0]), np.abs(v[:, 1]))
        block = block_inner = None
        for lo in range(0, len(v), step):
            terms = _powers(_norm_sq(v[lo:lo + step], mats), e, shift)
            # a copy, taken before the total's carry changes terms[0]
            terms_inner = terms[heights[lo:lo + step] <= half]
            block = _carry_sum(block, terms)
            block_inner = _carry_sum(block_inner, terms_inner)
        total = total + block
        inner = inner + block_inner
    return total, inner


# `_windowed_sums` slices the grid so that each slice's row tables hold at
# most `_TABLE_BLOCK` (row, grid point) entries.  Its cap of 64 grid points
# per slice bounds the two (`_SUM_BLOCK`, width) temporaries of `_pair_sums`
# to 17 MB each of complex terms: at a small H the row tables alone would
# allow slices of over 1000 points and temporaries of hundreds of MB
_TABLE_BLOCK = 1 << 20


def _window_powers(rows: np.ndarray, mats: np.ndarray, e, shift: np.ndarray,
                   height: int) -> tuple[np.ndarray, np.ndarray]:
    """The row powers times F(|p M| / H) (`_row_powers`), 0 outside the
    window, and whether each row is inside it at some grid matrix.

    Its temporaries are freed on return, before `_pair_sums` allocates its
    own.
    """
    sq = _norm_sq(rows, mats)
    inside = sq < height * height
    sq_in = sq[inside]
    xs, band = _window_band()
    weight = np.interp(np.sqrt(sq_in) / height, xs, band)
    power = np.zeros(sq.shape, np.result_type(e, 1.0))
    power[inside] = weight * _powers(
        sq_in, e, np.broadcast_to(shift, sq.shape)[inside])
    return inside.any(axis=1), power


def _windowed_sums(w_mats: np.ndarray, s: SpectralPoint, height: int
                   ) -> np.ndarray:
    """Smooth-window GL(3) lattice sum per grid matrix W.

    Each coset term P_v Q_a (`_row_factors`) carries the weight
    F(|v W| / H) F(|a cof(W)| / H), F the band of smooth windows of
    `_window_band` and H = `height`.  Both arguments are continuous coset
    invariants of gamma W, so the weighted full-lattice sum is an exactly
    1-periodic C^infinity function of the unipotent coordinates of W -- the
    property the coefficient quadrature needs.  The rows are enumerated wide
    enough to cover the window support at every grid matrix:
    |v| <= H / sigma_min(W) and |a| <= H sigma_max(W) / |det W|.  A cover
    beyond the float range raises ValueError.

    Per slice of the grid, the weighted powers P' = P F and Q' = Q F are
    evaluated where the row's norm is inside the window and are 0 elsewhere.
    The terms P'[iv] Q'[ia] are summed by `_pair_sums`, as in `eval`, over
    the cosets whose two rows are both inside the window at some grid point
    of the slice; every other term is 0 throughout the slice.
    """
    svals = np.linalg.svd(w_mats, compute_uv=False)
    dets = np.abs(np.linalg.det(w_mats))
    cover_v = height / svals[:, 2].min()
    cover_a = height * (svals[:, 0] / dets).max()
    if not (math.isfinite(cover_v) and math.isfinite(cover_a)):
        raise ValueError("the window cover is beyond the float range: "
                         "g is too ill-conditioned")
    v_rows, a_rows, iv, ia, _ = _coset_pairs_gl3(int(math.ceil(cover_v)),
                                                 int(math.ceil(cover_a)))
    factors = _row_factors(w_mats, s)
    step = max(1, min(64, _TABLE_BLOCK // (len(v_rows) + len(a_rows))))
    series = []
    for lo in range(0, len(w_mats), step):
        grid = slice(lo, lo + step)
        (near_v, p), (near_a, q) = (
            _window_powers(rows, mats[grid], e, shift[grid], height)
            for rows, (mats, e, shift) in zip((v_rows, a_rows), factors))
        near = near_v[iv] & near_a[ia]
        series.append(_pair_sums(p, q, iv[near], ia[near]))
    return np.concatenate(series)


def _sum_range_error(w_mats: np.ndarray) -> ValueError:
    """The error for a lattice sum beyond the float range.

    Over nonzero integer rows |v W| >= sigma_min(W) and
    |a cof(W)| >= |det W| / sigma_max(W).  When one of these squares
    underflows to 0, a row norm may have log -inf, and the error names g's
    ill-conditioning rather than an overflow.
    """
    with np.errstate(over="ignore"):
        svals = np.linalg.svd(w_mats, compute_uv=False)
        floor = float(min(svals[:, -1].min(),
                          (np.abs(np.linalg.det(w_mats)) / svals[:, 0]).min()))
    if floor * floor == 0.0:
        return ValueError("a row norm underflows to 0: g is too "
                          "ill-conditioned")
    return ValueError("the lattice sum overflows the float range")


def eval_eisenstein(n: int, g: GroupElement, s: SpectralPoint, height: int
                    ) -> tuple[complex, float]:
    """Truncated lattice sum of the Borel series, with a heuristic tail bound.

    Returns (partial sum S(H) over cosets of height <= H = `height`, tail
    estimate).  The tail estimate is the outer-shell mass |S(H) - S(H // 2)|,
    the part of the sum from heights above H // 2; it is a heuristic, not a
    proven bound.  A sum beyond the float range raises ValueError.
    """
    _check_series(n, s, height)
    if g.n != n:
        raise ValueError(f"g is {g.n} x {g.n}, expected {n} x {n}")
    # an overflowing power, or a row norm that underflows to 0, makes the
    # sums, and so the tail, inf or nan
    w_mats = g.entries[np.newaxis].astype(float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        total, inner = _shell_sums(n, w_mats, s, height)
        tail = abs(total[0] - inner[0])
    if not np.isfinite(tail):
        raise _sum_range_error(w_mats)
    return complex(total[0]), float(tail)


# --------------------------- GL(2) closed forms -------------------------------


def scattering_phi(s: complex) -> complex:
    """phi(s) = zeta*(2s-1)/zeta*(2s)."""
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
                                quad_nodes: int) -> complex:
    """M-th Fourier coefficient of the truncated series.

    Periodic trapezoid quadrature of the truncated lattice sum at u g against
    exp(-2 pi i sum m_i u_{i,i+1}) over the unipotent coordinates, with
    `quad_nodes` nodes per axis.  When `quad_nodes` is even, the embedded
    half-grid provides a convergence diagnostic; a relative disagreement
    beyond 0.25 raises QuadratureError.  A sum beyond the float range raises
    ValueError.
    """
    _check_series(n, request.s, height)
    if quad_nodes < 1:
        raise ValueError(f"quad_nodes must be >= 1, got {quad_nodes}")
    w, phase = _unipotent_grid(n, quad_nodes, request.g.entries.astype(float),
                               request.M)
    # an overflowing power, or a row norm that underflows to 0, makes the
    # value inf or nan
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n == 2:
            # the height cutoff biases each coefficient by ~ C * H^(1-2 s1),
            # so S(H // 2) carries about 2^(2 s1 - 1) times the bias of S(H);
            # a two-height extrapolation with that ratio, complex for complex
            # s1, cancels it.  A ratio beyond the float range leaves the
            # value as it is, the limit of the extrapolation as r -> inf
            series, inner = _shell_sums(2, w, request.s, height)
            value, half = _quadrature(series, phase)
            try:
                r = 2.0 ** (2.0 * request.s.values[0] - 1.0)
            except OverflowError:
                r = None
            if height >= 8 and r is not None:
                v_lo, _ = _quadrature(inner, phase)
                value = (r * value - v_lo) / (r - 1.0)
                if half is not None:
                    half = (r * half - v_lo) / (r - 1.0)
        else:
            # the smooth window makes the integrand an exactly periodic
            # C^infinity function of u: aliasing decays faster than any
            # power of the node count
            value, half = _quadrature(_windowed_sums(w, request.s, height),
                                      phase)
    if not cmath.isfinite(value):
        raise _sum_range_error(w)
    if half is not None:
        disagreement = abs(value - half) / max(abs(value), 1e-300)
        if disagreement > 0.25:
            raise QuadratureError(
                "node-doubling disagreement in coefficient extraction",
                disagreement)
    return value


def _unipotent_grid(n: int, nodes: int, g: np.ndarray, M: tuple[int, ...]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Grid matrices u g and phases exp(-2 pi i sum_i M_i u_{i,i+1}).

    u runs over the unipotent upper-triangular matrices whose entries u_ij
    (i < j) each take `nodes` values centred on 0: the truncated series is
    symmetric under u -> -u there, so the symmetric grid cancels odd
    truncation noise.  The phases have one axis of length `nodes` per u_ij,
    in the order of the grid matrices.
    """
    u = (np.arange(nodes) - nodes // 2) / nodes
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coords = np.meshgrid(*[u] * len(pairs), indexing="ij")
    w = np.tile(np.eye(n), (nodes ** len(pairs), 1, 1))
    arg = np.zeros(coords[0].shape)
    for (i, j), c in zip(pairs, coords):
        w[:, i, j] = c.ravel()
        if j == i + 1:
            arg += M[i] * c
    return w @ g, np.exp(-2j * math.pi * arg)


def _quadrature(series: np.ndarray, phase: np.ndarray
                ) -> tuple[complex, complex | None]:
    """Trapezoid mean of series x phase, and for an even node count the
    mean over the half grid (every other node on every axis)."""
    f = series.reshape(phase.shape) * phase
    half = None
    if phase.shape[0] % 2 == 0:
        half = complex(f[(slice(None, None, 2),) * f.ndim].mean())
    return complex(f.mean()), half


# --------------------------- coefficient assembly ----------------------------

def fw_formula(request: FWRequest,
               truncation: int = DEFAULT_TRUNCATION) -> complex:
    """M-th Fourier coefficient of the completed series E*, factored.

    prod_{n_k >= 2} L*(1, Ad phi_k)^{-1/2} x lambda_{P,Phi}(M, s)
        x prod_k m_k^{-k(n-k)/2} x W_{alpha_{P,Phi}(s)}(M g).

    E* is the lattice sum times the completion factor
    prod_{j<l} L*(1 + s_j - s_l, phi_j x phi_l), so the coefficient of the
    raw lattice sum (what extract_fourier_coefficient measures) is
    fw_formula(request) / forms.completion_factor(...).value.
    """
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


def check_functional_equation(partition: Partition, forms: FormSet,
                              s: SpectralPoint, sigma,
                              mode: str = "symbolic",
                              truncation: int = DEFAULT_TRUNCATION
                              ) -> FEReport:
    """Check E*-coefficient covariance under a block permutation sigma.

    symbolic: exact equality of the sorted Langlands parameters of
    (P, Phi, s) and (sigma P, sigma Phi, sigma s).  sigma moves each block
    with its form and its s_j, so this holds by construction; it checks the
    bookkeeping of `permuted` and `langlands_parameter`, not the series.
    numeric: fw_formula on both sides at g = 1 and M = (1, ..., 1).
    """
    sigma = tuple(sigma)
    part2 = partition.permuted(sigma)
    forms2 = forms.permuted(sigma)
    s2 = s.permuted(sigma)
    if mode == "symbolic":
        left, right = (
            sorted(langlands_parameter(p, f, x).entries,
                   key=lambda z: (z.real, z.imag))
            for p, f, x in ((partition, forms, s), (part2, forms2, s2)))
        return FEReport(mode="symbolic", sigma=sigma, passed=left == right,
                        metadata={"partition": partition.parts,
                                  "sigma_partition": part2.parts})
    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    g, big_m = GroupElement.identity(partition.n), (1,) * (partition.n - 1)
    left = fw_formula(FWRequest(partition, forms, big_m, s, g), truncation)
    right = fw_formula(FWRequest(part2, forms2, big_m, s2, g), truncation)
    abs_residual = abs(left - right)
    rel_residual = abs_residual / max(abs(left), 1e-300)
    return FEReport(mode="numeric", sigma=sigma,
                    passed=bool(rel_residual <= 1e-6),
                    abs_residual=abs_residual, rel_residual=rel_residual,
                    metadata={"truncation": truncation})
