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

from .core import (GroupElement, Partition, SpectralPoint,
                   _iwasawa_diagonal, iwasawa, langlands_parameter, rho_borel)
from .forms import (DEFAULT_TRUNCATION, FormSet, _primes_up_to,
                    adjoint_l_at_one, const_form)
from .hecke import eis_hecke_eigenvalue
from .specfun import _ROW_ENTRIES, bessel_k, zeta_completed
from .whittaker import whittaker_gl2, whittaker_gl3

__all__ = [
    "FWRequest",
    "FEReport",
    "eval_eisenstein",
    "closed_form_fourier_gl2",
    "extract_fourier_coefficient",
    "fw_formula",
    "check_functional_equation",
]


@dataclass(frozen=True)
class FWRequest:
    """A Fourier-Whittaker coefficient request for M = (m, 1, ..., 1).

    The coefficient at g is the integral over the unipotent u (entries in
    [0, 1)) of E(u g) e(-sum_i M_i u_{i,i+1}), with e(t) = exp(2 pi i t).
    For g = x a k in Iwasawa form it is e(sum_i M_i x_{i,i+1}) times the
    coefficient at a (the torus rule: u -> u x maps the period onto
    itself, the character is multiplicative, and E(g k) = E(g)).  m = 0
    requests the constant term (quadrature extraction only; the factored
    coefficient formula needs m >= 1).  ``s`` must be a point of
    ``partition``.
    """

    partition: Partition
    forms: FormSet
    M: tuple[int, ...]
    s: SpectralPoint
    g: GroupElement

    def __post_init__(self):
        if self.partition.n < 2:
            raise ValueError("a Fourier coefficient needs n >= 2")
        if len(self.M) != self.partition.n - 1 or self.M[0] < 0:
            raise ValueError("M must be an (n-1)-tuple with m >= 0")
        if any(v != 1 for v in self.M[1:]):
            raise ValueError("only M = (m, 1, ..., 1) is supported")
        if self.g.n != self.partition.n:
            raise ValueError(f"g is {self.g.n} x {self.g.n}, "
                             f"partition has n = {self.partition.n}")
        if self.s.partition != self.partition:
            raise ValueError("spectral point belongs to a different partition")
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


def _coprime_pairs(height: int, step: int, mirror: bool = False):
    """Bottom rows (c, d) of the GL(2) coset representatives up to `height`.

    Coprime (c, d) with |c|, |d| <= `height`, one per +- pair: (0, 1) and
    every c > 0, in (c, d) order.  Yields one iterable per block: (0, 1),
    then the c-blocks of width 200.  Each gives the block's rows in turn as
    (rows, 2) float chunks read from the block's own coprimality mask:
    chunks of `step` rows, the last one shorter.  With `mirror` only the
    rows with d >= 0 come (for c > 0 the others are their mirrors (c, -d)),
    in runs of whole c, each c's rows preceded by the spare row (c, -1) and
    the run closed by a copy of its first one: at most `step` rows in all,
    a c with more rows alone in its run.
    """
    yield [np.array([[0.0, -1.0], [0.0, 1.0], [0.0, -1.0]] if mirror
                    else [[0.0, 1.0]])]
    for lo in range(1, height + 1, 200):
        yield _coprime_block(lo, min(lo + 200, height + 1), height, step,
                             mirror)


def _coprime_block(lo: int, hi: int, height: int, step: int, mirror: bool):
    """The coprime rows (c, d) with lo <= c < hi and |d| <= `height`, in
    chunks (`_coprime_pairs`)."""
    d_lo = -1 if mirror else -height
    # coprime[c - lo, d - d_lo]: each prime p strikes the rows c = 0 mod p
    # at the columns d = 0 mod p (gcd(c, 0) = c); d = -1 stays
    coprime = np.ones((hi - lo, height + 1 - d_lo), bool)
    for p in _primes_up_to(hi - 1):
        coprime[-lo % p::p, -d_lo % p::p] = False
    # ends[i]: the block's rows up to and including c = lo + i
    ends = np.cumsum(np.count_nonzero(coprime, axis=1))
    r = 0
    while r < ends[-1]:
        if mirror:
            # the last c that ends within `step` rows with the closing spare,
            # or else the next c
            i = np.searchsorted(ends, r + step - 1, side="right") - 1
            r_end = ends[max(i, np.searchsorted(ends, r, side="right"))]
        else:
            r_end = min(r + step, ends[-1])
        # the c whose rows meet the block rows r, ..., r_end - 1
        i, j = np.searchsorted(ends, (r, r_end - 1), side="right")
        c, d = np.nonzero(coprime[i:j + 1])
        off = r - (ends[i - 1] if i else 0)
        rows = np.stack((c[off:off + r_end - r] + (lo + i),
                         d[off:off + r_end - r] + d_lo), axis=1, dtype=float)
        yield np.concatenate((rows, rows[:1])) if mirror else rows
        r = r_end


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
            raise ValueError(
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
    [-height, height]^3, and the table from the raveled index of x or of -x
    to the vector's position (-1 off the set).
    """
    box = np.indices((2 * height + 1,) * 3, np.int32).reshape(3, -1).T - height
    ab = np.abs(box)
    keep = gcd[gcd[ab[:, 0], ab[:, 1]], ab[:, 2]] == 1
    # the vectors past 0 in raveled order are those whose first nonzero
    # entry is > 0, and -x sits at the reversed index of x
    keep[:len(box) // 2] = False
    index = np.full(len(box), -1, np.int32)
    index[keep] = np.arange(np.count_nonzero(keep), dtype=np.int32)
    return box[keep], np.maximum(index, index[::-1])


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
    returned.  Along it the raveled box index of a is linear in y, and one
    lookup in the `_primitive_box` table gives the position of a or -a, or
    -1 where gcd(x, y) > 1.  Each term (a_c + height_a) stride_c of an
    index is below (2 height_a + 1)^3, so int32 serves to heights of 600.
    """
    ha = height_a
    # gcd(r, m) for the inverses, gcd(|v_j|, c) and the primitive boxes
    gcd = np.gcd.outer(*[np.arange(max(height, ha) + 1, dtype=np.int32)] * 2)
    inv = np.zeros((height + 1, height + 1), np.int32)  # r^-1 mod m
    for m in range(2, height + 1):
        for r in range(1, m):
            if gcd[r, m] == 1:
                inv[m, r] = pow(r, -1, m)
    a_all, a_index = _primitive_box(ha, gcd)
    v_all = a_all if height == ha else _primitive_box(height, gcd)[0]
    pivot = np.abs(v_all).argmax(axis=1)
    ivs, ias = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    for k in range(3):
        i, j = (c for c in range(3) if c != k)
        si, sj, sk = ((2 * ha + 1) ** (2 - c) for c in (i, j, k))  # strides
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
            # floats divide faster, and floor quotients of int32s exactly
            y_lo = -np.floor(np.minimum((ha + xt) / mr, (ha + xe) / br))
            y_hi = np.floor(np.minimum((ha - xt) / mr, (ha - xe) / br))
            np.maximum(y_lo, 1, out=y_lo, where=x == 0)  # y > 0 at x = 0
            ny = np.maximum(y_hi - y_lo + 1, 0).astype(np.int32)
            live = ny > 0
            r, x, y, ny = row[live], x[live], y_lo[live], ny[live]
            # box index of a at y = y_lo, and its step per unit of y
            start = ((x * g[r] + ha) * si + (xt[live] + y * m[r] + ha) * sj
                     + (x * a1k[r] + y * a2k[r] + ha) * sk).astype(np.int32)
            idx = (np.repeat(start, ny)
                   + _ramp(ny) * np.repeat((m * sj + a2k * sk)[r], ny))
            ia = a_index.take(idx)
            keep = ia >= 0
            ivs.append(np.repeat(sel[r], ny)[keep])
            ias.append(ia[keep])
    iv, ia = np.concatenate(ivs), np.concatenate(ias)
    # int16 keys take numpy's linear-time radix sort
    v_h, a_h = (functools.reduce(np.maximum, np.abs(rows).T).astype(np.int16)
                for rows in (v_all, a_all))
    heights = np.maximum(v_h.take(iv), a_h.take(ia))
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
def _window_band() -> np.ndarray:
    """F(x) = sum_k c_k window(x / k_k), the row weight, at the 2^16 + 1
    nodes x = i / 2^16 of [0, 1].

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
    band.flags.writeable = False
    return band


def _norm_sq(rows: np.ndarray, mats: np.ndarray, out: np.ndarray | None = None,
             col: np.ndarray | None = None) -> np.ndarray:
    """|p M|^2 for every row p of `rows` and grid matrix M: (rows, grid),
    added one column of M at a time in place onto the first one's square.
    The sums go into `out` and the later columns' squares into `col`, two
    (rows, grid) float tables, when given; matmul reads contiguous columns."""
    p = np.asarray(rows, float)
    cols = np.ascontiguousarray(mats.transpose(2, 1, 0))
    out = np.matmul(p, cols[0], out=out)
    out *= out
    if col is None:
        col = np.empty_like(out)
    for c in cols[1:]:
        np.matmul(p, c, out=col)
        col *= col
        out += col
    return out


def _powers(sq: np.ndarray, e, shift, out: np.ndarray | None = None
            ) -> np.ndarray:
    """exp(e log(sq) + shift), in place on `sq` when `e` is real, else in
    `out`, a complex table like `sq`, when given; a zero shift is skipped."""
    logp = np.log(sq, out=sq)
    logp = np.multiply(logp, e, out=logp if isinstance(e, float) else out)
    if np.any(shift):
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
    """Sum of P[iv] Q[ia] over the index pairs per grid matrix (`np.take`)."""
    total = np.zeros(p.shape[1], np.result_type(p, q))
    for lo in range(0, len(iv), _SUM_BLOCK):
        total += (np.take(p, iv[lo:lo + _SUM_BLOCK], axis=0)
                  * np.take(q, ia[lo:lo + _SUM_BLOCK], axis=0)).sum(axis=0)
    return total


def _mirror_layout(mats: np.ndarray, shift: np.ndarray
                   ) -> tuple[np.ndarray, int]:
    """The grid matrices in an order whose reversal maps each to its mirror.

    W_j mirrors W_m when each column of W_j equals +- the same column of
    S W_m, S = diag(1, -1), and their log-shifts agree, under exact
    comparison.  Then |(c, -d) W_j| = |(c, d) W_m| bit for bit (the products
    and sums only change sign), so the GL(2) term of (c, -d) at W_j is that
    of (c, d) at W_m.  Each W_m has at most one mirror, and one W may be its
    own (u = 0 at a diagonal g).  Returns (order, n): the n unpaired
    matrices in grid order, then the first of each pair, the self-mirrored
    one and the mirrors in reverse, so that reversing order[n:] maps each
    matrix to its mirror.
    """
    def keys(w):
        # each column's sign fixed by its first nonzero entry, -0.0 as 0.0
        lead = np.where(w[:, :1] != 0, w[:, :1], w[:, 1:])
        return [k.tobytes() for k in w * np.sign(lead) + 0.0]

    free, firsts, mirrors, own = {}, [], [], []
    for j, (key, flipped) in enumerate(zip(keys(mats),
                                           keys(mats * [[1.0], [-1.0]]))):
        m = free.get(flipped)
        if flipped == key and not own:
            own.append(j)
        elif m is not None and shift[m] == shift[j]:
            del free[flipped]
            firsts.append(m)
            mirrors.append(j)
        else:
            free.setdefault(key, j)
    paired = set(firsts + mirrors + own)
    rest = [j for j in range(len(mats)) if j not in paired]
    return np.array(rest + firsts + own + mirrors[::-1]), len(rest)


def _carry_sum(terms: np.ndarray, rows: np.ndarray, acc: np.ndarray) -> None:
    """acc + the rows of `terms`, added pairwise for one column, into `acc`
    in place; the carry goes into terms[0].  `rows` is unused: the
    arguments are `_mirror_sums`'."""
    if len(terms):
        terms[0] += acc
        np.add.reduce(terms, axis=0, out=acc)


def _mirror_sums(terms: np.ndarray, rows: np.ndarray, acc: np.ndarray
                 ) -> None:
    """Add the GL(2) terms of each c to the running sums `acc`, in place.

    `rows` are the rows (c, d >= 0) of whole c, each c's preceded by the
    spare row (c, -1) and the last closed by one more (`_coprime_pairs`).
    terms[:, :w] are their terms at the w = len(acc) grid matrices, and
    terms[:, ::-1][:, :w] those of (c, -d) (`_mirror_layout`).  For each c
    one numpy reduction over a view with negative row stride adds the terms
    of d = -H, ..., -1 to the running sum put in the spare row after the
    c's rows, and writes the sum to the spare row before them; a second adds
    d = 0, ..., H from there and writes the next c's spare row.  So each
    column adds (carry + first) + second + ..., row after row for w >= 2,
    and no running sum lands on a term row that a later sum still reads.
    """
    width = len(acc)
    pos, neg = terms[:, :width], terms[:, ::-1][:, :width]
    spares = np.flatnonzero(rows[:, 1] < 0).tolist()
    if len(spares) < 2:
        return
    # the first row is its own mirror at d = 0 (c = 1) and for (0, 1)
    own = (rows[np.add(spares[:-1], 1)] == 0).any(axis=1)
    neg[spares[1]] = acc
    outs = [*(neg[b] for b in spares[2:]), acc]
    for a, b, skip, out in zip(spares, spares[1:], own.tolist(), outs):
        np.add.reduce(neg[b:a + skip:-1], axis=0, out=pos[a])
        np.add.reduce(pos[a:b], axis=0, out=out)


def _shell_sums(n: int, w_mats: np.ndarray, s: SpectralPoint, height: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Lattice sums S(H) and S(H // 2) over the cosets, per grid matrix W.

    GL(3) evaluates one power per distinct Plucker row (`_row_powers`) and
    forms each coset term as P[iv] Q[ia].  The inner sum takes the cosets
    whose height (the sup-norm of their Plucker rows) is at most H // 2: a
    prefix of the height-ordered pairs.

    GL(2) coefficients cancel to ~1e-4 of the series, so their last digits
    depend on the summation order, and that order is fixed: each c-block of
    `_coprime_pairs` is summed on its own, its rows added one after another
    at every grid matrix W, and added to the running total.  Every chunk's
    |vW|^2, log, power and exp go into the same two float tables (and one
    complex table for complex s), allocated once per call: with fresh
    tables per chunk the allocator hands their pages back to the system and
    faults them in again.

    A grid streams runs of whole c of the rows with d >= 0 only, their
    terms taken at the grid matrices and at the mirrors of the unpaired
    ones (`_mirror_layout`), and each grid matrix's terms of d < 0 are its
    mirror's, read in reverse row order within each c (`_mirror_sums`).
    Extraction sums on the torus (the torus rule of `FWRequest`), where the
    matrices at u and -u of `_unipotent_grid` are mirrors, so each term is
    computed once per mirror pair: at 64 nodes that is 65 table columns
    over half the rows.  A run holds up to 2^16 (row, table column)
    entries, and the tables hold the longest c, c = 1 with H + 1 rows and
    two spares.  A single matrix (`eval`) streams all rows in chunks of
    2^16 rows, which numpy sums pairwise.  The inner sum S(H // 2), over
    the rows with max(|c|, |d|) <= H // 2, is carried the same way from a
    copy of those rows.
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
    mirror = width > 1
    order, step = np.arange(width), _ROW_ENTRIES
    if mirror:
        order, n = _mirror_layout(mats, shift)
        mats, shift = mats[order], shift[order]
        # the grid, then the unpaired ones' mirrors S W
        mats = np.concatenate((mats, mats[:n][::-1] * [[1.0], [-1.0]]))
        shift = np.concatenate((shift, shift[:n][::-1]))
        step = max(_ROW_ENTRIES // len(mats), height + 3)
    cols, add = len(mats), _mirror_sums if mirror else _carry_sum
    bufs = [np.empty(step * cols) for _ in range(2)]
    if not isinstance(e, float):
        bufs.append(np.empty(len(bufs[0]), complex))
    total = inner = 0.0
    for block in _coprime_pairs(height, step, mirror):
        # the running sums start at -0.0, which leaves the first term as
        # it is (x + -0.0 = x, signed zeros included)
        acc, acc_inner = -np.zeros((2, width), bufs[-1].dtype)
        for rows in block:
            sq, col, *z = (b[:len(rows) * cols].reshape(-1, cols)
                           for b in bufs)
            terms = _powers(_norm_sq(rows, mats, sq, col), e, shift, *z)
            if rows[0, 0] <= half:
                # elementwise (a max along the row axis is slower), copied
                # before the sums change `terms`; with the spare rows and
                # the closing one; none from c > H // 2 on
                keep = np.maximum(rows[:, 0], np.abs(rows[:, 1])) <= half
                keep[-1] |= mirror
                add(terms[keep], rows[keep], acc_inner)
            add(terms, rows, acc)
        total = total + acc
        inner = inner + acc_inner
    out = np.empty((2, width), total.dtype)
    out[:, order] = total, inner
    return out[0], out[1]


# `_windowed_sums` slices the grid so that each slice's row tables hold at
# most `_TABLE_BLOCK` (row, grid point) entries.  Its cap of 64 grid points
# per slice bounds `_pair_sums`' two gathers and their product to 17 MB each
# of complex terms: at a small H the row tables alone would allow slices of
# over 1000 points and (`_SUM_BLOCK`, width) temporaries of hundreds of MB
_TABLE_BLOCK = 1 << 20


def _window_powers(rows: np.ndarray, mats: np.ndarray, e, shift: np.ndarray,
                   height: int) -> tuple[np.ndarray, np.ndarray]:
    """The row powers times F(|p M| / H) (`_row_powers`), 0 outside the
    window, and whether each row is inside it at some grid matrix.  Its
    temporaries are freed on return, before `_pair_sums` allocates its own.
    """
    sq = _norm_sq(rows, mats)
    inside = sq < height * height
    sq_in = sq[inside]
    power = np.zeros(sq.shape, np.result_type(e, 1.0))
    power[inside] = _window_weight(sq_in, height) * _powers(
        sq_in, e, np.broadcast_to(shift, sq.shape)[inside])
    return inside.any(axis=1), power


def _window_weight(sq: np.ndarray, height: int) -> np.ndarray:
    """F(sqrt(sq) / H), H = `height`, for 0 <= sq < H^2: np.interp's bits
    on the nodes i / 2^16, read at the direct index.  t is scaled by 2^16
    after the division, so t - i is exact; it may round up to the last node."""
    band = _window_band()
    t = np.sqrt(sq) / height * (1 << 16)
    i = np.minimum(t.astype(np.intp), len(band) - 2)
    return band[i] + (t - i) * (band[i + 1] - band[i])


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
    cover_v = height / svals[:, 2].min()
    cover_a = height * (svals[:, 0] / np.abs(np.linalg.det(w_mats))).max()
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
        near = np.flatnonzero(np.take(near_v, iv) & np.take(near_a, ia))
        series.append(_pair_sums(p, q, np.take(iv, near), np.take(ia, near)))
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


def closed_form_fourier_gl2(m: int, s1: complex, y: float) -> complex:
    """Fourier coefficient (as a function of y) of the GL(2) Borel series.

    m = 0:   y^{s1+1/2} + zeta*(2 s1) / zeta*(2 s1 + 1) y^{1/2-s1}
    m != 0:  2 lambda(|m|) sqrt(y) K_{s1}(2 pi |m| y) / zeta*(2 s1 + 1), with
             `fw_formula`'s eigenvalue lambda at (s1, -s1)

    The factor 2 for m != 0 makes this the exact e(m x)-coefficient of the
    lattice sum over the coprime bottom rows (c, d), one per +- pair, as
    verified by quadrature extraction (the one-sided expansion convention
    omits it).
    """
    if y <= 0:
        raise ValueError("need y > 0")
    if m == 0:
        return (cmath.exp((s1 + 0.5) * math.log(y))
                + zeta_completed(2 * s1) / zeta_completed(2 * s1 + 1)
                * cmath.exp((0.5 - s1) * math.log(y)))
    am = abs(m)
    lam = eis_hecke_eigenvalue(FormSet((const_form(),) * 2),
                               SpectralPoint((s1, -s1), Partition((1, 1))), am)
    return (2 * lam * math.sqrt(y) * bessel_k(s1, 2 * math.pi * am * y)
            / zeta_completed(2 * s1 + 1))


# ------------------------- coefficient extraction ----------------------------


def extract_fourier_coefficient(n: int, request: FWRequest, height: int,
                                quad_nodes: int) -> complex:
    """M-th Fourier coefficient of the truncated series.

    Periodic trapezoid quadrature of the truncated lattice sum at u a
    against exp(-2 pi i sum m_i u_{i,i+1}) over the unipotent coordinates,
    with `quad_nodes` nodes per axis, a the torus point of g = x a k
    (`core.iwasawa`'s QR).  The value is then multiplied by
    e(sum_i M_i x_{i,i+1}), the phase of FWRequest's torus rule; at x = 1
    it is left as it is.  When `quad_nodes` is even, the embedded half-grid
    provides a convergence diagnostic; a relative disagreement beyond 0.25
    raises ValueError "node-doubling disagreement in coefficient extraction
    (achieved estimate ...)".  A grid of N nodes folds the mode m - N onto
    m, a smaller mode when N < 2m, so `quad_nodes` below max(1, 2 max(M))
    raises ValueError, as does a sum beyond the float range.
    """
    _check_series(n, request.s, height)
    need = max(1, 2 * max(request.M))
    if quad_nodes < need:
        raise ValueError(f"quad_nodes must be >= {need} for M = {request.M}"
                         f", got {quad_nodes}: fewer fold a smaller mode")
    x, a, _ = _iwasawa_diagonal(request.g)
    w, phase = _unipotent_grid(n, quad_nodes, np.diag(a), request.M)
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
            raise ValueError(
                "node-doubling disagreement in coefficient extraction "
                f"(achieved estimate {disagreement:.3e})")
    twist = sum(m * x[i, i + 1] for i, m in enumerate(request.M))
    return value * cmath.exp(2j * math.pi * twist) if twist else value


def _unipotent_grid(n: int, nodes: int, g: np.ndarray, M: tuple[int, ...]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Grid matrices u g and phases exp(-2 pi i sum_i M_i u_{i,i+1}).

    u runs over the unipotent upper-triangular matrices whose entries u_ij
    (i < j) each take `nodes` values centred on 0: the truncated series is
    symmetric under u -> -u there, so the symmetric grid cancels odd
    truncation noise.  The values k / `nodes` and -k / `nodes` are exact
    negatives, so for n = 2 and the diagonal g that extraction passes (the
    torus rule of `FWRequest`), the matrices at u and -u are exact mirrors,
    whose lattice-sum terms `_shell_sums` computes once (`_mirror_layout`);
    an even count's u = -1/2 has no partner.  The phases have one axis of
    length `nodes` per u_ij, in the order of the grid matrices.
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

def fw_formula(request: FWRequest) -> complex:
    """M-th Fourier coefficient of the completed series E*, factored.

    prod_{n_k >= 2} L*(1, Ad phi_k)^{-1/2} x lambda_{P,Phi}(M, s)
        x prod_k m_k^{-k(n-k)/2} x W_{alpha_{P,Phi}(s)}(M g).

    W is taken in FWRequest's convention: with M g = x' a k in Iwasawa
    form, W(M g) = e(sum_i x'_{i,i+1}) W(a), the phase e(m x_12 + x_23 + ...)
    of g's own x, times the Whittaker function of the diagonal part.

    E* is the lattice sum times the completion factor
    prod_{j<l} L*(1 + s_j - s_l, phi_j x phi_l), so the coefficient of the
    raw lattice sum (what extract_fourier_coefficient measures) is
    fw_formula(request) / forms.completion_factor(...).  Each
    L(1, Ad phi_k) sums the first DEFAULT_TRUNCATION terms of its series.
    """
    part = request.partition
    n = part.n
    if n not in (2, 3):
        raise ValueError("Whittaker factor implemented for n = 2, 3 only")
    m = request.M[0]
    if m < 1:
        raise ValueError("the factored coefficient needs m >= 1")
    lam = eis_hecke_eigenvalue(request.forms, request.s, m)
    power = m ** (-0.5 * 1 * (n - 1))  # k = 1 entry of M
    adj = 1.0 + 0.0j
    for nk, form in zip(part.parts, request.forms.forms):
        if nk >= 2:
            adj *= adjoint_l_at_one(form) ** (-0.5)
    alpha = langlands_parameter(request.forms, request.s)
    m_diag = np.diag([float(m)] + [1.0] * (n - 1))
    x, y, _, _ = iwasawa(GroupElement(m_diag @ request.g.entries))
    if n == 2:
        wval = whittaker_gl2(alpha[0], y[0])
    else:
        wval = whittaker_gl3(alpha, y[1], y[0])
    phase = cmath.exp(2j * math.pi * float(np.trace(x, offset=1)))
    return adj * lam * power * wval * phase


# --------------------------- functional equations ----------------------------


def check_functional_equation(forms: FormSet, s: SpectralPoint, sigma,
                              mode: str = "symbolic") -> FEReport:
    """Check E*-coefficient covariance under a block permutation sigma.

    P is the partition of s; forms of other degrees raise ValueError.
    symbolic: exact equality of the sorted Langlands parameters of
    (P, Phi, s) and (sigma P, sigma Phi, sigma s).  sigma moves each block
    with its form and its s_j, so this holds by construction; it checks the
    bookkeeping of `permuted` and `langlands_parameter`, not the series.
    numeric: fw_formula on both sides at g = 1 and M = (1, ..., 1); the
    report's metadata gives the L-series length, DEFAULT_TRUNCATION.
    """
    sigma = tuple(sigma)
    partition = s.partition
    forms.check_against(partition)
    s2 = s.permuted(sigma)
    forms2 = forms.permuted(sigma)
    if mode == "symbolic":
        left, right = (
            sorted(langlands_parameter(f, x), key=lambda z: (z.real, z.imag))
            for f, x in ((forms, s), (forms2, s2)))
        return FEReport(mode="symbolic", sigma=sigma, passed=left == right,
                        metadata={"partition": partition.parts,
                                  "sigma_partition": s2.partition.parts})
    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    g, big_m = GroupElement.identity(partition.n), (1,) * (partition.n - 1)
    left = fw_formula(FWRequest(partition, forms, big_m, s, g))
    right = fw_formula(FWRequest(s2.partition, forms2, big_m, s2, g))
    abs_residual = abs(left - right)
    rel_residual = abs_residual / max(abs(left), 1e-300)
    return FEReport(mode="numeric", sigma=sigma,
                    passed=bool(rel_residual <= 1e-6),
                    abs_residual=abs_residual, rel_residual=rel_residual,
                    metadata={"truncation": DEFAULT_TRUNCATION})
