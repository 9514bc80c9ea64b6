"""Exact data model: partitions, spectral points, rho-shifts, Iwasawa coordinates,
and power functions on GL(n,R).

All rho/parameter bookkeeping is done in exact rational arithmetic
(``fractions.Fraction``); floats only enter when a power function is evaluated
on an actual matrix.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "Partition",
    "SpectralPoint",
    "GroupElement",
    "rho_parabolic",
    "rho_borel",
    "rho_phi",
    "rho_parabolic_star",
    "langlands_parameter",
    "iwasawa",
    "power_function",
]

SUM_TOL = 1e-12


def check_sum_zero(values: Sequence[complex], what: str) -> None:
    """Raise ValueError unless complex `values` sum to 0 within SUM_TOL.

    The tolerance is relative to the largest real or imaginary part (at
    least 1).  Sup norms throughout: abs() of a finite complex can overflow;
    a sum that overflows is rejected.
    """
    scale = max(1.0, *(abs(x) for v in values for x in (v.real, v.imag)))
    total = sum(values)
    if not (cmath.isfinite(total)
            and max(abs(total.real), abs(total.imag)) <= SUM_TOL * scale):
        raise ValueError(f"{what} sum to {total}, not 0")


@dataclass(frozen=True)
class Partition:
    """Ordered composition n = n_1 + ... + n_r selecting a standard parabolic.

    It also serves as the blocks of `uniqueness`: r blocks of consecutive
    slots, n slots in all.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if len(parts) < 1:
            raise ValueError("partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"all parts must be >= 1, got {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        return len(self.parts)

    def permuted(self, sigma: Sequence[int]) -> "Partition":
        """Apply sigma in S_r: parts -> (n_sigma(1), ..., n_sigma(r)).

        ``sigma`` is 0-based: new part j is old part sigma[j].
        """
        if sorted(sigma) != list(range(self.r)):
            raise ValueError(f"not a permutation of range({self.r}): {sigma}")
        return Partition(tuple(self.parts[sigma[j]] for j in range(self.r)))

    def index_sets(self) -> tuple[tuple[int, ...], ...]:
        """The consecutive index runs ((0, ..., n_1 - 1), (n_1, ...), ...)."""
        out, start = [], 0
        for p in self.parts:
            out.append(tuple(range(start, start + p)))
            start += p
        return tuple(out)


@dataclass(frozen=True)
class SpectralPoint:
    """Complex r-tuple s with sum(n_i * s_i) = 0, attached to a partition."""

    values: tuple[complex, ...]
    partition: Partition

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not all(cmath.isfinite(v) for v in vals):
            raise ValueError(f"coordinates must be finite, got {vals}")
        if len(vals) != self.partition.r:
            raise ValueError(
                f"expected {self.partition.r} coordinates, got {len(vals)}"
            )
        check_sum_zero([n * v for n, v in zip(self.partition.parts, vals)],
                       "weighted coordinates")

    @classmethod
    def from_leading(
        cls, partition: Partition, leading: Sequence[complex]
    ) -> "SpectralPoint":
        """Build a point from s_1..s_{r-1}; the last coordinate is solved for."""
        leading = [complex(v) for v in leading]
        if len(leading) != partition.r - 1:
            raise ValueError(
                f"need {partition.r - 1} leading coordinates, got {len(leading)}"
            )
        head = sum(n * v for n, v in zip(partition.parts, leading))
        last = -head / partition.parts[-1]
        return cls(tuple(leading) + (last,), partition)

    def permuted(self, sigma: Sequence[int]) -> "SpectralPoint":
        partition = self.partition.permuted(sigma)
        return SpectralPoint(tuple(self.values[i] for i in sigma), partition)


@dataclass(frozen=True)
class GroupElement:
    """An invertible real n x n matrix."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        # a determinant beyond the float range reads inf, which is not
        # singular; numpy's overflow warning would be a second stderr line
        with np.errstate(over="ignore"):
            det = np.linalg.det(m)
        if abs(det) < 1e-300:
            raise ValueError("matrix is singular")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(np.eye(n))

    @classmethod
    def from_iwasawa(cls, x: np.ndarray, y: Sequence[float]) -> "GroupElement":
        """Assemble x * diag-form(y); y = (y_1, ..., y_{n-1})."""
        return cls(np.array(x, dtype=float) @ np.diag(_diag_from_y(y)))


def _diag_from_y(y: Sequence[float]) -> list[float]:
    """Diagonal entries (y_1...y_{n-1}, y_1...y_{n-2}, ..., y_1, 1)."""
    return [float(np.prod(y[: len(y) - i])) for i in range(len(y) + 1)]


@functools.lru_cache(maxsize=16)
def rho_borel(n: int) -> tuple[Fraction, ...]:
    """((n-1)/2, (n-3)/2, ..., (1-n)/2) as exact rationals; cached."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(Fraction(n - 1 - 2 * i, 2) for i in range(n))


def rho_parabolic(partition: Partition) -> tuple[Fraction, ...]:
    """Rational r-tuple: (n-n_1)/2, then (n-n_j)/2 - (n_1+...+n_{j-1})."""
    n = partition.n
    out = []
    consumed = 0
    for nj in partition.parts:
        out.append(Fraction(n - nj, 2) - consumed)
        consumed += nj
    return tuple(out)


def rho_phi(partition: Partition) -> tuple[Fraction, ...]:
    """Concatenation of the block-level Borel shifts, one run per part."""
    out: list[Fraction] = []
    for nj in partition.parts:
        out.extend(rho_borel(nj))
    return tuple(out)


def rho_parabolic_star(partition: Partition) -> tuple[Fraction, ...]:
    """rho_P expanded to length n: rho_P(j) repeated n_j times."""
    rp = rho_parabolic(partition)
    out: list[Fraction] = []
    for nj, v in zip(partition.parts, rp):
        out.extend([v] * nj)
    return tuple(out)


def langlands_parameter(forms, s: SpectralPoint) -> tuple[complex, ...]:
    """Flattened n-tuple (alpha_{j,k} + s_j), blocks in order; its sum is 0
    within SUM_TOL, else ValueError.

    ``forms`` is a FormSet: ``forms.forms[j]`` has ``degree`` and
    ``alpha``; forms of degrees other than the parts of ``s.partition``
    raise ValueError.  Degree-1 factors contribute the single entry s_j.
    """
    forms.check_against(s.partition)
    entries: list[complex] = []
    for form, sj in zip(forms.forms, s.values):
        for a in form.alpha:
            entries.append(complex(a) + sj)
    check_sum_zero(entries, "parameter entries")
    return tuple(entries)


def iwasawa(g: GroupElement) -> tuple[np.ndarray, tuple[float, ...],
                                      np.ndarray, float]:
    """Factor g = x * y * d * k and return (x, y, k, d): x unit upper
    triangular, y = (y_1, ..., y_{n-1}) > 0 the diagonal form, d > 0
    central, k orthogonal.

    Implemented as an orthogonal-triangular factorization of the reversed
    transpose, which orthogonalizes the rows of g from the bottom up.  Any
    sign of det g is absorbed into k.
    """
    m = g.entries
    n = g.n
    rev = np.arange(n)[::-1]
    # (J m)^T = Q R  =>  m = J R^T Q^T; conjugating R^T by J gives upper tri.
    q, r = np.linalg.qr(m[rev, :].T)
    t = r.T[np.ix_(rev, rev)]
    k = q.T[rev, :]
    # force positive diagonal on t
    signs = np.sign(np.diag(t))
    signs[signs == 0] = 1.0
    t = t * signs[np.newaxis, :]
    k = signs[:, np.newaxis] * k
    diag = np.diag(t)
    # a positive finite diagonal makes x's own diagonal exactly 1 (qr's R
    # is exactly 0 below it); at the ends of the float range an entry
    # overflows, or a ratio y_i underflows to 0 or overflows (Python floats
    # divide to inf without a warning)
    if not np.all(np.isfinite(diag) & (diag > 0)):
        raise ValueError("matrix is numerically singular")
    y = tuple(float(diag[n - 2 - i]) / float(diag[n - 1 - i])
              for i in range(n - 1))
    if not all(y):
        raise ValueError("y must be n-1 positive reals")
    if not all(map(math.isfinite, y)):
        raise ValueError("y is beyond the float range")
    return t / diag[np.newaxis, :], y, k, float(diag[n - 1])


def power_function(s: SpectralPoint, g: GroupElement) -> complex:
    """|g|^s_P = prod_i |det m_i|^{s_i}, P the partition of s, via the Iwasawa
    y-coordinates: library API, and the lattice kernel's reference."""
    if g.n != s.partition.n:
        raise ValueError(f"matrix is {g.n}x{g.n}, partition has "
                         f"n={s.partition.n}")
    y = iwasawa(g)[1]
    # a product of the y_i, or a power of it, may pass the float range
    with np.errstate(over="ignore"):
        diag = _diag_from_y(y)
    out = 1.0 + 0.0j
    try:
        for idx, si in zip(s.partition.index_sets(), s.values):
            block_det = math.prod(diag[k] for k in idx)
            out *= complex(block_det) ** complex(si)
    except (OverflowError, ZeroDivisionError):
        out = complex("nan")
    if not cmath.isfinite(out):
        raise ValueError("|g|^s is beyond the float range")
    return out
