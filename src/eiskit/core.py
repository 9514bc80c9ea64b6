"""Exact data model: partitions, spectral points, rho-shifts, Iwasawa coordinates,
and power functions on GL(n,R).

All rho/parameter bookkeeping is done in exact rational arithmetic
(``fractions.Fraction``); floats only enter when a power function is evaluated
on an actual matrix.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "Partition",
    "SpectralPoint",
    "LanglandsParameterVec",
    "GroupElement",
    "IwasawaCoords",
    "rho_parabolic",
    "rho_borel",
    "rho_phi",
    "rho_parabolic_star",
    "langlands_parameter",
    "iwasawa",
    "power_function",
]

SUM_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Input matrix is singular (or numerically so)."""


@dataclass(frozen=True)
class Partition:
    """Ordered composition n = n_1 + ... + n_r selecting a standard parabolic."""

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

    def block_offsets(self) -> tuple[int, ...]:
        """Cumulative offsets (0, n_1, n_1+n_2, ...)."""
        offs = [0]
        for p in self.parts:
            offs.append(offs[-1] + p)
        return tuple(offs)


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
        total = sum(n * v for n, v in zip(self.partition.parts, vals))
        if abs(total) > SUM_TOL * max(1.0, max(abs(v) for v in vals)):
            raise ValueError(f"weighted coordinate sum is {total}, not 0")

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
        vals = tuple(self.values[sigma[j]] for j in range(self.partition.r))
        return SpectralPoint(vals, self.partition.permuted(sigma))


@dataclass(frozen=True)
class LanglandsParameterVec:
    """Complex n-tuple alpha with sum 0 (floating tolerance 1e-12)."""

    entries: tuple[complex, ...]

    def __post_init__(self):
        entries = tuple(complex(v) for v in self.entries)
        object.__setattr__(self, "entries", entries)
        scale = max(1.0, max(abs(v) for v in entries))
        if abs(sum(entries)) > SUM_TOL * scale:
            raise ValueError(f"parameter entries sum to {sum(entries)}, not 0")


@dataclass(frozen=True)
class GroupElement:
    """An invertible real n x n matrix."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if abs(np.linalg.det(m)) < 1e-300:
            raise SingularMatrixError("matrix is singular")
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


@dataclass(frozen=True)
class IwasawaCoords:
    """Unit upper-triangular x and positive y = (y_1, ..., y_{n-1})."""

    x: np.ndarray = field(repr=False)
    y: tuple[float, ...]

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        n = x.shape[0]
        if not np.allclose(np.diag(x), 1.0):
            raise ValueError("x must have unit diagonal")
        if np.any(np.abs(np.tril(x, -1)) > 1e-12):
            raise ValueError("x must be upper triangular")
        if len(self.y) != n - 1 or any(v <= 0 for v in self.y):
            raise ValueError("y must be n-1 positive reals")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))


def _diag_from_y(y: Sequence[float]) -> list[float]:
    """Diagonal entries (y_1...y_{n-1}, y_1...y_{n-2}, ..., y_1, 1)."""
    return [float(np.prod(y[: len(y) - i])) for i in range(len(y) + 1)]


def rho_borel(n: int) -> tuple[Fraction, ...]:
    """((n-1)/2, (n-3)/2, ..., (1-n)/2) as exact rationals."""
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


def langlands_parameter(partition: Partition, forms, s: SpectralPoint
                        ) -> LanglandsParameterVec:
    """Flattened n-tuple (alpha_{j,k} + s_j), blocks in order.

    ``forms`` is a FormSet: ``forms.forms[j]`` has ``degree`` and
    ``alpha``. Degree-1 factors contribute the single entry s_j.
    """
    forms.check_against(partition)
    if s.partition.parts != partition.parts:
        raise ValueError("spectral point belongs to a different partition")
    entries: list[complex] = []
    for form, sj in zip(forms.forms, s.values):
        for a in form.alpha:
            entries.append(complex(a) + sj)
    return LanglandsParameterVec(tuple(entries))


def iwasawa(g: GroupElement) -> tuple[IwasawaCoords, np.ndarray, float]:
    """Factor g = x * y * d * k (x unit upper triangular, y the positive
    diagonal form, d > 0 central, k orthogonal).

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
    d = t[n - 1, n - 1]
    diag = np.diag(t)
    if np.any(diag <= 0) or d <= 0:
        raise SingularMatrixError("matrix is numerically singular")
    y = tuple(diag[n - 2 - i] / diag[n - 1 - i] for i in range(n - 1))
    x = t / diag[np.newaxis, :]
    return IwasawaCoords(x, y), k, float(d)


def power_function(partition: Partition, s: SpectralPoint, g: GroupElement
                   ) -> complex:
    """|g|^s_P = prod_i |det m_i|^{s_i} via the Iwasawa y-coordinates."""
    if g.n != partition.n:
        raise ValueError(f"matrix is {g.n}x{g.n}, partition has n={partition.n}")
    coords, _, _ = iwasawa(g)
    return power_from_y(partition, s.values, coords.y)


def power_from_y(partition: Partition, s_values: Sequence[complex],
                 y: Sequence[float]) -> complex:
    """Power function evaluated directly on Iwasawa y-coordinates."""
    diag = _diag_from_y(y)
    offs = partition.block_offsets()
    out = 1.0 + 0.0j
    for i, si in enumerate(s_values):
        block_det = 1.0
        for k in range(offs[i], offs[i + 1]):
            block_det *= diag[k]
        out *= complex(block_det) ** complex(si)
    return out
