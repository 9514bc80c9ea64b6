"""Exact certification of affine symmetries of the Eisenstein divisor sum.

The m-th Hecke eigenvalue of a parabolic Eisenstein series is a divisor sum

    sum_j lambda_j(p) * sum_{i in I_j} p^{s_i}        (per prime p)

grouped by blocks I_j of equal attached form.  An affine map mu(s) = A s + b
is a symmetry when the sum is unchanged with s_i replaced by mu_i(s) for all
primes p and all s on the constraint hyperplane, treating the lambda_j(p) as
independent formal symbols.  This module decides that property exactly over
the rationals, enumerates the permutation symmetries, and falsifies random
non-symmetries numerically.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Partition
from .forms import FormSet, _json_pairs

__all__ = [
    "AffineMap",
    "BlockStructure",
    "UniquenessVerdict",
    "decide_affine_symmetry",
    "enumerate_permutation_symmetries",
    "random_falsification",
    "FalsificationReport",
    "affine_map_to_json",
    "affine_map_from_json",
]


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class AffineMap:
    """mu(s) = A s + b with exact rational entries."""

    A: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        a = tuple(tuple(_to_fraction(v) for v in row) for row in self.A)
        bb = tuple(_to_fraction(v) for v in self.b)
        r = len(bb)
        if len(a) != r or any(len(row) != r for row in a):
            raise ValueError("A must be r x r with b of length r")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", bb)

    @property
    def r(self) -> int:
        return len(self.b)

    @classmethod
    def permutation(cls, sigma, shift=None) -> "AffineMap":
        """The map s -> (s_sigma(1), ..., s_sigma(r)) (+ optional shift)."""
        r = len(sigma)
        a = tuple(tuple(Fraction(1 if j == sigma[i] else 0) for j in range(r))
                  for i in range(r))
        b = tuple(_to_fraction(v) for v in shift) if shift else (
            (Fraction(0),) * r)
        return cls(a, b)


@dataclass(frozen=True)
class BlockStructure:
    """Partition of the index set {0, ..., r-1} into consecutive blocks."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if any(v < 1 for v in self.sizes):
            raise ValueError("block sizes must be positive")

    @property
    def r(self) -> int:
        return sum(self.sizes)

    def index_sets(self) -> tuple[tuple[int, ...], ...]:
        out, start = [], 0
        for size in self.sizes:
            out.append(tuple(range(start, start + size)))
            start += size
        return tuple(out)

    def block_of(self, i: int) -> int:
        start = 0
        for j, size in enumerate(self.sizes):
            if start <= i < start + size:
                return j
            start += size
        raise IndexError(i)


@dataclass(frozen=True)
class UniquenessVerdict:
    """Outcome of an exact affine-symmetry decision."""

    accepted: bool
    permutation: tuple[int, ...] | None = None
    witness: dict = field(default_factory=dict)


def decide_affine_symmetry(partition: Partition, blocks: BlockStructure,
                           mu: AffineMap) -> UniquenessVerdict:
    """Exact decision: is mu a divisor-sum symmetry on the hyperplane?

    With the lambda_j(p) treated as independent formal symbols, mu is a
    symmetry iff each row i of A equals e_pi(i) + t_i * w (w the hyperplane
    weight vector, t_i rational) for some block-preserving bijection pi,
    with effective shift b_i = 0, on the hyperplane sum n_i s_i = 0 of the
    partition's parts n_i.
    """
    r = partition.r
    if blocks.r != r or mu.r != r:
        raise ValueError("dimension mismatch between partition, blocks, mu")
    w = partition.parts
    assigned: dict[int, int] = {}
    shifts: list[Fraction] = []
    for i in range(r):
        row = mu.A[i]
        # find pi(i) and t with row = e_pi(i) + t*w; subtracting the basis
        # vector at each candidate position must leave a multiple of w
        match = None
        for j in range(r):
            resid = [row[k] - (1 if k == j else 0) for k in range(r)]
            ts = {resid[k] / w[k] for k in range(r)}
            if len(ts) == 1:
                t = ts.pop()
                if match is None or t == 0:
                    match = (j, t)
            # prefer the t = 0 candidate when several j work (w collinear
            # with a basis-vector difference); any choice is kernel-equivalent
        if match is None:
            return UniquenessVerdict(
                accepted=False,
                witness={"reason": "row is not a shifted basis vector",
                         "row": i,
                         "entries": [[v.numerator, v.denominator]
                                     for v in row]})
        j, t = match
        if blocks.block_of(j) != blocks.block_of(i):
            return UniquenessVerdict(
                accepted=False,
                witness={"reason": "assignment crosses blocks",
                         "row": i, "column": j})
        if j in assigned.values():
            return UniquenessVerdict(
                accepted=False,
                witness={"reason": "assignment is not a bijection",
                         "row": i, "column": j})
        if mu.b[i] != 0:
            return UniquenessVerdict(
                accepted=False,
                witness={"reason": "nonzero effective shift", "row": i,
                         "shift": [mu.b[i].numerator, mu.b[i].denominator]})
        assigned[i] = j
        shifts.append(t)
    pi = tuple(assigned[i] for i in range(r))
    return UniquenessVerdict(accepted=True, permutation=pi,
                             witness={"row_multiples":
                                      [[t.numerator, t.denominator]
                                       for t in shifts]})


def enumerate_permutation_symmetries(partition: Partition, forms: FormSet
                                     ) -> list[tuple[int, ...]]:
    """All sigma in S_r with sigma-permuted parts and forms equal.

    Built as the direct product of the symmetric groups of the equal-(part,
    form) blocks, in lexicographic order.
    """
    forms.check_against(partition)
    blocks: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(partition.parts, forms.forms)):
        blocks.setdefault(key, []).append(i)
    out = []
    for images in itertools.product(
            *(itertools.permutations(idx) for idx in blocks.values())):
        sigma = [0] * partition.r
        for idx, image in zip(blocks.values(), images):
            for i, j in zip(idx, image):
                sigma[i] = j
        out.append(tuple(sigma))
    return sorted(out)


@dataclass(frozen=True)
class FalsificationReport:
    trials: int
    rejections: int
    witnesses: tuple[dict, ...]

    @property
    def all_rejected(self) -> bool:
        return self.rejections == self.trials


def _divisor_sum_side(s_vals, lam, blocks: BlockStructure, p: float) -> complex:
    total = 0j
    for j, idx in enumerate(blocks.index_sets()):
        total += lam[j] * sum(p ** complex(si) for si in
                              (s_vals[i] for i in idx))
    return total


def _random_affine(rng: random.Random, r: int) -> AffineMap:
    def q():
        den = rng.randint(1, 16)
        num = rng.randint(-3 * den, 3 * den)
        return Fraction(num, den)
    a = tuple(tuple(q() for _ in range(r)) for _ in range(r))
    b = tuple(q() for _ in range(r))
    return AffineMap(a, b)


def random_falsification(partition: Partition, blocks: BlockStructure,
                         trials: int, seed: int) -> FalsificationReport:
    """Reject `trials` random affine maps, each with a numeric witness.

    Samples rational maps (denominators <= 16); maps that happen to be
    kernel-equivalent to a block permutation are re-sampled.  Each rejected
    map is additionally falsified numerically: both sides of the divisor
    sum are evaluated at 3 random (s, p) with mock lambda-data (all distinct
    and non zero), confirming disagreement beyond 1e-6.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rng = random.Random(seed)
    r = partition.r
    w = [float(nk) for nk in partition.parts]
    witnesses = []
    rejections = 0
    for trial in range(trials):
        while True:
            mu = _random_affine(rng, r)
            verdict = decide_affine_symmetry(partition, blocks, mu)
            if not verdict.accepted:
                break
        a = [[complex(v) for v in row] for row in mu.A]
        b = [complex(v) for v in mu.b]
        best = None
        for _ in range(3):
            # s on the constraint hyperplane, generic p, distinct lambdas
            s_head = [complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                      for _ in range(r - 1)]
            s_last = -sum(wk * sk for wk, sk in zip(w[:-1], s_head)) / w[-1]
            s_vals = s_head + [s_last]
            mu_s = [sum(a[i][k] * s_vals[k] for k in range(r)) + b[i]
                    for i in range(r)]
            p = rng.uniform(2.0, 10.0)
            lam = [rng.uniform(0.5, 2.0) * (1 + 0.1 * j)
                   for j in range(len(blocks.sizes))]
            lhs = _divisor_sum_side(s_vals, lam, blocks, p)
            rhs = _divisor_sum_side(mu_s, lam, blocks, p)
            gap = abs(lhs - rhs)
            if best is None or gap > best["gap"]:
                best = {"trial": trial, "p": p, "gap": gap,
                        "reason": verdict.witness.get("reason")}
        if best["gap"] > 1e-6:
            rejections += 1
            witnesses.append(best)
        else:
            witnesses.append({**best, "numeric_witness_failed": True})
    return FalsificationReport(trials=trials, rejections=rejections,
                               witnesses=tuple(witnesses))


# ------------------------------- JSON I/O ------------------------------------


def affine_map_to_json(mu: AffineMap) -> str:
    return json.dumps({
        "A": [[[v.numerator, v.denominator] for v in row] for row in mu.A],
        "b": [[v.numerator, v.denominator] for v in mu.b],
    }, sort_keys=True)


def affine_map_from_json(text: str) -> AffineMap:
    """Parse the AffineMap format; ValueError names a malformed field."""
    doc = json.loads(text)
    if type(doc) is not dict or type(doc.get("A")) is not list:
        raise ValueError("map must be a JSON object with a list A")
    a = tuple(_json_pairs(row, Fraction, f"map: row {i} of A")
              for i, row in enumerate(doc["A"]))
    return AffineMap(a, _json_pairs(doc.get("b"), Fraction, "map: b"))
