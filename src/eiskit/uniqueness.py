"""Exact certification of affine symmetries of the Eisenstein divisor sum.

The m-th Hecke eigenvalue of a parabolic Eisenstein series is a divisor sum

    sum_j lambda_j(p) * sum_{i in I_j} p^{s_i}        (per prime p)

grouped by blocks I_j of equal attached form.  An affine map mu(s) = A s + b
is a symmetry when the sum is unchanged with s_i replaced by mu_i(s) for all
primes p and all s on the constraint hyperplane, treating the lambda_j(p) as
independent formal symbols.  This module decides that property exactly over
the rationals, enumerates the permutation symmetries, and falsifies random
non-symmetries exactly: each with a rational point on the hyperplane where
some block's values differ.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
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
        # find pi(i) and t with row = e_pi(i) + t*w: as w > 0, at most one
        # basis vector e_j leaves a multiple of w when subtracted from row
        match = None
        for j in range(r):
            resid = [row[k] - (1 if k == j else 0) for k in range(r)]
            ts = {resid[k] / w[k] for k in range(r)}
            if len(ts) == 1:
                match = (j, ts.pop())
                break
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


# Rational points tried per rejected map before it counts as unrefuted: at a
# random point the block a witness needs ties with probability at most
# |I_j|! / (2 * 10**6 + 1)
_WITNESS_ATTEMPTS = 5


@dataclass(frozen=True)
class FalsificationReport:
    trials: int
    witnesses: tuple[dict, ...]

    @property
    def rejections(self) -> int:
        return len(self.witnesses)

    @property
    def all_rejected(self) -> bool:
        return self.rejections == self.trials


def _random_affine(rng: random.Random, r: int) -> AffineMap:
    def q():
        den = rng.randint(1, 16)
        num = rng.randint(-3 * den, 3 * den)
        return Fraction(num, den)
    a = tuple(tuple(q() for _ in range(r)) for _ in range(r))
    b = tuple(q() for _ in range(r))
    return AffineMap(a, b)


def _exact_witness(partition: Partition, blocks: BlockStructure,
                   mu: AffineMap, rng: random.Random) -> dict | None:
    """A rational s with sum n_i s_i = 0 and a block j whose multisets
    {s_i} and {mu_i(s)}, i in I_j, differ; None if every point tried ties.

    Scaled by n_r * d, d the lcm of mu's denominators, s and mu(s) are
    integer vectors, so they are compared exactly in integer arithmetic.
    """
    w = partition.parts
    d = math.lcm(*(v.denominator for v in itertools.chain(*mu.A, mu.b)))
    a = [[v.numerator * (d // v.denominator) for v in row] for row in mu.A]
    b = [v.numerator * (d // v.denominator) * w[-1] for v in mu.b]
    for _ in range(_WITNESS_ATTEMPTS):
        head = [rng.randint(-10**6, 10**6) for _ in w[:-1]]
        t = [w[-1] * h for h in head] + [-sum(map(operator.mul, w, head))]
        mu_t = [sum(map(operator.mul, row, t), bi) for row, bi in zip(a, b)]
        for j, idx in enumerate(blocks.index_sets()):
            if sorted(d * t[i] for i in idx) != sorted(mu_t[i] for i in idx):
                s = [Fraction(ti, w[-1]) for ti in t]
                return {"block": j,
                        "s": [[v.numerator, v.denominator] for v in s]}
    return None


def random_falsification(partition: Partition, blocks: BlockStructure,
                         trials: int, seed: int) -> FalsificationReport:
    """Reject `trials` random affine maps, each with an exact witness.

    Samples rational maps (denominators <= 16); maps that happen to be
    kernel-equivalent to a block permutation are re-sampled.  Each rejected
    map is falsified exactly at a rational point s on the hyperplane, with
    integer leading entries in [-10**6, 10**6], where some block's multisets
    {s_i} and {mu_i(s)} differ.  A map with no such point is not counted as
    rejected, so a true symmetry that the decision rejected leaves
    `all_rejected` false.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rng = random.Random(seed)
    witnesses = []
    for trial in range(trials):
        while True:
            mu = _random_affine(rng, partition.r)
            verdict = decide_affine_symmetry(partition, blocks, mu)
            if not verdict.accepted:
                break
        found = _exact_witness(partition, blocks, mu, rng)
        if found is not None:
            witnesses.append({"trial": trial, **found,
                              "reason": verdict.witness["reason"]})
    return FalsificationReport(trials=trials, witnesses=tuple(witnesses))


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
