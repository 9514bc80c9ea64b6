"""Automorphic-form data: form specs, deterministic mock Maass forms,
Hecke-eigenvalue extension, and completed L-factors.

Mock forms stand in for genuine Maass cusp forms everywhere; every identity
verified downstream is algebraic in the lambda-values.  All truncated
Dirichlet evaluations return a (value, bound) pair.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import Partition, SpectralPoint, check_sum_zero
from .specfun import PoleError, gamma_complex, zeta, zeta_completed

__all__ = [
    "FormSpec",
    "FormSet",
    "TruncatedValue",
    "HeckeDataError",
    "const_form",
    "mock_maass_form",
    "hecke_extend",
    "lfunction_completed",
    "rankin_selberg_completed",
    "completion_factor",
    "adjoint_l_at_one",
    "form_to_json",
    "form_from_json",
]

DEFAULT_TRUNCATION = 4000  # terms of a truncated Dirichlet sum by default
DEFAULT_PRIME_LIMIT = 4096  # mock Hecke data covers DEFAULT_TRUNCATION


class HeckeDataError(KeyError):
    """Hecke data is missing for a required prime."""

    def __init__(self, form_name: str, prime: int):
        self.form_name = form_name
        self.prime = prime
        super().__init__(f"form {form_name!r} has no Hecke data at prime {prime}")

    def __str__(self) -> str:
        # KeyError.__str__ would quote the message
        return self.args[0]


class TruncatedValue(NamedTuple):
    value: complex
    bound: float


@dataclass(frozen=True)
class FormSpec:
    """One tensor factor: degree, parity, Langlands parameter, Hecke data.

    ``satake`` optionally stores `degree` unit-circle parameters per prime;
    it makes prime-power eigenvalues well-defined for degree >= 3 mocks.
    Equality compares every field; the hash is that of the name.
    """

    name: str
    degree: int
    parity: int = 0
    alpha: tuple[complex, ...] = (0j,)
    hecke: dict[int, complex] = field(default_factory=dict)
    satake: dict[int, tuple[complex, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if type(self.name) is not str:
            raise ValueError("name must be a string")
        if type(self.degree) is not int or self.degree < 1:
            raise ValueError("degree must be an integer >= 1")
        if type(self.parity) is not int or self.parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        alpha = tuple(complex(a) for a in self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if len(alpha) != self.degree:
            raise ValueError(
                f"alpha has {len(alpha)} entries, degree is {self.degree}"
            )
        if any(len(beta) != self.degree for beta in self.satake.values()):
            raise ValueError(f"satake entries need {self.degree} parameters")
        if not all(cmath.isfinite(v) for v in (*alpha, *self.hecke.values(),
                   *(b for beta in self.satake.values() for b in beta))):
            raise ValueError("alpha, hecke and satake values must be finite")
        check_sum_zero(alpha, "alpha entries")
        if self.degree == 1 and (alpha != (0j,) or self.hecke):
            raise ValueError("degree-1 factor must be the constant function")

    def __hash__(self):
        return hash(self.name)

    @property
    def is_constant(self) -> bool:
        return self.degree == 1


@dataclass(frozen=True)
class FormSet:
    """Ordered tensor product phi_1 x ... x phi_r aligned with a partition."""

    forms: tuple[FormSpec, ...]

    def check_against(self, partition: Partition) -> None:
        if len(self.forms) != partition.r:
            raise ValueError(
                f"{len(self.forms)} forms for a partition of length {partition.r}"
            )
        for j, (f, nj) in enumerate(zip(self.forms, partition.parts)):
            if f.degree != nj:
                raise ValueError(
                    f"factor {j} ({f.name!r}) has degree {f.degree}, part is {nj}"
                )

    def permuted(self, sigma) -> "FormSet":
        r = len(self.forms)
        return FormSet(tuple(self.forms[sigma[j]] for j in range(r)))


def const_form(name: str = "1") -> FormSpec:
    return FormSpec(name=name, degree=1)


def _primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start: n + 1: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(sieve) if v]


_GOLDEN = 0.6180339887498949


def _semicircle_angle(u: float) -> float:
    """Inverse CDF of the density (2/pi) sin^2(theta) on (0, pi)."""
    theta = math.pi * u
    for _ in range(60):
        f = (theta - math.sin(theta) * math.cos(theta)) / math.pi - u
        df = (1.0 - math.cos(2.0 * theta)) / math.pi
        if df < 1e-9:
            theta += 1e-3
            continue
        step = f / df
        theta -= step
        if abs(step) < 1e-14:
            break
    return min(max(theta, 1e-6), math.pi - 1e-6)


def _mock_angle(prime: int, seed: int) -> float:
    """Deterministic angle in (0, pi), distinct across seeds at each prime."""
    base = random.Random(prime).random()
    u = (base + seed * _GOLDEN) % 1.0
    theta = _semicircle_angle(u)
    # keep lambda = 2 cos(theta) away from zero
    if abs(math.cos(theta)) < 0.0125:
        theta = _semicircle_angle((u + 0.04) % 1.0)
    return theta


@lru_cache(maxsize=128)
def mock_maass_form(degree: int = 2, seed: int = 1) -> FormSpec:
    """Deterministic synthetic Maass-form data, at every prime up to
    `DEFAULT_PRIME_LIMIT`.

    Degree 2: lambda(p) = 2 cos(theta_p) with theta_p semicircle-distributed,
    clamped away from 0, and distinct across seeds at each prime (2 cos is
    injective on (0, pi)).  Degree >= 3 uses unit-modulus Satake parameters
    with product 1, so prime-power eigenvalues extend multiplicatively.
    """
    if degree < 2:
        raise ValueError(f"mock forms require degree >= 2, got {degree}")
    rng = random.Random(seed)
    t = 1.0 + 9.0 * rng.random()
    parity = rng.randint(0, 1)
    if degree == 2:
        alpha = (1j * t, -1j * t)
    else:
        ts = [1.0 + 9.0 * rng.random() for _ in range(degree - 1)]
        alpha = tuple(1j * v for v in ts) + (-1j * sum(ts),)
    hecke: dict[int, complex] = {}
    satake: dict[int, tuple[complex, ...]] = {}
    for p in _primes_up_to(DEFAULT_PRIME_LIMIT):
        if degree == 2:
            theta = _mock_angle(p, seed)
            beta = (cmath.exp(1j * theta), cmath.exp(-1j * theta))
        else:
            prng = random.Random(f"{seed}:{degree}:{p}")
            angles = [2.0 * math.pi * prng.random() for _ in range(degree - 1)]
            beta = tuple(cmath.exp(1j * a) for a in angles)
            beta = beta + (cmath.exp(-1j * sum(angles)),)
        satake[p] = beta
        hecke[p] = sum(beta)
    return FormSpec(
        name=f"mock{degree}:{seed}",
        degree=degree,
        parity=parity,
        alpha=alpha,
        hecke=hecke,
        satake=satake,
    )


def _factorize(m: int) -> dict[int, int]:
    if m < 1:
        raise ValueError(f"need a positive integer, got {m}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _local_series(form: FormSpec, p: int, k: int) -> list[complex]:
    """lambda(1), lambda(p), ..., lambda(p^k): the power series of 1/Q(x).

    Q(x) = prod (1 - beta x) over the stored Satake parameters at p; with
    Hecke data only, Q(x) = 1 - lambda(p) x + x^2 in degree 2, while in
    degree >= 3 lambda(p) fixes only Q's linear term, so only k <= 1 is
    defined.  The constant form has the zeta factor Q(x) = 1 - x.
    """
    if form.is_constant:
        q = [1.0, -1.0]
    elif p in form.satake:
        q = [1.0 + 0.0j]
        for b in form.satake[p]:
            q = [c - b * d for c, d in zip(q + [0j], [0j] + q)]
    elif p not in form.hecke or (form.degree > 2 and k > 1):
        raise HeckeDataError(form.name, p)
    else:
        q = [1.0, -form.hecke[p], 1.0][:3 if form.degree == 2 else 2]
    out = [1.0 + 0.0j]
    for j in range(1, k + 1):
        out.append(-sum(q[i] * out[j - i]
                        for i in range(1, min(j, len(q) - 1) + 1)))
    return out


def hecke_extend(form: FormSpec, m: int) -> complex:
    """Multiplicative extension of the stored prime eigenvalues to lambda(m)."""
    out = 1.0 + 0.0j
    for p, k in _factorize(m).items():
        out *= _local_series(form, p, k)[k]
    return out


@lru_cache(maxsize=16)
def _hecke_table(form: FormSpec, truncation: int) -> np.ndarray:
    """[0, lambda(1), ..., lambda(T)], T = truncation, by one prime sieve;
    read-only, built once per (form, T).

    The pass for p sets lambda(m p^e) = lambda(m) lambda(p^e) for every m
    prime to p.  Passes run over increasing p, so the last pass to write n
    is that of its largest prime, and it reads lambda(m) after m's own last
    pass: every entry ends up right.
    """
    if truncation < 1:
        raise ValueError(f"need truncation >= 1, got {truncation}")
    lam = [0j] * (truncation + 1)
    lam[1] = 1.0 + 0.0j
    for p in _primes_up_to(truncation):
        k = 1
        while p ** (k + 1) <= truncation:
            k += 1
        series = _local_series(form, p, k)
        for e in range(1, k + 1):
            pe = p**e
            for m in range(1, truncation // pe + 1):
                if m % p:
                    lam[m * pe] = lam[m] * series[e]
    table = np.array(lam, dtype=complex)
    table.flags.writeable = False
    return table


def _dirichlet_sum(coeffs: np.ndarray, s: complex) -> complex:
    """sum_{1 <= n < len(coeffs)} coeffs[n] n^{-s}."""
    n = np.arange(1, len(coeffs))
    return complex((coeffs[1:] * np.exp(-s * np.log(n))).sum())


# --------------------------- completed L-factors ----------------------------

def _divisor_tail(truncation: int, sigma: float, power: int) -> float:
    """Estimate of sum_{n>T} d(n)^power n^{-sigma}.

    Uses the crude uniform bounds d(n) <= 16 n^{1/4} (power 1) and
    d(n)^2 <= 256 n^{1/2} (power 2), valid far beyond desk scale; falls back
    to a log-integral estimate when sigma is too close to the abscissa.
    """
    t = float(truncation)
    if power == 1:
        if sigma > 1.3:
            return 16.0 * t ** (1.25 - sigma) / (sigma - 1.25)
        return t ** (1.0 - sigma) * (math.log(t) / max(sigma - 1.0, 1e-9)
                                     + 1.0 / max(sigma - 1.0, 1e-9) ** 2)
    if sigma > 1.55:
        return 256.0 * t ** (1.5 - sigma) / (sigma - 1.5)
    return t ** (1.0 - sigma) * (1.0 + math.log(t)) ** 3 / max(sigma - 1.0, 1e-9)


def lfunction_completed(form: FormSpec, s: complex, truncation: int
                        ) -> TruncatedValue:
    """L*(s, phi) for a degree-2 form, by truncated Dirichlet summation.

    Requires Re s > 1.  The returned bound covers the dropped tail using
    |lambda(n)| <= d(n).
    """
    if form.degree != 2:
        raise ValueError(f"degree-2 form required, got degree {form.degree}")
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError(f"direct summation needs Re s > 1, got {s}")
    a1, a2 = form.alpha
    eps = form.parity
    pref = (
        cmath.exp(-s * math.log(math.pi))
        * gamma_complex(0.5 * (s + a1 + eps))
        * gamma_complex(0.5 * (s + a2 + eps))
    )
    acc = _dirichlet_sum(_hecke_table(form, truncation), s)
    bound = abs(pref) * 2.0 * _divisor_tail(truncation, s.real, power=1)
    return TruncatedValue(pref * acc, bound)


def rankin_selberg_completed(fj: FormSpec, fl: FormSpec, s: complex,
                             truncation: int) -> TruncatedValue:
    """Completed L*(s, phi_j x phi_l) with the degenerate cases split off:
    zeta*(s) when both factors are constant, a single completed L-function
    when exactly one is, and the rank-one convolution otherwise.
    """
    s = complex(s)
    if fj.is_constant and fl.is_constant:
        if abs(s) < 1e-9 or abs(s - 1.0) < 1e-9:
            raise PoleError(s, "zeta*")
        return TruncatedValue(zeta_completed(s), 1e-12)
    if fj.is_constant:
        return lfunction_completed(fl, s, truncation)
    if fl.is_constant:
        return lfunction_completed(fj, s, truncation)
    if fj.degree != 2 or fl.degree != 2:
        raise ValueError("convolution is implemented for degrees 1 and 2 only")
    if s.real <= 1.0:
        raise ValueError(f"direct summation needs Re s > 1, got {s}")
    # Gamma factor over all parameter pairs; Dirichlet part via the rank-one
    # convolution identity  L(s, f x g) = zeta(2s) sum lambda_f(n) lambda_g(n) n^{-s}.
    pref = cmath.exp(-2.0 * s * math.log(math.pi))
    for aj in fj.alpha:
        for al in fl.alpha:
            pref *= gamma_complex(0.5 * (s + aj + al))
    zfactor = zeta(2.0 * s)
    acc = _dirichlet_sum(_hecke_table(fj, truncation)
                         * _hecke_table(fl, truncation), s)
    bound = abs(pref * zfactor) * 2.0 * _divisor_tail(truncation, s.real, power=2)
    return TruncatedValue(pref * zfactor * acc, bound)


def completion_factor(partition: Partition, forms: FormSet, s: SpectralPoint,
                      truncation: int) -> TruncatedValue:
    """prod_{j<l} L*(1 + s_j - s_l, phi_j x phi_l)."""
    forms.check_against(partition)
    r = partition.r
    value = 1.0 + 0.0j
    rel_bound = 0.0
    for j in range(r):
        for l in range(j + 1, r):
            arg = 1.0 + s.values[j] - s.values[l]
            if abs(arg - 1.0) < 1e-9 and (
                (forms.forms[j].is_constant and forms.forms[l].is_constant)
                or forms.forms[j] == forms.forms[l]
            ):
                raise PoleError(arg, f"L*(s, phi_{j} x phi_{l})")
            v, b = rankin_selberg_completed(
                forms.forms[j], forms.forms[l], arg, truncation
            )
            value *= v
            if abs(v) > 0:
                rel_bound += b / abs(v)
    return TruncatedValue(value, abs(value) * rel_bound)


def adjoint_l_at_one(form: FormSpec, truncation: int) -> TruncatedValue:
    """Normalization constant Gamma(1/2+a1) Gamma(1/2+a2) L(1, Ad phi).

    The Dirichlet part is the truncated Rankin-Selberg diagonal
    sum_{n<=T} |lambda(n)|^2 / n.  Its partial sums grow slowly, so the
    reported bound is a drift estimate over a doubling window rather than an
    absolute tail bound; the value is used only as a normalization constant.
    """
    if form.degree != 2:
        raise ValueError(f"degree-2 form required, got degree {form.degree}")
    a1, a2 = form.alpha
    pref = gamma_complex(0.5 + a1) * gamma_complex(0.5 + a2)
    lam = _hecke_table(form, truncation)
    acc = _dirichlet_sum(lam * lam.conj(), 1)
    drift = 2.0 * abs(acc) * math.log(2.0) / math.log(max(truncation, 3))
    return TruncatedValue(pref * acc, abs(pref) * drift)


# ------------------------------ JSON format ---------------------------------

def form_to_json(form: FormSpec) -> str:
    """Serialize to the documented form-spec format (bit-exact round trip)."""
    doc = {
        "name": form.name,
        "degree": form.degree,
        "parity": form.parity,
        "alpha": [[a.real, a.imag] for a in form.alpha],
        "hecke": {str(p): [v.real, v.imag] for p, v in sorted(form.hecke.items())},
        "satake": {str(p): [[b.real, b.imag] for b in beta]
                   for p, beta in sorted(form.satake.items())},
    }
    return json.dumps(doc, indent=None, separators=(",", ":"))


_JSON_NUMBERS = (int, float)


def _json_pairs(v, make, what: str) -> tuple:
    """make(x, y) for each [x, y] pair of JSON numbers in the list `v`."""
    if type(v) is list and all([
            type(p) is list and len(p) == 2 and type(p[0]) in _JSON_NUMBERS
            and type(p[1]) in _JSON_NUMBERS for p in v]):
        try:
            return tuple([make(x, y) for x, y in v])
        except (TypeError, OverflowError, ZeroDivisionError):
            pass
    raise ValueError(f"{what} must be [x, y] pairs for {make.__name__}(x, y)")


def _json_hecke(hecke: dict) -> dict[int, complex]:
    """The hecke object's [x, y] values read in one pass; a malformed value
    is looked up again so that the error names its prime."""
    try:
        values = _json_pairs(list(hecke.values()), complex, "form spec: hecke")
    except ValueError:
        for p, v in hecke.items():
            _json_pairs([v], complex, f"form spec: hecke {p}")
        raise
    return dict(zip(map(int, hecke), values))


def form_from_json(text: str) -> FormSpec:
    """Parse the form-spec format; ValueError names a malformed field."""
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError("form spec must be a JSON object")
    hecke, satake = doc.get("hecke", {}), doc.get("satake", {})
    if not all(type(t) is dict and all(map(str.isdecimal, t))
               for t in (hecke, satake)):
        raise ValueError("form spec: hecke and satake must have integer keys")
    return FormSpec(
        name=doc.get("name"),
        degree=doc.get("degree"),
        parity=doc.get("parity", 0),
        alpha=_json_pairs(doc.get("alpha"), complex, "form spec: alpha"),
        hecke=_json_hecke(hecke),
        satake={int(p): _json_pairs(beta, complex, f"form spec: satake {p}")
                for p, beta in satake.items()},
    )
