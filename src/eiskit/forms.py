"""Automorphic-form data: form specs, deterministic mock Maass forms,
Hecke-eigenvalue extension, and completed L-factors.

Mock forms stand in for genuine Maass cusp forms everywhere; every identity
verified downstream is algebraic in the lambda-values.  Every Dirichlet
series is summed over its first DEFAULT_TRUNCATION terms.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import Partition, SpectralPoint, check_sum_zero
from .specfun import gamma_complex, zeta, zeta_completed

__all__ = [
    "FormSpec",
    "FormSet",
    "const_form",
    "mock_maass_form",
    "lfunction_completed",
    "rankin_selberg_completed",
    "completion_factor",
    "adjoint_l_at_one",
    "form_to_json",
    "form_from_json",
]

DEFAULT_TRUNCATION = 4000  # terms of every truncated Dirichlet series
DEFAULT_PRIME_LIMIT = 4096  # mock Hecke data covers DEFAULT_TRUNCATION
_GOLDEN = 0.6180339887498949  # mock angles: seed * _GOLDEN mod 1 apart


@dataclass(frozen=True)
class FormSpec:
    """One tensor factor: degree, parity, Langlands parameter, Hecke data.

    The data at a prime p is either ``satake[p]``, `degree` parameters
    (what mock forms store), or ``hecke[p]`` = lambda(p) alone, which fixes
    lambda(p^k) only in degree 2 or for k <= 1; `satake` is read first.
    A degree-1 factor is the constant form: alpha = (0,), no hecke or satake.
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
        if self.degree == 1 and (alpha != (0j,) or self.hecke or self.satake):
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


def const_form() -> FormSpec:
    return FormSpec(name="1", degree=1)


@lru_cache(maxsize=64)
def _primes_up_to(n: int) -> tuple[int, ...]:
    sieve = np.ones(max(n + 1, 2), bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return tuple(np.flatnonzero(sieve).tolist())


@lru_cache(maxsize=1)
def _mock_offsets() -> np.ndarray:
    """random.Random(p).random() per prime p <= DEFAULT_PRIME_LIMIT."""
    return np.array([random.Random(p).random()
                     for p in _primes_up_to(DEFAULT_PRIME_LIMIT)])


def _semicircle_angles(u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the density (2/pi) sin^2(theta) on (0, pi), per entry:
    Newton from pi u (a 1e-3 step where df < 1e-9), each entry stopping
    after its first step below 1e-14 or after 60, then clamped."""
    theta, live = math.pi * u, np.arange(len(u))
    for _ in range(60):
        t, v = theta[live], u[live]
        f = (t - np.sin(t) * np.cos(t)) / math.pi - v
        df = (1.0 - np.cos(2.0 * t)) / math.pi
        flat = df < 1e-9
        step = f / np.where(flat, 1.0, df)
        theta[live] = np.where(flat, t + 1e-3, t - step)
        if not len(live := live[flat | ~(np.abs(step) < 1e-14)]):
            break
    return np.clip(theta, 1e-6, math.pi - 1e-6)


def _mock_units(seed: int) -> list[complex]:
    """e^{i theta_p} per prime p, theta_p in (0, pi), shifted by the float
    seed * _GOLDEN, which has no fractional bits from 2^52 / _GOLDEN on."""
    try:
        u = (_mock_offsets() + seed * _GOLDEN) % 1.0
    except OverflowError:
        raise ValueError(f"mock seed {seed} overflows a float") from None
    theta = _semicircle_angles(u)
    # keep lambda = 2 cos(theta) away from zero
    near = np.abs(np.cos(theta)) < 0.0125
    theta[near] = _semicircle_angles((u[near] + 0.04) % 1.0)
    # cos theta + i sin theta has the bits of cmath.exp(1j * theta)
    return (np.cos(theta) + 1j * np.sin(theta)).tolist()


@lru_cache(maxsize=128)
def mock_maass_form(degree: int = 2, seed: int = 1) -> FormSpec:
    """Deterministic synthetic Maass-form data: Satake parameters at every
    prime up to `DEFAULT_PRIME_LIMIT`, and no separate `hecke` entries
    (lambda(p) is their sum).

    Degree 2: (e^{i theta_p}, e^{-i theta_p}), so lambda(p) = 2 cos(theta_p),
    with theta_p semicircle-distributed, clamped away from 0, and distinct
    across moderate seeds at each prime (2 cos is injective on (0, pi)):
    seeds above about 1e9 lose low bits of the per-prime offsets, and from
    about 7.3e15 every seed gives one form.  Degree >= 3: unit-modulus
    parameters with product 1.
    """
    if degree < 2:
        raise ValueError(f"mock forms require degree >= 2, got {degree}")
    rng = random.Random(seed)
    t = 1.0 + 9.0 * rng.random()
    parity = rng.randint(0, 1)
    primes = _primes_up_to(DEFAULT_PRIME_LIMIT)
    if degree == 2:
        alpha = (1j * t, -1j * t)
        satake = {p: (z, z.conjugate())
                  for p, z in zip(primes, _mock_units(seed))}
    else:
        ts = [1.0 + 9.0 * rng.random() for _ in range(degree - 1)]
        alpha = tuple(1j * v for v in ts) + (-1j * sum(ts),)
        satake = {}
        for p in primes:
            prng = random.Random(f"{seed}:{degree}:{p}")
            angles = [2 * math.pi * prng.random() for _ in range(degree - 1)]
            beta = tuple(cmath.exp(1j * a) for a in angles)
            satake[p] = beta + (cmath.exp(-1j * sum(angles)),)
    return FormSpec(
        name=f"mock{degree}:{seed}",
        degree=degree,
        parity=parity,
        alpha=alpha,
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
        raise ValueError(f"form {form.name!r} has no Hecke data at prime {p}")
    else:
        q = [1.0, -form.hecke[p], 1.0][:3 if form.degree == 2 else 2]
    out = [1.0 + 0.0j]
    for j in range(1, k + 1):
        out.append(-sum(q[i] * out[j - i]
                        for i in range(1, min(j, len(q) - 1) + 1)))
    return out


@lru_cache(maxsize=16)
def _hecke_table(form: FormSpec) -> np.ndarray:
    """[0, lambda(1), ..., lambda(T)], T = DEFAULT_TRUNCATION, by one prime
    sieve; read-only, built once per form.

    The pass for p sets lambda(m p^e) = lambda(m) lambda(p^e) for every m
    prime to p.  Passes run over increasing p, so the last pass to write n
    is that of its largest prime, and it reads lambda(m) after m's own last
    pass: every entry ends up right.
    """
    truncation = DEFAULT_TRUNCATION
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

def lfunction_completed(form: FormSpec, s: complex) -> complex:
    """L*(s, phi) for a degree-2 form, by truncated Dirichlet summation;
    requires Re s > 1."""
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
    return pref * _dirichlet_sum(_hecke_table(form), s)


def rankin_selberg_completed(fj: FormSpec, fl: FormSpec, s: complex
                             ) -> complex:
    """Completed L*(s, phi_j x phi_l) with the degenerate cases split off:
    zeta*(s) when both factors are constant, a single completed L-function
    when exactly one is, and the rank-one convolution otherwise.
    """
    s = complex(s)
    if fj.is_constant and fl.is_constant:
        if abs(s) < 1e-9 or abs(s - 1.0) < 1e-9:
            raise ValueError(f"zeta* has a pole at {s}")
        return zeta_completed(s)
    if fj.is_constant:
        return lfunction_completed(fl, s)
    if fl.is_constant:
        return lfunction_completed(fj, s)
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
    acc = _dirichlet_sum(_hecke_table(fj) * _hecke_table(fl), s)
    return pref * zfactor * acc


def completion_factor(forms: FormSet, s: SpectralPoint) -> complex:
    """prod_{j<l} L*(1 + s_j - s_l, phi_j x phi_l); forms of degrees other
    than the parts of ``s.partition`` raise ValueError."""
    forms.check_against(s.partition)
    r = s.partition.r
    value = 1.0 + 0.0j
    for j in range(r):
        for l in range(j + 1, r):
            arg = 1.0 + s.values[j] - s.values[l]
            if abs(arg - 1.0) < 1e-9 and (
                (forms.forms[j].is_constant and forms.forms[l].is_constant)
                or forms.forms[j] == forms.forms[l]
            ):
                raise ValueError(f"L*(s, phi_{j} x phi_{l}) has a pole at "
                                 f"{arg}")
            value *= rankin_selberg_completed(forms.forms[j], forms.forms[l],
                                              arg)
    return value


def adjoint_l_at_one(form: FormSpec) -> complex:
    """Normalization constant Gamma(1/2+a1) Gamma(1/2+a2) L(1, Ad phi).

    The Dirichlet part is the truncated Rankin-Selberg diagonal
    sum_{n<=T} |lambda(n)|^2 / n, T = DEFAULT_TRUNCATION.
    """
    if form.degree != 2:
        raise ValueError(f"degree-2 form required, got degree {form.degree}")
    a1, a2 = form.alpha
    pref = gamma_complex(0.5 + a1) * gamma_complex(0.5 + a2)
    lam = _hecke_table(form)
    return pref * _dirichlet_sum(lam * lam.conj(), 1)


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
        hecke={int(p): _json_pairs([v], complex, f"form spec: hecke {p}")[0]
               for p, v in hecke.items()},
        satake={int(p): _json_pairs(beta, complex, f"form spec: satake {p}")
                for p, beta in satake.items()},
    )
