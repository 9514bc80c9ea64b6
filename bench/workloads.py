"""Workload inputs, op execution and correctness checks.

`generate` runs during set-up: it draws one pass worth of ops from the seed
and writes any input files they need.  Ops are plain JSON data; `Runner`
turns them into calls into eiskit's public API or `cli.dispatch`, and
`check` compares what the calls returned with references computed outside
the timed passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_values.json"

# relative tolerance of a lattice sum against its recorded value
RECORDED_TOL = 1e-12
# relative errors below this are not resolved by any check here
REL_ERR_FLOOR = 1e-12

GL3_EVAL_HEIGHT = 12
# a point where jacquet_oracle certifies whittaker_gl3: Langlands parameter
# alpha and y = (y1, y2)
ORACLE_ALPHA, ORACLE_Y = (2.0, 0.0, -2.0), (1.0, 1.0)

# the documented seed defects, as (signature, description): each op carries
# its id, and a failure counts as expected only when its reason contains
# every string of the signature
DEFECTS = {
    "D1": (("QuadratureError",),
           "QuadratureError escapes dispatch (extract, GL(2), few nodes)"),
    "D2": (("TypeError", "np.True_"), "numeric check-fe with a nonzero "
           "residual raises TypeError: np.True_ (passed is an np.bool_)"),
    "D3": (("no Hecke data",), "form JSON drops satake data: degree-3 form "
           "exits 2 at lambda(4) where mock:2 exits 0"),
}


def is_expected(spec: dict, reason: str) -> bool:
    """Whether a failure of op `spec` is its documented defect."""
    defect = spec.get("defect")
    return bool(defect) and all(sig in reason for sig in DEFECTS[defect][0])

REPORTING = {"params", "check-fe", "extract", "eval", "uniqueness",
             "falsify", "selftest"}


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _cx(pair) -> complex:
    return complex(pair[0], pair[1])


def _cli_num(z: complex) -> str:
    return repr(float(z.real)) if z.imag == 0 else repr(complex(z)).strip("()")


# ------------------------------- generation ---------------------------------


def generate(workload: str, seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "gl3-eval":
        return _gen_gl3_eval(rng)
    if workload == "cli-mix":
        return _gen_cli_mix(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _gen_gl3_eval(rng: random.Random) -> list[dict]:
    refs = load_references()["gl3_eval"]
    return [{"id": "eval3-real", "kind": "eval3",
             **rng.choice(refs["real_diagonal"])},
            {"id": "eval3-complex", "kind": "eval3",
             **rng.choice(refs["complex_unipotent"])}]


def _smooth_number(rng: random.Random, limit: int) -> int:
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    m = 1
    while True:
        p = rng.choice(primes)
        if m * p > limit:
            return m
        m *= p


def _gen_cli_mix(rng: random.Random, workdir: Path) -> list[dict]:
    from eiskit.forms import form_to_json, mock_maass_form
    from eiskit.uniqueness import AffineMap, affine_map_to_json

    workdir.mkdir(parents=True, exist_ok=True)
    form2 = workdir / "form2.json"
    form2.write_text(form_to_json(mock_maass_form(2, rng.randint(1, 99))))
    form3 = workdir / "form3.json"
    form3.write_text(form_to_json(mock_maass_form(3, 2)))
    perm = rng.sample(range(3), 3)
    accept_map = workdir / "map_accept.json"
    accept_map.write_text(affine_map_to_json(AffineMap.permutation(perm)))
    shift = Fraction(rng.randint(1, 7), 8)
    reject_map = workdir / "map_reject.json"
    reject_map.write_text(affine_map_to_json(
        AffineMap.permutation((0, 1, 2), shift=(shift, 0, 0))))

    parts = []
    while sum(parts) < 3 or (len(parts) < 2 and sum(parts) < 8):
        parts.append(rng.randint(1, 3))
    partition = ",".join(map(str, parts))
    mock = lambda: f"mock:{rng.randint(1, 99)}"  # noqa: E731
    borel6 = [complex(round(rng.uniform(-0.5, 0.5), 3),
                      round(rng.uniform(-2, 2), 3)) for _ in range(5)]
    s3 = [round(rng.uniform(1.4, 2.2), 3)]
    s3.append(round(rng.uniform(-0.15, 0.15), 3))
    ops = []

    def op(op_id, argv, expect=(0,), check=None, defect=None):
        if "--s" in argv:  # "--s=-0.3+1j" keeps a leading minus a value
            i = argv.index("--s")
            argv[i:i + 2] = [f"--s={argv[i + 1]}"]
        ops.append({"id": op_id, "kind": "cli", "argv": argv,
                    "expect": list(expect), "check": check or {},
                    "defect": defect})

    for kind in ("borel", "phi", "parabolic_star", "parabolic"):
        op(f"rho-{kind}", ["rho", "--partition", partition, "--kind", kind],
           check={"rho": kind,
                  "n": len(parts) if kind == "parabolic" else sum(parts)})
    op("params-mock", ["params", "--partition", "1,2", "--forms",
                       "const," + mock(),
                       "--s", str(round(rng.uniform(0.1, 1.5), 3))],
       check={"alpha_sum": True})
    op("params-borel3", ["params", "--partition", "1,1,1", "--forms",
                         "const,const,const",
                         "--s", ",".join(_cli_num(v) for v in borel6[:2])],
       check={"alpha_sum": True})
    m6 = rng.randint(500_000, 1_000_000)
    op("divisor-borel6", ["divisor-sum", "--partition", "1,1,1,1,1,1",
                          "--s", ",".join(_cli_num(v) for v in borel6),
                          "--m", str(m6)],
       check={"divisor_borel": [_c(v) for v in borel6], "m": m6})
    op("divisor-mock", ["divisor-sum", "--partition", "1,2", "--forms",
                        "const," + mock(),
                        "--s", str(round(rng.uniform(0.1, 1.5), 3)),
                        "--m", str(_smooth_number(rng, 1_000_000))])
    op("divisor-mock3", ["divisor-sum", "--partition", "3,1", "--forms",
                         "mock:2,const", "--s", "0.2", "--m", "4"])
    op("divisor-form3-json", ["divisor-sum", "--partition", "3,1", "--forms",
                              f"{form3},const", "--s", "0.2", "--m", "4"],
       check={"same_as": "divisor-mock3"}, defect="D3")
    sigma3 = ",".join(str(v + 1) for v in rng.sample(range(3), 3))
    op("fe-symbolic-borel3", ["check-fe", "--partition", "1,1,1", "--forms",
                              "const,const,const", "--s",
                              f"{s3[0]},{s3[1]}", "--sigma", sigma3],
       check={"passed": True})
    op("fe-symbolic-mock22", ["check-fe", "--partition", "2,2", "--forms",
                              f"{mock()},{mock()}",
                              "--s", str(round(rng.uniform(0.1, 1.0), 3)),
                              "--sigma", "2,1"], check={"passed": True})
    op("fe-symbolic-form-json", ["check-fe", "--partition", "1,2", "--forms",
                                 f"const,{form2}", "--s",
                                 str(round(rng.uniform(0.1, 1.0), 3)),
                                 "--sigma", "2,1"], check={"passed": True})
    # a numeric check with a nonzero residual hits D2, which the D2 op
    # counts once per pass; the others use permutations whose two sides
    # the program evaluates identically (swap for GL(2), reversal for GL(3),
    # identity for the mock-form blocks)
    op("fe-numeric-gl2", ["check-fe", "--partition", "1,1", "--forms",
                          "const,const", "--s",
                          str(round(rng.uniform(1.1, 2.5), 3)),
                          "--sigma", "2,1", "--mode", "numeric"],
       check={"passed": True})
    op("fe-numeric-gl3", ["check-fe", "--partition", "1,1,1", "--forms",
                          "const,const,const", "--s", f"{s3[0]},{s3[1]}",
                          "--sigma", "3,2,1", "--mode", "numeric"],
       check={"passed": True})
    for part, forms in (("1,2", f"const,{mock()}"), ("2,1", f"{mock()},const")):
        op(f"fe-numeric-mock-{part}", [
            "check-fe", "--partition", part, "--forms", forms,
            "--s", str(round(rng.uniform(0.1, 1.0), 3)),
            "--sigma", "1,2", "--mode", "numeric"], check={"passed": True})
    op("fe-numeric-mock-2", ["check-fe", "--partition", "2", "--forms",
                             mock(), "--sigma", "1", "--mode", "numeric"],
       check={"passed": True})
    op("fe-numeric-mock-swap", ["check-fe", "--partition", "2,1", "--forms",
                                "mock:3,const", "--s", "0.4", "--sigma", "2,1",
                                "--mode", "numeric"],
       expect=(0, 1), defect="D2")
    op("extract-gl2-readme", ["extract", "--partition", "1,1", "--s",
                              "1.5,-1.5", "--m", "1", "--height", "500",
                              "--nodes", "64"],
       check={"closed_form": [1, 1.5], "recorded": "extract-gl2-readme"})
    op("extract-gl2-s2-m2", ["extract", "--partition", "1,1", "--s", "2",
                             "--m", "2", "--height", "500", "--nodes", "64"],
       check={"closed_form": [2, 2.0], "recorded": "extract-gl2-s2-m2"})
    op("extract-gl2-few-nodes", ["extract", "--partition", "1,1", "--s",
                                 "1.5", "--m", "5", "--height", "10",
                                 "--nodes", "4"],
       expect=(1, 2), defect="D1")
    op("eval-gl2-readme", ["eval", "--partition", "1,1", "--s", "1.5,-1.5",
                           "--height", "100"],
       check={"fourier_gl2": 1.5, "recorded": "eval-gl2-readme"})
    op("uniqueness-accept", ["uniqueness", "--partition", "1,1,1", "--map",
                             str(accept_map)],
       check={"accepted": True, "permutation": perm})
    op("uniqueness-reject", ["uniqueness", "--partition", "1,1,1", "--map",
                             str(reject_map)], expect=(1,),
       check={"accepted": False})
    trials = rng.randint(10, 30)
    op("falsify", ["falsify", "--partition", "1,1,1", "--trials", str(trials),
                   "--seed", str(rng.randint(0, 10_000))],
       check={"all_rejected": trials})
    op("selftest", ["selftest"], check={"passed": True})
    op("bad-partition", ["rho", "--partition", "1,x"], expect=(2,))
    op("bad-sigma", ["check-fe", "--partition", "1,1", "--forms",
                     "const,const", "--s", "1.5", "--sigma", "1,1"],
       expect=(2,))
    op("bad-map", ["uniqueness", "--partition", "1,1,1", "--map",
                   str(workdir / "absent.json")], expect=(2,))
    op("bad-mock-seed", ["params", "--partition", "1,2", "--forms",
                         "const,mock:x", "--s", "0.5"], expect=(2,))
    return ops


# -------------------------------- execution ---------------------------------


class Runner:
    """Turns op data into zero-argument calls; records what each returned."""

    def __init__(self, ops: list[dict]):
        import numpy as np

        from eiskit import cli
        from eiskit.core import GroupElement, Partition, SpectralPoint

        self.ops = ops
        self.calls = []
        borel = Partition((1, 1, 1))
        for spec in ops:
            if spec["kind"] == "cli":
                self.calls.append(self._cli_call(cli, spec["argv"]))
                continue
            s = SpectralPoint(tuple(_cx(v) for v in spec["s"]), borel)
            g = GroupElement(np.array(spec["g"], dtype=float))
            self.calls.append(self._eval_call(g, s))

    @staticmethod
    def _cli_call(cli, argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.dispatch(list(argv))
            return {"code": code, "out": out.getvalue(),
                    "err": err.getvalue()}
        return call

    @staticmethod
    def _eval_call(g, s):
        import eiskit.eisenstein as eis

        def call():
            value, tail = eis.eval_eisenstein(3, g, s, GL3_EVAL_HEIGHT)
            return {"value": value, "tail": tail}
        return call

    def run(self, index: int) -> dict:
        """Run op `index`; an exception that escapes is part of the record."""
        try:
            return self.calls[index]()
        except Exception as exc:  # the op failed; checks classify it
            return {"exception": f"{type(exc).__name__}: {exc}"}


# --------------------------------- checks -----------------------------------


def _rel(got: complex, want: complex) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


class Checker:
    """Classifies op records; references are computed once per op id."""

    def __init__(self):
        self.recorded = load_references()["gl2"]
        self.rel_errors: list[float] = []
        self.notes: list[str] = []
        self._values: dict[str, complex] = {}
        self._ref_cache: dict[str, object] = {}

    def _ref(self, key: str, make):
        if key not in self._ref_cache:
            self._ref_cache[key] = make()
        return self._ref_cache[key]

    def _err(self, got: complex, want: complex, tol: float, what: str):
        rel = _rel(got, want)
        self.rel_errors.append(rel)
        if not rel <= tol:
            return f"{what}: relative error {rel:.3e} > {tol:.0e}"
        return None

    def classify(self, spec: dict, record: dict) -> tuple[bool, str | None]:
        """(failed, reason) for one execution of op `spec`."""
        if "exception" in record:
            return True, "exception escaped: " + record["exception"]
        if spec["kind"] == "cli":
            return self._classify_cli(spec, record)
        reason = self._err(record["value"], _cx(spec["value"]), RECORDED_TOL,
                           "recorded value")
        return reason is not None, reason

    def whittaker_oracle(self) -> str | None:
        """whittaker_gl3 vs jacquet_oracle, a check outside any op."""
        from eiskit.whittaker import jacquet_oracle, whittaker_gl3

        fast = whittaker_gl3(ORACLE_ALPHA, *ORACLE_Y)
        oracle = jacquet_oracle(ORACLE_ALPHA, ORACLE_Y, tol=1e-5)
        return self._err(fast, oracle, 1e-5, "whittaker_gl3 vs jacquet_oracle")

    def _classify_cli(self, spec: dict, record: dict):
        code, out, err = record["code"], record["out"], record["err"]
        command = spec["argv"][0]
        if code not in spec["expect"]:
            detail = err.strip().splitlines()[-1:] or [""]
            return True, f"exit {code}, expected {spec['expect']}: {detail[0]}"
        if code == 2:
            lines = err.strip().splitlines()
            if len(lines) != 1 or not lines[0].startswith("error:"):
                return True, "exit 2 without a one-line error on stderr"
            return False, None
        doc = None
        if command in REPORTING:
            try:
                doc = json.loads(out)
            except ValueError:
                return True, "stdout is not JSON"
            if not isinstance(doc, dict) or doc.get("schema") != 1:
                return True, "report lacks schema 1"
        reason = self._cli_reference(spec, out.strip(), doc)
        return reason is not None, reason

    def _cli_reference(self, spec: dict, text: str, doc) -> str | None:
        check = spec["check"]
        if "rho" in check:
            return self._rho(spec, text)
        if check.get("alpha_sum"):
            total = sum(complex(a["re"], a["im"]) for a in doc["alpha"])
            return None if abs(total) <= 1e-12 else "alpha does not sum to 0"
        if "divisor_borel" in check:
            value = complex(text)
            self._values[spec["id"]] = value
            want = self._ref(spec["id"], lambda: _divisor_reference(
                [_cx(v) for v in check["divisor_borel"]], check["m"]))
            return self._err(value, want, 1e-10, "divisor sum")
        if "same_as" in check:
            # compared only when the twin op succeeded in this run
            twin = self._values.get(check["same_as"])
            value = complex(text)
            if twin is not None and value != twin:
                return f"value {value} differs from {check['same_as']}"
            return None
        if spec["argv"][0] == "divisor-sum":
            self._values[spec["id"]] = complex(text)
            return None
        for key in ("passed", "accepted"):
            if key in check and doc.get(key) is not check[key]:
                return f"{key} is {doc.get(key)!r}, expected {check[key]!r}"
        if "permutation" in check and doc["permutation"] != check["permutation"]:
            return "wrong permutation"
        if "all_rejected" in check and (
                doc["all_rejected"] is not True
                or doc["rejections"] != check["all_rejected"]):
            return "falsification did not reject every trial"
        if "closed_form" in check or "fourier_gl2" in check:
            return self._gl2_lattice(spec, doc)
        return None

    def _rho(self, spec: dict, text: str) -> str | None:
        kind, n = spec["check"]["rho"], spec["check"]["n"]
        vec = [Fraction(v.strip()) for v in text.strip("[]").split(",")]
        self._values[spec["id"]] = vec
        if len(vec) != n:
            return f"rho has {len(vec)} entries, expected {n}"
        if kind == "borel":
            want = [Fraction(n + 1, 2) - i for i in range(1, n + 1)]
            return None if vec == want else "rho_borel is wrong"
        if kind == "parabolic_star":
            phi = self._values.get("rho-phi")
            borel = self._values.get("rho-borel")
            if phi is not None and borel is not None and [
                    a + b for a, b in zip(phi, vec)] != borel:
                return "rho_phi + rho_parabolic_star != rho_borel"
        return None

    def _gl2_lattice(self, spec: dict, doc: dict) -> str | None:
        check = spec["check"]
        value = complex(doc["value"]["re"], doc["value"]["im"])
        reason = self._err(value, _cx(self.recorded[check["recorded"]]),
                           RECORDED_TOL, "recorded value")
        if reason:
            return reason
        if "closed_form" in check:
            m, s1 = check["closed_form"]
            want, reason = self._closed_form(m, s1)
            return reason or self._err(value, want, 1e-4,
                                       "closed-form coefficient")
        s1 = check["fourier_gl2"]
        terms = [self._closed_form(m, s1) for m in range(-12, 13)]
        reasons = [r for _, r in terms if r]
        if reasons:
            return reasons[0]
        want = sum(v for v, _ in terms)
        rel = _rel(value, want)
        self.rel_errors.append(rel)
        if abs(value - want) > doc["tail_bound"]:
            return f"eval misses its Fourier series by {rel:.3e} (relative)"
        return None

    def _closed_form(self, m: int, s1: float) -> tuple[complex, str | None]:
        """GL(2) closed form at y = 1, its special functions checked on mpmath.

        Returns (value, reason); reason is None when zeta* and K_nu agree
        with mpmath.
        """
        return self._ref(f"closed_form:{m}:{s1}",
                         lambda: self._closed_form_uncached(m, s1))

    def _closed_form_uncached(self, m: int, s1: float):
        from eiskit.eisenstein import closed_form_fourier_gl2
        from eiskit.specfun import bessel_k, zeta_completed

        value = closed_form_fourier_gl2(m, s1, 1.0)
        try:
            import mpmath
        except ImportError:
            self.notes.append("mpmath missing: zeta* and K_nu unchecked")
            return value, None
        mpmath.mp.dps = 30
        zarg = 2 * s1 + 1
        zeta_ref = complex(mpmath.pi ** (-mpmath.mpf(zarg) / 2)
                           * mpmath.gamma(mpmath.mpf(zarg) / 2)
                           * mpmath.zeta(zarg))
        reason = self._err(zeta_completed(zarg), zeta_ref, 1e-12,
                           f"zeta*({zarg}) vs mpmath")
        if m and reason is None:
            x = 2 * math.pi * abs(m)
            reason = self._err(bessel_k(s1, x),
                               complex(mpmath.besselk(s1, x)), 1e-12,
                               f"K_{s1}({x:.4g}) vs mpmath")
        return value, reason

    def rel_err_max(self) -> float:
        return max([REL_ERR_FLOOR] + self.rel_errors)


def _divisor_reference(s_leading: list[complex], m: int) -> complex:
    """Borel eigenvalue by Dirichlet convolution over the divisors of m."""
    s = list(s_leading) + [-sum(s_leading)]
    divisors = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    divisors = sorted(set(divisors + [m // d for d in divisors]))
    acc = {d: complex(d) ** s[0] for d in divisors}
    for sj in s[1:]:
        acc = {d: sum(acc[d // e] * complex(e) ** sj
                      for e in divisors if e <= d and d % e == 0)
               for d in divisors}
    return acc[m]
