"""Batch command-line front-end.

Subcommands cover every verification pipeline:

    rho           print the parabolic shift vector
    params        print the Langlands parameter of an Eisenstein datum
    divisor-sum   evaluate the Eisenstein Hecke eigenvalue (divisor sum)
    check-fe      functional-equation check (symbolic or numeric)
    extract       quadrature Fourier-coefficient extraction
    eval          truncated lattice-sum evaluation
    uniqueness    exact affine-symmetry decision from a JSON map
    falsify       random falsification of non-permutation maps
    selftest      fast internal consistency checks

Exit codes: 0 all checks passed; 1 a check failed (reports still written);
2 usage or configuration error (single-line diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .core import (GroupElement, Partition, SpectralPoint, langlands_parameter,
                   rho_borel, rho_parabolic, rho_parabolic_star, rho_phi)
from .forms import FormSet, const_form, form_from_json, mock_maass_form
from .hecke import eis_hecke_eigenvalue
from .eisenstein import (FWRequest, check_functional_equation,
                          eval_eisenstein, extract_fourier_coefficient)
from .specfun import bessel_k, zeta_completed
from .uniqueness import (affine_map_from_json, decide_affine_symmetry,
                         random_falsification)

__all__ = ["main", "dispatch"]


class _Parser(argparse.ArgumentParser):
    """Raises ValueError where argparse would print usage and exit 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _fmt(x) -> str:
    """17 significant digits for floats/complex; exact text otherwise."""
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, float):
        return f"{x:.17g}"
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else str(x)
    return str(x)


def _json_default(o):
    if isinstance(o, complex):
        return {"re": float(o.real), "im": float(o.imag)}
    raise TypeError(repr(o))


def _emit(report: dict, rows: list[dict], args) -> None:
    """Write the report to --output, then echo the JSON to stdout, so that
    a failed write prints nothing."""
    report = {"schema": 1, **report}
    text = json.dumps(report, default=_json_default, sort_keys=True, indent=2)
    if args.output:
        body = text + "\n"
        if args.format == "csv":
            buf = io.StringIO()
            if rows:
                writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
                writer.writeheader()
                for row in rows:
                    writer.writerow({k: _fmt(v) for k, v in row.items()})
            body = buf.getvalue()
        with open(args.output, "w") as fh:
            fh.write(body)
    print(text)


def _parse_list(text: str, option: str, build=tuple, item=int):
    """`build` of the comma-separated `item`s that `option` was given."""
    try:
        return build(tuple(item(v) for v in text.split(",")))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad {option} {text!r}: {exc}") from exc


def _read(path: str, what: str) -> str:
    """The text of the `what` file at `path`."""
    if not os.path.exists(path):
        raise ValueError(f"{what} file not found: {path}")
    with open(path) as fh:
        return fh.read()


def _parse_partition(text: str) -> Partition:
    return _parse_list(text, "--partition", Partition)


def _parse_blocks(text: str | None, partition: Partition) -> Partition:
    """--blocks as a Partition of the partition's r slots, or all slots in
    one block when it is not given."""
    if text is None:
        return Partition((partition.r,))
    blocks = _parse_list(text, "--blocks", Partition)
    if blocks.n != partition.r:
        raise ValueError(f"--blocks {text} covers {blocks.n} slots, the "
                         f"partition has {partition.r}")
    return blocks


def _parse_forms(text: str | None, partition: Partition) -> FormSet:
    """mock:<seed> shorthand per slot, 'const', or a JSON form-spec path;
    None (no --forms) puts the constant form in every slot."""
    if text is None:
        return FormSet(tuple(const_form() for _ in partition.parts))
    specs = text.split(",")
    if len(specs) != partition.r:
        raise ValueError(
            f"{len(specs)} form specs for a partition of length {partition.r}")
    out = []
    for piece, nj in zip(specs, partition.parts):
        piece = piece.strip()
        if piece.startswith("mock:"):
            try:
                seed = int(piece[5:])
            except ValueError as exc:
                raise ValueError(f"bad mock seed in {piece!r}") from exc
            out.append(const_form() if nj == 1 else mock_maass_form(nj, seed))
        elif piece in ("const", "1"):
            out.append(const_form())
        else:
            out.append(form_from_json(_read(piece, "form-spec")))
    forms = FormSet(tuple(out))
    forms.check_against(partition)
    return forms


def _parse_spectral(text: str, partition: Partition) -> SpectralPoint:
    vals = _parse_list(text, "--s", list, complex)
    try:
        if len(vals) == partition.r - 1:
            return SpectralPoint.from_leading(partition, vals)
        return SpectralPoint(tuple(vals), partition)
    except ValueError as exc:
        raise ValueError(f"bad --s {text!r}: {exc}") from exc


def _parse_sigma(text: str, r: int) -> tuple[int, ...]:
    sigma = tuple(v - 1 for v in _parse_list(text, "--sigma"))
    if sorted(sigma) != list(range(r)):
        raise ValueError(f"--sigma {text!r} is not a permutation of 1..{r}")
    return sigma


def _parse_group_element(args, n: int) -> GroupElement:
    if getattr(args, "g", None):
        try:
            g = GroupElement(np.array(json.loads(args.g), dtype=float))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"bad --g: {exc}") from exc
        if g.n != n:
            raise ValueError(f"bad --g: expected a {n} x {n} matrix")
        return g
    return GroupElement.identity(n)


# ------------------------------ subcommands ----------------------------------


def _cmd_rho(args) -> int:
    partition = _parse_partition(args.partition)
    rho = {"parabolic": rho_parabolic, "borel": lambda p: rho_borel(p.n),
           "phi": rho_phi, "parabolic_star": rho_parabolic_star}[args.kind]
    print("[" + ", ".join(_fmt(v) for v in rho(partition)) + "]")
    return 0


def _cmd_params(args) -> int:
    partition = _parse_partition(args.partition)
    forms = _parse_forms(args.forms, partition)
    s = _parse_spectral(args.s, partition)
    alpha = langlands_parameter(forms, s)
    report = {"command": "params",
              "partition": list(partition.parts),
              "alpha": list(alpha)}
    rows = [{"index": i, "re": v.real, "im": v.imag}
            for i, v in enumerate(alpha)]
    _emit(report, rows, args)
    return 0


def _cmd_divisor_sum(args) -> int:
    partition = _parse_partition(args.partition)
    forms = _parse_forms(args.forms, partition)
    s = _parse_spectral(args.s, partition)
    value = eis_hecke_eigenvalue(forms, s, args.m)
    print(_fmt(value) if value.imag != 0 or value.real != int(value.real)
          else str(int(round(value.real))))
    return 0


def _cmd_check_fe(args) -> int:
    partition = _parse_partition(args.partition)
    forms = _parse_forms(args.forms, partition)
    s = _parse_spectral(args.s, partition) if args.s else SpectralPoint(
        (0,) * partition.r, partition)
    sigma = _parse_sigma(args.sigma, partition.r)
    report_obj = check_functional_equation(forms, s, sigma, mode=args.mode)
    report = {"command": "check-fe", "mode": report_obj.mode,
              "sigma": list(report_obj.sigma),
              "passed": report_obj.passed,
              "abs_residual": report_obj.abs_residual,
              "rel_residual": report_obj.rel_residual,
              "metadata": report_obj.metadata}
    rows = [{"sigma": "".join(str(v + 1) for v in sigma),
             "passed": report_obj.passed,
             "abs_residual": report_obj.abs_residual,
             "rel_residual": report_obj.rel_residual}]
    _emit(report, rows, args)
    return 0 if report_obj.passed else 1


def _cmd_extract(args) -> int:
    partition = _parse_partition(args.partition)
    n = partition.n
    forms = _parse_forms(args.forms, partition)
    s = _parse_spectral(args.s, partition)
    g = _parse_group_element(args, n)
    m = _parse_list(args.m, "--m")
    if len(m) == 1 and n > 2:
        m = m + (1,) * (n - 2)
    request = FWRequest(partition=partition, forms=forms, M=m, s=s, g=g)
    # GL(3): 6 nodes at m <= 1, 4m + 2 above, so that the half grid of
    # 2m + 1 nodes folds no mode (m', 1) with |m'| <= m onto (m, 1)
    nodes = args.nodes if args.nodes is not None else (
        64 if n == 2 else max(6, 4 * m[0] + 2))
    value = extract_fourier_coefficient(
        n, request, height=args.height, quad_nodes=nodes)
    # an odd node count has no half grid, so no node-doubling diagnostic ran
    report = {"command": "extract", "m": list(m), "height": args.height,
              "nodes": nodes, "node_doubling": nodes % 2 == 0,
              "value": value}
    rows = [{"m": ",".join(str(v) for v in m), "height": args.height,
             "nodes": nodes, "re": value.real, "im": value.imag}]
    _emit(report, rows, args)
    return 0


def _cmd_eval(args) -> int:
    partition = _parse_partition(args.partition)
    n = partition.n
    s = _parse_spectral(args.s, partition)
    g = _parse_group_element(args, n)
    value, tail = eval_eisenstein(n, g, s, args.height)
    report = {"command": "eval", "height": args.height,
              "value": value, "tail_bound": tail}
    rows = [{"height": args.height, "re": value.real, "im": value.imag,
             "tail_bound": tail}]
    _emit(report, rows, args)
    return 0


def _cmd_uniqueness(args) -> int:
    partition = _parse_partition(args.partition)
    blocks = _parse_blocks(args.blocks, partition)
    mu = affine_map_from_json(_read(args.map, "map"))
    verdict = decide_affine_symmetry(partition, blocks, mu)
    report = {"command": "uniqueness", "accepted": verdict.accepted,
              "permutation": list(verdict.permutation)
              if verdict.permutation is not None else None,
              "witness": verdict.witness}
    rows = [{"accepted": verdict.accepted,
             "permutation": report["permutation"]}]
    _emit(report, rows, args)
    return 0 if verdict.accepted else 1


def _cmd_falsify(args) -> int:
    partition = _parse_partition(args.partition)
    blocks = _parse_blocks(args.blocks, partition)
    rep = random_falsification(partition, blocks, args.trials, args.seed)
    report = {"command": "falsify", "trials": rep.trials,
              "rejections": rep.rejections,
              "all_rejected": rep.all_rejected,
              "witnesses": list(rep.witnesses)}
    _emit(report, report["witnesses"], args)
    return 0 if rep.all_rejected else 1


def _cmd_selftest(args) -> int:
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    rho3 = rho_borel(3)
    record("rho_borel_gl3", rho3 == (Fraction(1), Fraction(0), Fraction(-1)),
           "[" + ", ".join(_fmt(v) for v in rho3) + "]")
    for n in range(2, 7):
        ok = True
        for parts in _compositions(n):
            p = Partition(parts)
            lhs = tuple(a + b for a, b in
                        zip(rho_phi(p), rho_parabolic_star(p)))
            ok = ok and lhs == rho_borel(n)
        record(f"rho_identity_n{n}", ok, "rho_phi + rho_parabolic_star")
    z = zeta_completed(0.3 + 4j)
    zr = zeta_completed(0.7 - 4j)
    record("zeta_completed_fe", abs(z - zr) <= 1e-10, _fmt(abs(z - zr)))
    x = 1.0
    closed = float(np.sqrt(np.pi / (2 * x)) * np.exp(-x))
    rel = abs(bessel_k(0.5, x) - closed) / closed
    record("bessel_k_half", rel <= 1e-12, _fmt(rel))
    passed = all(c["passed"] for c in checks)
    report = {"command": "selftest", "passed": passed, "checks": checks}
    rows = [{"name": c["name"], "passed": c["passed"], "detail": c["detail"]}
            for c in checks]
    _emit(report, rows, args)
    return 0 if passed else 1


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


# -------------------------------- dispatch -----------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    top = _Parser(prog="eiskit", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, forms=None, s=None, output=True):
        """forms, s: None omits the option, else whether it is required."""
        p.add_argument("--partition", required=True,
                       help="comma-separated composition, e.g. 1,1,1")
        if forms is not None:
            p.add_argument("--forms", required=forms,
                           help="per-slot specs: mock:<seed>, const, or a "
                                "JSON form-spec path (comma-separated)")
        if s is not None:
            p.add_argument("--s", required=s,
                           help="comma-separated complex s-values "
                           "(leading r-1 allowed; last solved)")
        if output:
            p.add_argument("--output", help="report file path")
            p.add_argument("--format", choices=["json", "csv"],
                           default="json")

    p = sub.add_parser("rho", help="parabolic shift vectors")
    p.add_argument("--partition", required=True)
    p.add_argument("--kind", default="parabolic",
                   choices=["parabolic", "borel", "phi", "parabolic_star"])
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("params", help="Langlands parameter")
    common(p, forms=True, s=True)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("divisor-sum", help="Eisenstein Hecke eigenvalue")
    common(p, forms=False, s=True, output=False)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_divisor_sum)

    p = sub.add_parser("check-fe", help="functional-equation check")
    common(p, forms=True, s=False)
    p.add_argument("--sigma", required=True,
                   help="1-indexed permutation, e.g. 2,1")
    p.add_argument("--mode", choices=["symbolic", "numeric"],
                   default="symbolic")
    p.set_defaults(func=_cmd_check_fe)

    p = sub.add_parser("extract", help="Fourier-coefficient extraction")
    common(p, forms=False, s=True)
    p.add_argument("--m", required=True, help="character indices, e.g. 1 or 1,1")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--g", help="group element as a JSON matrix")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("eval", help="truncated lattice-sum evaluation")
    common(p, s=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--g", help="group element as a JSON matrix")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("uniqueness", help="exact affine-symmetry decision")
    common(p)
    p.add_argument("--blocks", help="comma-separated block sizes")
    p.add_argument("--map", required=True, help="AffineMap JSON file")
    p.set_defaults(func=_cmd_uniqueness)

    p = sub.add_parser("falsify", help="random falsification")
    common(p)
    p.add_argument("--blocks", help="comma-separated block sizes")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_falsify)

    p = sub.add_parser("selftest", help="fast internal consistency checks")
    p.add_argument("--output", help="report file path")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_selftest)

    return top


def dispatch(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 2
    # every error an input causes is one of these (a MemoryError: a height
    # or node count too large to hold); any other exception is a bug
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
