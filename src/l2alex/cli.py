"""Command-line front end.

Input is a single JSON document (exponent-vector form, no expression
parser), which ``main`` reads and validates once for the five commands
that take one; each command returns its text, JSON objects/arrays or CSV
with header "t,value", and ``main`` writes it. All floats are rendered
with a fixed %.12g format and reductions run in a fixed order, so
identical invocations produce byte-identical output.

Exit codes: 0 success, 1 input error, 2 numeric-budget error, 3 tie,
degeneracy or ill-conditioning error. Errors print one line
"error[kind]: message" to stderr, never a traceback; a budget error's
estimate arrives as a log and is exponentiated here, once. README.md's
command-line section owns the list of which input answers which kind:
bad input is refused at parse time or before any work, and a value
beyond the double range answers error[overflow] or error[underflow]
instead of a row of inf or 0.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import reprlib
import sys

from .degree import det_function, convexity_check
from .errors import (ChiefPartTieError, DegenerateSliceError,
                     IllConditionedError, InputError, L2AlexError,
                     QuadratureBudgetError, ZeroPolynomialError)
from .laurent import LaurentMatrix, LaurentPoly
from .mahler import mahler_mv_report, saturating_exp
from .quadrature import DEFAULT_NODE_BUDGET, NodeBudget, geometric_grid
from .torsion3m import (TorsionSpec, _snap_zeros, torsion_degree,
                        torsion_from_presentation, triple_figure_eight,
                        triple_figure_eight_torsion)
from .twist import CohomClass, check_tol

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_BUDGET = 2
_EXIT_DEGENERATE = 3


def parse_input(text: str) -> TorsionSpec:
    """Parse and validate a JSON input document before any computation."""
    try:   # the parser recurses into nested values
        return _parse_document(text)
    except RecursionError:
        raise InputError("malformed-json", "nested too deeply") from None


def _number(x, what: str, integer: str = ""):
    """x if it is a JSON number and not a boolean. Given ``integer``, the
    words for what is expected ("an integer"), x must also be integral,
    and comes back as an int. ValueError naming ``what`` otherwise."""
    if isinstance(x, bool):   # Python reads a JSON true or false as 1 or 0
        raise ValueError(f"{what} holds a boolean where a number is expected")
    if isinstance(x, (int, float)) and not integer:
        return x
    if isinstance(x, int) or isinstance(x, float) and x.is_integer():
        return int(x)
    raise ValueError(f"{what} is not {integer or 'a number'}")


def _read_entry(nvars: int, items, where: str) -> LaurentPoly:
    """A list of {"exp", "re", "im"} terms, kept exactly or refused."""
    terms = {}
    for item in items:
        raw = item["exp"]
        what = f"{where}exponent {reprlib.repr(raw)}"   # raw may nest deeply
        exp = tuple(_number(e, what, "a list of integers") for e in raw)
        what = f"{where}the coefficient of exponent {list(exp)}"
        try:
            c = complex(_number(item["re"], what),
                        _number(item.get("im", 0.0), what))
        except OverflowError:   # a JSON integer beyond the double range
            c = complex(math.inf)
        terms[exp] = terms.get(exp, 0j) + c
    for exp, c in terms.items():
        if not math.isfinite(math.hypot(c.real, c.imag)):   # abs(c) raises
            raise ValueError(f"{where}the coefficient of exponent {list(exp)} "
                             "is not finite")
    poly = LaurentPoly(nvars, terms)
    for exp, c in terms.items():
        if c != 0 and exp not in poly.terms:
            raise ValueError(f"{where}the coefficient of exponent {list(exp)} "
                             "is lost beside the entry's largest coefficient "
                             "in double precision")
    top = max(map(abs, poly.terms.values()), default=1.0)
    if top < sys.float_info.min:
        raise ValueError(f"{where}the largest coefficient, {top!r}, is below "
                         "the normal double range")
    return poly


def _parse_document(text: str) -> TorsionSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("malformed-json",
                         f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError:   # an integer past the digits int() converts
        raise InputError("malformed-json", "a number has too many digits")
    if not isinstance(obj, dict):
        raise InputError("malformed-json", "top-level value must be an object")

    variables = obj.get("variables")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise InputError("bad-variables", '"variables" must be a list of names')
    nvars = len(variables)   # the names themselves are not kept

    if "matrix" not in obj or "class" not in obj:
        raise InputError("missing-field", 'both "matrix" and "class" are required')
    try:
        matrix = LaurentMatrix(
            [[_read_entry(nvars, cell, f"entry [{i}][{j}]: ")
              for j, cell in enumerate(row)]
             for i, row in enumerate(obj["matrix"])], nvars=nvars)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad-matrix", f"matrix does not parse: {exc}")
    except L2AlexError as exc:
        raise InputError("dimension-mismatch", str(exc))

    cls = obj["class"]
    if not isinstance(cls, dict) or "sigma" not in cls:
        raise InputError("bad-class", '"class" must be an object with "sigma"')
    try:
        r, phi = cls.get("r"), cls.get("phi")
        cohom = CohomClass(
            [_number(x, f"sigma entry {reprlib.repr(x)}")
             for x in cls["sigma"]],
            r and [_number(x, f"r entry {reprlib.repr(x)}") for x in r],
            phi and [[_number(e, f"phi entry {reprlib.repr(e)}", "an integer")
                      for e in row] for row in phi])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError("bad-class", f"class does not parse: {exc}")
    if cohom.nvars != nvars:
        raise InputError(
            "dimension-mismatch",
            f"sigma has length {cohom.nvars}, document declares {nvars} variables")

    pairs = obj.get("pairs", [])
    if not isinstance(pairs, list):
        raise InputError("bad-pairs", '"pairs" must be a list of [a, b] pairs')
    for item in pairs:
        what = f"pair {reprlib.repr(item)}"
        if not isinstance(item, list) or len(item) != 2:
            raise InputError("bad-pairs", f"{what} is not [a, b]")
        try:
            if not all(abs(_number(x, what)) <= sys.float_info.max
                       for x in item):
                raise ValueError(f"{what} is not finite")
        except ValueError as exc:
            raise InputError("bad-pairs", str(exc))

    try:
        index = _number(obj.get("index_divisor", 1), "index_divisor",
                        "a positive integer")
        if index < 1:
            raise ValueError(
                f"index_divisor must be a positive integer, got {index!r}")
        if index > sys.float_info.max:
            raise ValueError("index_divisor is beyond the double range")
    except ValueError as exc:
        raise InputError("bad-index-divisor", str(exc))
    return TorsionSpec(matrix, cohom, pairs, index)


def render_json(obj, key: str = "") -> str:
    """Deterministic JSON with %.12g floats, keys in insertion order.

    A float beyond the double range raises InputError("overflow") naming
    the key it sits under (``key`` for a value outside any object).
    """
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(k)}:{render_json(v, k)}"
                         for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v, key) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise InputError("overflow",
                             f"{key} is {obj}, beyond the double range")
        return "%.12g" % obj
    return json.dumps(obj)   # a str, or None as null


def _parse_grid(spec: str, min_points: int = 1):
    parts = spec.split(":")
    if len(parts) != 3:
        raise InputError("bad-grid", f'grid "{spec}" is not of the form lo:hi:n')
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        grid = geometric_grid(lo, hi, n)
    except ValueError as exc:
        raise InputError("bad-grid", f'grid "{spec}": {exc}')
    if len(grid) < min_points:
        raise InputError("bad-grid",
                         f'grid "{spec}" needs at least {min_points} points')
    return grid


def _read_input(path: str) -> TorsionSpec:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError("unreadable-input", str(exc))
    return parse_input(text)


def _csv(grid, values, zero_function) -> str:
    for t, v in zip(grid, values):
        if not math.isfinite(v):
            raise InputError("overflow",
                             "the value at t=%.12g exceeds the double range" % t)
        if v == 0 and not zero_function:
            raise InputError("underflow",
                             "the value at t=%.12g is below the double range" % t)
    return "\n".join(["t,value"] + ["%.12g,%.12g" % tv
                                    for tv in zip(grid, values)])


def _det(spec: TorsionSpec):
    return det_function(spec.matrix, spec.cohom, spec.index_divisor)


def _cmd_mahler(spec, args) -> str:
    """Mahler measure of the determinant polynomial"""
    poly = spec.matrix.determinant()
    if poly.is_zero:
        raise ZeroPolynomialError(
            "the determinant is constantly zero; its measure 0 has no log")
    result = mahler_mv_report(poly, tol=args.tol, max_evals=args.max_evals)
    return render_json({"measure": result.measure,
                        "log_measure": result.log_measure,
                        "achieved_tol": result.achieved_tol})


def _cmd_eval(spec, args) -> str:
    """sample V(t) on a geometric grid (CSV)"""
    grid = _parse_grid(args.grid)
    fn = _det(spec)
    return _csv(grid, [fn.eval(t, args.tol) for t in grid], fn.is_zero)


def _cmd_degree(spec, args) -> str:
    """asymptote report of V"""
    return render_json(_det(spec).asymptote(args.tol).to_obj())


def _cmd_convexity(spec, args) -> str:
    """multiplicative convexity check on a grid"""
    grid = _parse_grid(args.grid, min_points=3)
    report = convexity_check(_det(spec), grid, tol=args.tol)
    obj = {name: getattr(report, name) for name in (
        "passed", "zero_function", "slope_min", "slope_max", "slope_range",
        "slope_bound")}
    obj["violations"] = [{"t_lo": a, "t_mid": m, "t_hi": b, "excess": e}
                         for a, m, b, e in report.violations]
    obj["slope_violations"] = [
        {"pair_min": list(pmin), "pair_max": list(pmax), "range": r}
        for pmin, pmax, r in report.slope_violations]
    return render_json(obj)


def _cmd_torsion(spec, args) -> str:
    """sample the torsion function (CSV)"""
    grid = _parse_grid(args.grid)
    tau = torsion_from_presentation(spec)
    return _csv(grid, [tau.value(t, args.tol) for t in grid],
                tau.zero_function)


def _scenario_row(phi) -> dict:
    snapped = _snap_zeros(phi)   # once, so each coordinate warns once
    data = triple_figure_eight(snapped)
    report = torsion_degree(triple_figure_eight_torsion(snapped))
    return {"phi": list(phi), "norm": data["norm"], "delta": data["delta"],
            "leading": data["leading"], "deg_b": report.deg_b}


def _cmd_scenario(_, args) -> str:
    if args.phi is None and args.sweep is None:
        raise InputError("missing-field", "need --phi a,b,c and/or --sweep n")

    rows = []
    if args.phi is not None:
        parts = args.phi.split(",")
        if len(parts) != 3:
            raise InputError("bad-phi", f'--phi "{args.phi}" is not a,b,c')
        try:
            phi = tuple(float(p) for p in parts)
        except ValueError:
            raise InputError("bad-phi", f'--phi "{args.phi}" is not numeric')
        if not all(math.isfinite(x) for x in phi):
            raise InputError("bad-phi", f'--phi "{args.phi}" is not finite')
        try:
            rows.append(_scenario_row(phi))
        except ValueError as exc:
            raise InputError("bad-phi", str(exc))

    if args.sweep is not None:
        if args.sweep < 1:
            raise InputError("bad-sweep", "--sweep must be >= 1")
        u = (1 / math.sqrt(2), -1 / math.sqrt(2), 0.0)
        w = (1 / math.sqrt(6), 1 / math.sqrt(6), -2 / math.sqrt(6))
        for k in range(args.sweep):
            ang = 2.0 * math.pi * k / args.sweep
            phi = tuple(math.cos(ang) * ui + math.sin(ang) * wi
                        for ui, wi in zip(u, w))
            phi = tuple(0.0 if abs(x) < 1e-12 else x for x in phi)
            phi = (phi[0], phi[1], -phi[0] - phi[1])
            rows.append(_scenario_row(phi))

    payload = rows[0] if (args.phi is not None and args.sweep is None) else rows
    return render_json(payload)


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line as InputError("usage"), one line,
    where argparse would print its usage block; -h still exits 0."""

    def error(self, message):
        raise InputError("usage", f"{self.prog}: {message}")


# the commands that read a document: function (its docstring is the help)
# and grid option
_DOCUMENT_COMMANDS = {
    "mahler": (_cmd_mahler, None), "eval": (_cmd_eval, "--t-grid"),
    "degree": (_cmd_degree, None), "convexity": (_cmd_convexity, "--grid"),
    "torsion": (_cmd_torsion, "--t-grid"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="l2alex",
        description="Determinant functions, Mahler measures, and "
                    "L2-Alexander torsion of 3-manifold presentations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, grid) in _DOCUMENT_COMMANDS.items():
        p = sub.add_parser(name, help=run.__doc__)
        p.add_argument("--input", required=True)
        if grid:
            p.add_argument(grid, dest="grid", required=True, metavar="lo:hi:n")
        p.add_argument("--tol", type=float, default=1e-8)
        p.set_defaults(run=run)
    sub.choices["convexity"].set_defaults(tol=1e-6)
    sub.choices["mahler"].add_argument(
        "--max-evals", type=int, default=DEFAULT_NODE_BUDGET,
        help="quadrature node budget before giving up")

    p = sub.add_parser("scenario", help="closed-form landscape tables")
    p.add_argument("name", choices=["section9"])
    p.add_argument("--phi", default=None, metavar="a,b,c")
    p.add_argument("--sweep", type=int, default=None, metavar="n")
    p.set_defaults(run=_cmd_scenario)
    return parser


def _bind_negative_values(argv):
    """Join "--phi -1,1,0" into "--phi=-1,1,0".

    argparse reads a value that starts with "-" and is not a plain number as
    an option, so a separate negative coordinate list would be refused.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--phi" and re.match(r"-[\d.]", arg):
            out[-1] = "--phi=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_bind_negative_values(argv))
        try:
            check_tol(getattr(args, "tol", 1.0))
        except ValueError:
            raise InputError("bad-tol", f"--tol must be a positive finite "
                                        f"number, got {args.tol!r}")
        try:
            NodeBudget(getattr(args, "max_evals", 1))
        except ValueError:
            raise InputError("bad-budget", f"--max-evals must be a positive "
                                           f"integer, got {args.max_evals}")
        # the five document commands read their document here, once
        spec = _read_input(args.input) if "input" in args else None
        print(args.run(spec, args))
        return _EXIT_OK
    except SystemExit:   # -h printed the help (_Parser.error raises)
        return _EXIT_OK
    except InputError as exc:
        print(f"error[{exc.kind}]: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except QuadratureBudgetError as exc:
        print(f"error[quadrature-budget]: {exc} "
              f"(best estimate {saturating_exp(exc.best_estimate):.12g}, "
              f"achieved {exc.achieved_tol:.12g})", file=sys.stderr)
        return _EXIT_BUDGET
    except (ChiefPartTieError, DegenerateSliceError,
            ZeroPolynomialError) as exc:
        print(f"error[degeneracy]: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE
    except IllConditionedError as exc:
        print(f"error[ill-conditioned]: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE
    except L2AlexError as exc:
        print(f"error[input]: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
