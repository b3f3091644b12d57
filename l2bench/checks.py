"""Correctness checks on program outputs, independent of l2alex.

Every check returns a list of problems (empty when the output is correct).
References come from ``references.json`` (see ``references.py``), from
exact integer arithmetic on the benchmark's own inputs (``polys``), from
numpy on torus points, and from Jensen's formula on ``mpmath.polyroots``.
None of them imports l2alex or reuses its numbers.
"""

import json
import math
import os
from fractions import Fraction

import mpmath
import numpy as np

from inputs import CURVE_GRID, PRESENTATION_GRID, geometric
from polys import det as exact_det
from polys import support_union

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")

# 1-variable V(t) is closed form in l2alex: roots are verified to 1e-9
# relative, and log V sums at most ~25 root moduli.
JENSEN_LOG_TOL = 1e-8
# 2-variable chief-part measures come from mahler_mv at tol 1e-8.
CHIEF_LOG_TOL = 1e-7
# %.12g printing in the CLI
PRINT_REL = 1e-11
_TORUS_POINTS = 4


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


# -- one-variable Jensen references ------------------------------------------

class Roots:
    """p = D z^n prod (z - b_i) for an integer polynomial, roots by mpmath."""

    def __init__(self, coeffs):
        """coeffs: {exponent: int} of a nonzero one-variable polynomial."""
        lo, hi = min(coeffs), max(coeffs)
        self.low = lo
        self.lead = abs(coeffs[hi])
        if hi == lo:
            self.moduli = []
            return
        desc = [coeffs.get(k, 0) for k in range(hi, lo - 1, -1)]
        with mpmath.workdps(40):
            roots = mpmath.polyroots(desc, maxsteps=400, extraprec=200)
            self.moduli = [float(abs(b)) for b in roots]

    def log_scaled(self, c):
        """log M(p(c z)) = log(|D| c^n prod max(c, |b_i|))."""
        lc = math.log(c)
        return (math.log(self.lead) + self.low * lc
                + sum(max(lc, math.log(m)) for m in self.moduli))


def _univariate(terms):
    return {e[0]: int(round(c)) for e, c in terms.items()}


def _pair_log(pairs, t):
    lt = math.log(t)
    return sum(max(a * lt, b * lt) for a, b in pairs)


# -- determinants ------------------------------------------------------------

def _eval_poly(p, z):
    return sum(c * np.prod([zj ** e for zj, e in zip(z, exp)])
               for exp, c in p.items()) if p else 0j


def determinant(item, det_terms):
    """Integer coefficients, and numpy.linalg.det agrees at torus points."""
    problems = []
    if any(c != math.floor(c) for c in det_terms.values()):
        problems.append("determinant has non-integer coefficients")
    rng = np.random.default_rng(20240817)
    for _ in range(_TORUS_POINTS):
        z = np.exp(2j * np.pi * rng.random(item["nvars"]))
        a = np.array([[_eval_poly(e, z) for e in row] for row in item["matrix"]])
        ref = np.linalg.det(a)
        got = _eval_poly(det_terms, z)
        hadamard = float(np.prod(np.linalg.norm(a, axis=1)))
        if abs(got - ref) > 1e-11 * max(1.0, hadamard):
            problems.append(f"det at torus point: {got} vs numpy {ref}")
            break
    return problems


# -- degrees -----------------------------------------------------------------

def _weight(sigma, exp):
    return sum(Fraction(s) * e for s, e in zip(sigma, exp))


def _chief_1v(det_terms, sigma, end):
    """The extremal weight group as a 1-variable polynomial.

    The group lies on a line <sigma, v> = w; along a primitive direction u
    of that line it is sum c_k w^k, and M is invariant under that monomial
    change of variables.
    """
    weights = {e: _weight(sigma, e) for e in det_terms}
    target = max(weights.values()) if end > 0 else min(weights.values())
    group = sorted(e for e, w in weights.items() if w == target)
    if len(group) == 1:
        return {0: int(round(det_terms[group[0]]))}
    base = group[0]
    steps = [tuple(x - y for x, y in zip(e, base)) for e in group]
    g = 0
    for x in steps[1]:
        g = math.gcd(g, x)
    u = tuple(x // g for x in steps[1])
    j = next(i for i, x in enumerate(u) if x)
    return {s[j] // u[j]: int(round(det_terms[e]))
            for s, e in zip(steps, group)}


def degree(item, det_terms, report, pairs=None):
    """d+- are the extreme weights of the determinant's support minus the
    pair terms; C+- are the measures of the extremal groups, and >= 1."""
    problems = []
    sigma = item["sigma"]
    pairs = item["pairs"] if pairs is None else pairs
    weights = [_weight(sigma, e) for e in det_terms]
    d_plus = float(max(weights)) - sum(max(a, b) for a, b in pairs)
    d_minus = float(min(weights)) - sum(min(a, b) for a, b in pairs)
    for key, ref in (("d_plus", d_plus), ("d_minus", d_minus),
                     ("deg_b", d_plus - d_minus)):
        if abs(report[key] - ref) > 1e-9 * max(1.0, abs(ref)):
            problems.append(f"{key} {report[key]} != {ref}")
    if report["method"] != "exact-chief-part":
        problems.append(f"method {report['method']}")
    for key, end in (("C_plus", 1), ("C_minus", -1)):
        c = report[key]
        if not c >= 1.0 - 1e-12:
            problems.append(f"{key} = {c} < 1 for an integer matrix")
            continue
        ref = Roots(_chief_1v(det_terms, sigma, end)).log_scaled(1.0)
        if abs(math.log(c) - ref) > CHIEF_LOG_TOL * max(1.0, abs(ref)):
            problems.append(f"{key} = {c}, chief-part measure {math.exp(ref)}")
    return problems


# -- curves --------------------------------------------------------------------

def exponent_bound(item):
    weights = [_weight(item["sigma"], e) for e in support_union(item["matrix"])]
    return len(item["matrix"]) * float(max(weights) - min(weights))


def curve(item, grid, values, eval_tol, pairs=None):
    """tau > 0 and finite; log V convex in log t; slopes within the bound."""
    pairs = item["pairs"] if pairs is None else pairs
    if not all(isinstance(v, float) and math.isfinite(v) and v > 0
               for v in values):
        return [f"non-finite or non-positive values {values}"]
    logv = [math.log(v) + _pair_log(pairs, t) for t, v in zip(grid, values)]
    logt = [math.log(t) for t in grid]
    problems = []
    slack = 2.0 * eval_tol + 1e-12
    for i in range(len(grid) - 2):
        excess = logv[i + 1] - 0.5 * (logv[i] + logv[i + 2])
        if excess > slack:
            problems.append(f"log V not convex at t={grid[i + 1]}: {excess}")
    slopes = [(logv[j] - logv[i]) / (logt[j] - logt[i])
              for i in range(len(grid)) for j in range(i + 1, len(grid))]
    gap = min(b - a for a, b in zip(logt, logt[1:]))
    bound = exponent_bound(item) + 2.0 * slack / gap
    if max(slopes) - min(slopes) > bound:
        problems.append(f"slope range {max(slopes) - min(slopes)} > {bound}")
    return problems


def jensen_curve(item, det_terms, grid, values, refs=None, pairs=None,
                 rel=JENSEN_LOG_TOL):
    """1-variable tau(t) against Jensen's formula on the determinant."""
    pairs = item["pairs"] if pairs is None else pairs
    if item.get("known_fault"):
        ref_logs = [known_fault_log(item, refs, t) for t in grid]
    else:
        roots = Roots(_univariate(det_terms))
        s = float(item["sigma"][0])
        ref_logs = [roots.log_scaled(t ** s) for t in grid]
    problems = []
    for t, v, ref in zip(grid, values, ref_logs):
        if not (v > 0 and math.isfinite(v)):
            problems.append(f"tau({t}) = {v}")
            continue
        got = math.log(v) + _pair_log(pairs, t)
        if abs(got - ref) > rel * max(1.0, abs(ref)):
            problems.append(f"log V({t}) = {got}, Jensen {ref}")
    return problems


def known_fault_log(item, refs, t):
    """Exact log V(t) of a determinant whose roots all lie on the circle."""
    ref = refs["repeated_factor"][item["label"]]
    c = t ** float(item["sigma"][0])
    return (math.log(ref["lead"]) + ref["low"] * math.log(c)
            + ref["degree"] * max(0.0, math.log(c)))


# -- independent 2-variable torus measure ------------------------------------

def torus_log_mahler(det_terms, n_outer=512):
    """(log M, error estimate) of a 2-variable polynomial.

    Jensen in the variable of larger spread (roots by batched companion
    eigenvalues), trapezoid rule in the other angle on nested grids of
    n, 2n and 4n points. The integrand is continuous and piecewise smooth,
    so the error falls like h^2; twice the larger gap between levels bounds
    the error of the finest level.
    """
    exps = np.array(sorted(det_terms), dtype=np.int64)
    coefs = np.array([det_terms[tuple(e)] for e in exps], dtype=np.complex128)
    spreads = exps.max(axis=0) - exps.min(axis=0)
    inner = int(np.argmax(spreads))
    outer = 1 - inner
    k = exps[:, inner] - exps[:, inner].min()
    deg = int(k.max())
    m = 4 * n_outer
    theta = 0.1234567 + 2.0 * np.pi * np.arange(m) / m
    phase = np.exp(1j * np.outer(theta, exps[:, outer])) * coefs[None, :]
    slices = np.zeros((m, deg + 1), dtype=np.complex128)
    for col in range(deg + 1):
        slices[:, col] = phase[:, k == col].sum(axis=1)
    lead = slices[:, -1]
    vals = np.log(np.abs(lead))
    if deg > 0:
        comp = np.zeros((m, deg, deg), dtype=np.complex128)
        comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        comp[:, :, -1] = -slices[:, :-1] / lead[:, None]
        eig = np.linalg.eigvals(comp)
        vals += np.maximum(0.0, np.log(np.abs(eig))).sum(axis=1)
    levels = [float(vals[::step].mean()) for step in (4, 2, 1)]
    err = 2.0 * max(abs(levels[2] - levels[1]), abs(levels[1] - levels[0]))
    return levels[2], err + 1e-12


def torus_v1(det_terms, log_measure, achieved, extra=0.0):
    ref, err = torus_log_mahler(det_terms)
    if abs(log_measure - ref) > err + achieved + extra:
        return [f"log V(1) = {log_measure} (achieved {achieved}), "
                f"torus {ref} +- {err}"]
    return []


# -- CLI ---------------------------------------------------------------------

def _csv(stdout):
    lines = stdout.decode().splitlines()
    if not lines or lines[0] != "t,value":
        raise ValueError("missing t,value header")
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def cli(item, out, refs):
    argv = item["argv"]
    if out["code"] != 0:
        return [f"{' '.join(argv)}: exit {out['code']}"]
    try:
        return _cli_values(argv, item["docs"], out["stdout"], refs)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{' '.join(argv)}: output does not parse: {exc}"]


def _cli_values(argv, docs, stdout, refs):
    cmd = argv[0]
    if cmd == "scenario":
        return scenario(argv, stdout, refs)
    p = docs[argv[argv.index("--input") + 1]]
    det_terms = exact_det(p["matrix"], p["nvars"])
    one_var = p["nvars"] == 1
    problems = []
    if cmd in ("eval", "torsion"):
        rows = _csv(stdout)
        lo, hi, n = argv[argv.index("--t-grid") + 1].split(":")
        grid = geometric((float(lo), float(hi), int(n)))
        if len(rows) != len(grid) or any(
                abs(t - g) > PRINT_REL * g for (t, _), g in zip(rows, grid)):
            return [f"{cmd}: grid {[t for t, _ in rows]} != {grid}"]
        values = [v for _, v in rows]
        pairs = p["pairs"] if cmd == "torsion" else ()
        if one_var:
            problems += jensen_curve(p, det_terms, grid, values, pairs=pairs,
                                     rel=JENSEN_LOG_TOL + PRINT_REL)
        else:
            problems += curve(p, grid, values, 1e-8 + PRINT_REL, pairs=pairs)
            k = grid.index(1.0)
            problems += torus_v1(det_terms, math.log(values[k]), 1e-8,
                                 PRINT_REL)
    elif cmd == "degree":
        problems += degree(p, det_terms, json.loads(stdout), pairs=())
    elif cmd == "convexity":
        obj = json.loads(stdout)
        bound = exponent_bound(p)
        if obj["passed"] is not True or obj["violations"] or \
                obj["slope_violations"]:
            problems.append(f"convexity failed: {obj}")
        if abs(obj["slope_bound"] - bound) > 1e-9 * max(1.0, bound):
            problems.append(f"slope bound {obj['slope_bound']} != {bound}")
        if obj["slope_range"] > bound + 1e-6:
            problems.append(f"slope range {obj['slope_range']} > {bound}")
    elif cmd == "mahler":
        obj = json.loads(stdout)
        if one_var:
            ref = Roots(_univariate(det_terms)).log_scaled(1.0)
            if abs(obj["log_measure"] - ref) > (JENSEN_LOG_TOL + PRINT_REL) \
                    * max(1.0, abs(ref)):
                problems.append(f"log M {obj['log_measure']} != {ref}")
        else:
            problems += torus_v1(det_terms, obj["log_measure"],
                                 obj["achieved_tol"], PRINT_REL)
    else:
        problems.append(f"unknown command {cmd}")
    return problems


def scenario(argv, stdout, refs):
    """Triple figure-eight rows: norm, zero count, leading coefficient."""
    obj = json.loads(stdout)
    rows = obj if isinstance(obj, list) else [obj]
    if "--sweep" in argv and len(rows) != int(argv[argv.index("--sweep") + 1]):
        return [f"sweep has {len(rows)} rows"]
    phi_args = [a for a in argv if a.startswith("--phi=")]
    if phi_args:
        want = [float(x) for x in phi_args[0][len("--phi="):].split(",")]
        if rows[0]["phi"] != want:
            return [f"phi {rows[0]['phi']} != {want}"]
    problems = []
    v3 = refs["v3"]
    for row in rows:
        phi = row["phi"]
        norm = sum(abs(x) for x in phi)
        delta = sum(1 for x in phi if x == 0)
        leading = math.exp(delta * v3 / (3 * math.pi))
        if (abs(row["norm"] - norm) > 1e-10 or row["delta"] != delta
                or abs(row["leading"] - leading) > PRINT_REL * leading
                or abs(row["deg_b"] - norm) > 1e-10):
            problems.append(f"section9 row {row}: norm {norm}, delta {delta},"
                            f" leading {leading}")
    return problems


# -- per-workload dispatch ---------------------------------------------------

def _curves2v(item, out, refs):
    grid = geometric(CURVE_GRID)
    return (determinant(item, out["det"])
            + curve(item, grid, out["values"], 1e-8)
            + degree(item, out["det"], out["degree"])
            + torus_v1(out["det"], *out["v1"]))


def _presentations(item, out, refs):
    problems = (determinant(item, out["det"])
                + degree(item, out["det"], out["degree"]))
    if item["nvars"] == 1:
        problems += jensen_curve(item, out["det"],
                                 geometric(PRESENTATION_GRID),
                                 out["values"], refs)
    return problems


CHECKS = {"curves2v": _curves2v, "presentations": _presentations, "cli": cli}


def check(workload, item, out, refs):
    """Problems with one op's output; an exception in a check is one too."""
    try:
        return CHECKS[workload](item, out, refs)
    except (ArithmeticError, ValueError, KeyError, TypeError,
            mpmath.libmp.NoConvergence) as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]
