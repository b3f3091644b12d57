"""Independent oracles used to pin expected values, and audits of the
paper's claims.

The oracles deliberately avoid the library's own evaluation paths: the
torus-mean oracles sample log|p| directly (no root finding, no Jensen
reduction), and the determinant oracle is a plain cofactor recursion. The
involution and the matrix adjoint, which the library does not need, live
here for the identities that tests check with them. The
Fox-calculus helpers build presentation matrices from group words, so that
knot groups reach the library the way the paper's inputs do.

The audits at the end do the opposite: they call the library and check
what the paper claims about the torsion it returns. tau(phi) and tau(-phi)
agree up to a monomial (``symmetry_check``), the degree varies in a
Lipschitz way with the class (``lipschitz_degree_check``), and the
Thurston norm of the section 9 landscape has the hexagon as its unit ball
(``hexagon_norm_check``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from l2alex import (UNSPECIFIED, CohomClass, DetFunction, LaurentMatrix,
                    LaurentPoly, ZeroPolynomialError, exponent_bound)
from l2alex.torsion3m import _ZERO_SNAP, _check_plane, _snap_zeros

_MAX_DEPTH = 48
# Integration start is shifted by an irrational-ish offset so panel
# endpoints and midpoints never coincide with roots at rational angles
# (integer polynomials love z = +-1, +-i).
_OFFSET = 0.20240817


def quad_log_mahler_1v(p: LaurentPoly, tol: float = 1e-9) -> float:
    """Mean of log|p(e^{i theta})| by adaptive Simpson over [off, off + 2pi].

    Each interval carries the standard |S_halves - S_whole| / 15 error
    estimate; every sweep splits the intervals holding more than an
    equidistributed share of the absolute budget, until the estimates sum
    below it. The depth cap keeps integrable log singularities at on-circle
    roots from refining past the point of diminishing returns (their tails
    are O(2^-48)). Evaluation is batched through numpy.
    """
    ks = np.array([k for (k,) in sorted(p.terms)], dtype=np.int64)
    cs = np.array([p.terms[(k,)] for k in ks], dtype=np.complex128)

    def f(thetas):
        z = np.exp(1j * np.asarray(thetas))
        vals = (cs[None, :] * z[:, None] ** ks[None, :]).sum(axis=1)
        return np.log(np.maximum(np.abs(vals), 1e-300))

    def simpson(a, b, va, vm, vb):
        return (b - a) / 6.0 * (va + 4.0 * vm + vb)

    pieces = 16
    edges = _OFFSET + 2.0 * np.pi * np.arange(pieces + 1) / pieces
    mids = 0.5 * (edges[:-1] + edges[1:])
    fe = f(edges)
    fm = f(mids)

    # interval record: (a, b, fa, fm, fb, whole_estimate, depth)
    intervals = [(edges[i], edges[i + 1], fe[i], fm[i], fe[i + 1], None, 0)
                 for i in range(pieces)]
    # refine once up front so every interval has (whole, fine) available
    tol_total = tol * 2.0 * np.pi

    def refine(batch):
        arr_m = np.array([0.5 * (it[0] + it[1]) for it in batch])
        arr_lm = np.array([0.25 * (3 * it[0] + it[1]) for it in batch])
        arr_rm = np.array([0.25 * (it[0] + 3 * it[1]) for it in batch])
        flm = f(arr_lm)
        frm = f(arr_rm)
        out = []
        for i, (a, b, va, vm, vb, _, depth) in enumerate(batch):
            m = arr_m[i]
            whole = simpson(a, b, va, vm, vb)
            left = simpson(a, m, va, flm[i], vm)
            right = simpson(m, b, vm, frm[i], vb)
            err = abs(left + right - whole) / 15.0
            value = left + right + (left + right - whole) / 15.0
            out.append({"a": a, "b": b, "va": va, "vm": vm, "vb": vb,
                        "vlm": flm[i], "vrm": frm[i], "value": value,
                        "err": err, "depth": depth})
        return out

    live = refine(intervals)
    for _ in range(10_000):
        live.sort(key=lambda it: it["a"])
        total_err = sum(it["err"] for it in live)
        if total_err <= tol_total:
            break
        threshold = tol_total / len(live)
        split = [it for it in live
                 if it["err"] > threshold and it["depth"] < _MAX_DEPTH]
        if not split:
            break
        children = []
        for it in split:
            m = 0.5 * (it["a"] + it["b"])
            children.append((it["a"], m, it["va"], it["vlm"], it["vm"],
                             None, it["depth"] + 1))
            children.append((m, it["b"], it["vm"], it["vrm"], it["vb"],
                             None, it["depth"] + 1))
        split_ids = {id(it) for it in split}
        live = [it for it in live if id(it) not in split_ids]
        live.extend(refine(children))
    live.sort(key=lambda it: it["a"])
    return sum(it["value"] for it in live) / (2.0 * np.pi)


def quad_mahler_1v(p: LaurentPoly, tol: float = 1e-9) -> float:
    return math.exp(quad_log_mahler_1v(p, tol))


def trapezoid_mahler_2v(p: LaurentPoly, n: int = 1024) -> float:
    """Brute-force n x n torus trapezoid for a 2-variable polynomial."""
    assert p.nvars == 2
    theta = 2.0 * np.pi * np.arange(n) / n
    z1 = np.exp(1j * theta)
    total = 0.0
    for t2 in np.exp(1j * theta):
        val = np.zeros(n, dtype=np.complex128)
        for (e1, e2), c in p.terms.items():
            val += c * z1 ** e1 * t2 ** e2
        total += float(np.log(np.abs(val)).sum())
    return math.exp(total / (n * n))


def cofactor_determinant(rows):
    """Plain cofactor-expansion determinant of a list-of-lists matrix."""
    n = len(rows)
    if n == 0:
        raise ValueError("use 1 as the empty determinant")
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j]
                 for i in range(1, n)]
        term = rows[0][j] * cofactor_determinant(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def involution(p: LaurentPoly) -> LaurentPoly:
    """sum a_v z^v -> sum conj(a_v) z^{-v}."""
    return LaurentPoly(p.nvars, {tuple(-e for e in exp): c.conjugate()
                                 for exp, c in p.terms.items()})


def adjoint(a: LaurentMatrix) -> LaurentMatrix:
    """Transpose with entrywise involution: (A*)_{ij} = (A_{ji})*."""
    return LaurentMatrix([[involution(p) for p in col] for col in zip(*a.rows)],
                         nvars=a.nvars)


# -- Fox calculus ------------------------------------------------------------
#
# A free-group word is a list of letters (generator, +1 or -1).

def inverse_word(word):
    return [(g, -sign) for g, sign in reversed(word)]


def fox_derivative_1v(word, gen):
    """The Fox derivative d word / d gen with every generator sent to z.

    By the rule d(uv) = du + u dv with d gen = 1 and d gen^-1 = -gen^-1, each
    letter gen^+-1 adds +-z^e, where e is the exponent sum of the word before
    it (through it, for gen^-1). Returns the {(e,): coefficient} terms.
    """
    terms = {}
    e = 0
    for g, sign in word:
        if sign < 0:
            e -= 1
        if g == gen:
            terms[(e,)] = terms.get((e,), 0) + sign
        if sign > 0:
            e += 1
    return {k: c for k, c in terms.items() if c}


def two_bridge_relator(p: int, q: int):
    """The relator w x w^-1 y^-1 of the 2-bridge knot b(p, q) (p odd).

    The group is <x, y | w x = y w>, where w = x^e1 y^e2 x^e3 ... has p - 1
    letters alternating from x and e_i = (-1)^floor(i q / p).
    """
    w = [("xy"[i % 2], (-1) ** ((i + 1) * q // p)) for i in range(p - 1)]
    return w + [("x", 1)] + inverse_word(w) + [("y", -1)]


# -- audits of the paper's claims --------------------------------------------

@dataclass
class SymmetryReport:
    """Affine fit of log tau - log tau_neg against log t."""

    slope: float
    intercept: float
    max_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def symmetry_check(tau, tau_neg, grid,
                   tol: float = 1e-9, eval_tol: float = 1e-10) -> SymmetryReport:
    """Check tau and tau_neg agree up to a monomial factor t^r on the grid.

    Fits log tau(t) - log tau_neg(t) = r log t + beta by least squares and
    reports the fitted r, the intercept, and the largest residual.
    """
    if tau.zero_function or tau_neg.zero_function:
        raise ZeroPolynomialError("symmetry check undefined for zero functions")
    xs, ys = [], []
    for t in grid:
        va = tau.value(t, eval_tol)
        vb = tau_neg.value(t, eval_tol)
        if va is UNSPECIFIED or vb is UNSPECIFIED:
            continue
        xs.append(math.log(t))
        ys.append(math.log(va) - math.log(vb))
    if len(xs) < 2:
        raise ValueError("grid leaves fewer than 2 evaluable points")
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx > 0 else 0.0
    intercept = my - slope * mx
    residual = max(abs(y - slope * x - intercept) for x, y in zip(xs, ys))
    return SymmetryReport(slope, intercept, residual, tol)


_LIPSCHITZ_SLACK = 1e-9


@dataclass
class LipschitzReport:
    """Degrees along sigma + lambda * xi and the 2R(A, xi) modulus audit."""

    lambdas: list
    degrees: list
    bound_2r: float
    max_ratio: float = 0.0
    violations: list = field(default_factory=list)
    degenerate: bool = False

    @property
    def passed(self) -> bool:
        return self.degenerate or not self.violations


def lipschitz_degree_check(a: LaurentMatrix, base: CohomClass, xi: CohomClass,
                           steps: int, tol: float = 1e-8) -> LipschitzReport:
    """Sample deg_b along the segment and test the Lipschitz modulus.

    Degrees at sigma_lambda = base + lambda * xi may differ by at most
    2 * |lambda - mu| * R(A, xi) (+1e-9 slack). A constantly-zero
    determinant makes every degree undefined; that degenerate case is
    reported and the check skipped.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    bound = exponent_bound(a, xi)
    det = a.determinant()
    lambdas = [k / steps for k in range(steps + 1)]
    if det.is_zero:
        return LipschitzReport(lambdas, [], 2.0 * bound, degenerate=True)

    degrees = []
    for lam in lambdas:
        sigma = tuple(b + lam * x for b, x in zip(base.sigma, xi.sigma))
        fn = DetFunction(det, CohomClass(sigma))
        degrees.append(fn.asymptote(tol).deg_b)

    report = LipschitzReport(lambdas, degrees, 2.0 * bound)
    for i in range(len(lambdas)):
        for j in range(i + 1, len(lambdas)):
            gap = abs(degrees[j] - degrees[i])
            allowed = 2.0 * abs(lambdas[j] - lambdas[i]) * bound
            if bound > 0:
                report.max_ratio = max(report.max_ratio, gap / allowed)
            if gap > allowed + _LIPSCHITZ_SLACK:
                report.violations.append((lambdas[i], lambdas[j], gap, allowed))
    return report


HEXAGON_VERTICES = (
    (0.5, -0.5, 0.0), (-0.5, 0.5, 0.0),
    (0.0, 0.5, -0.5), (0.0, -0.5, 0.5),
    (-0.5, 0.0, 0.5), (0.5, 0.0, -0.5),
)


def hexagon_norm_check(phi) -> bool:
    """Consistency of the norm with the hexagonal unit ball.

    True iff (norm <= 1) matches membership of phi in the convex hull of the
    six vertices inside the plane phi_0 + phi_1 + phi_2 = 0. Membership is
    computed geometrically (cross products around the hull), independent of
    the norm formula.
    """
    phi = _snap_zeros(phi)
    _check_plane(phi)
    point = (phi[0], phi[1])
    verts = sorted(((v[0], v[1]) for v in HEXAGON_VERTICES),
                   key=lambda v: math.atan2(v[1], v[0]))
    inside = True
    for k in range(len(verts)):
        ax, ay = verts[k]
        bx, by = verts[(k + 1) % len(verts)]
        cross = (bx - ax) * (point[1] - ay) - (by - ay) * (point[0] - ax)
        if cross < -_ZERO_SNAP:
            inside = False
            break
    norm_le_1 = (abs(phi[0]) + abs(phi[1]) + abs(phi[2])) <= 1.0 + _ZERO_SNAP
    return inside == norm_le_1
