"""Determinant functions V(t) and their degree analysis.

V(t) is the Mahler measure of the determinant polynomial with every monomial
z^v rescaled by t^{<sigma, v>}, raised to 1/index for virtually abelian
targets. The rescaling is ``twist.twist`` in several variables and the
closed form on the cached roots, at log scale log s_1, in one; both work in
log space, so every t > 0 gives a finite log V(t). The 1/index power of
values and leading coefficients, and the division of asymptote exponents by
the index, happen here and nowhere else. V is either constantly zero (zero
determinant) or multiplicatively convex with all log-log slopes bounded by
the exponent bound R of the matrix.

Both ends are exact for every real class: the monomials of p of largest
weight d = max <sigma, v> (smallest, for t -> 0+) form the face q, and

    log V(t) = log M(q) + d log t + o(1).

A decomposition sigma = sum r_i Phi_i weighs v by the integer w = Phi v, with
d = <r, w>; without one the weight is the float <sigma, v>. One grouping by
weight gives both faces ("chief parts"); for integer determinants they are
integer polynomials, so both leading coefficients are >= 1. These are
exp(log M(q) / index), the root taken in log space. An exponent beyond the
double range is reported as +-inf.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import (ChiefPartTieError, QuadratureBudgetError,
                     ZeroPolynomialError)
from .laurent import LaurentMatrix, LaurentPoly
from .mahler import (RootData, log_scaled_mahler_from_roots, log_mahler_mv,
                     mahler_mv_report, roots, saturating_exp)
from .quadrature import DEFAULT_NODE_BUDGET, NodeBudget
from .twist import (CohomClass, check_t, check_tol, dot, exponent_bound,
                    twist)

# <sigma, v> rounds at about 2^-52 of sum_j |sigma_j v_j|, and <r, w> of
# sum_i |r_i w_i|: two weights closer than this fraction of it are a tie
_TIE_RTOL = 2.0 ** -40
# log V(t) = d log t + log M(q) rounds at the size of d log t, to within a
# few ulps; comparisons of log values leave this many ulps of the largest
# one involved to rounding
_ROUNDING_ULPS = 8
_GRID_GEOMETRIC_RTOL = 1e-9


def check_index(index_divisor) -> int:
    """index_divisor as an int; ValueError unless an integer in 1..DBL_MAX."""
    if (not 1 <= index_divisor <= sys.float_info.max
            or int(index_divisor) != index_divisor):
        raise ValueError("index_divisor must be a positive integer within "
                         "the double range")
    return int(index_divisor)


@dataclass(frozen=True)
class AsymptoteReport:
    """Both-end asymptote data: V(t) ~ C * t^d at each end.

    deg_b = d_plus - d_minus is the growth bound degree (the width of the
    range of log-log slopes). ``method`` records how the ends were obtained:
    "exact-chief-part" (integer weights of a decomposition) and "face"
    (float weights) both carry the integer-coefficient guarantee C >= 1, and
    "closed-form" marks torsion-level formulas.
    """

    d_plus: float
    d_minus: float
    C_plus: float
    C_minus: float
    method: str

    @property
    def deg_b(self) -> float:
        return self.d_plus - self.d_minus

    def to_obj(self) -> dict:
        return {"d_plus": self.d_plus, "d_minus": self.d_minus,
                "deg_b": self.deg_b, "C_plus": self.C_plus,
                "C_minus": self.C_minus, "method": self.method}


class DetFunction:
    """Evaluable t -> V(t); the root data of one variable is kept."""

    def __init__(self, det_poly: LaurentPoly, cohom: CohomClass,
                 index_divisor: int = 1, exp_bound: float | None = None):
        if det_poly.nvars != cohom.nvars:
            raise ValueError(
                f"determinant has {det_poly.nvars} variables, "
                f"class has {cohom.nvars}")
        self.det_poly = det_poly
        self.cohom = cohom
        self.index_divisor = check_index(index_divisor)
        self.exp_bound = exp_bound
        self._rootdata: RootData | None = None

    @property
    def is_zero(self) -> bool:
        return self.det_poly.is_zero

    def _roots1v(self) -> RootData:
        if self._rootdata is None:
            self._rootdata = roots(self.det_poly)
        return self._rootdata

    def log_eval(self, t: float, tol: float = 1e-8) -> float:
        """log V(t) (-inf for the zero function), for t and tol positive
        and finite.

        Exact (closed form on the root factorization) in one variable;
        adaptive quadrature otherwise, whose QuadratureBudgetError carries
        estimates of log V(t) and of the error of that log.
        """
        check_t(t)
        check_tol(tol)
        if self.is_zero:
            return -math.inf
        k = self.index_divisor
        if self.det_poly.nvars == 1:
            log_s1 = self.cohom.variable_scales(t)[0]
            return log_scaled_mahler_from_roots(self._roots1v(), log_s1) / k
        q, log_scale = twist(self.det_poly, self.cohom, t)
        try:
            logm, _ = log_mahler_mv(q, tol, NodeBudget(DEFAULT_NODE_BUDGET))
        except QuadratureBudgetError as exc:
            exc.best_estimate = (exc.best_estimate + log_scale) / k
            exc.achieved_tol /= k
            raise
        return (logm + log_scale) / k

    def eval(self, t: float, tol: float = 1e-8) -> float:
        """V(t), saturating to inf if it exceeds the double range."""
        return saturating_exp(self.log_eval(t, tol))

    def asymptote(self, tol: float = 1e-8) -> AsymptoteReport:
        if self.is_zero:
            raise ZeroPolynomialError(
                "the constantly-zero function has no asymptote degrees")
        k = self.index_divisor
        (dp, cp), (dm, cm) = [
            (_end_weight(self.cohom, w) / k,
             saturating_exp(mahler_mv_report(q, tol).log_measure / k))
            for w, q in chief_part(self.det_poly, self.cohom)]
        method = "exact-chief-part" if self.cohom.has_decomposition else "face"
        return AsymptoteReport(dp, dm, cp, cm, method)


def det_function(a: LaurentMatrix, c: CohomClass,
                 index_divisor: int = 1) -> DetFunction:
    """Build V from a matrix and a class; the determinant is cached."""
    bound = exponent_bound(a, c)
    return DetFunction(a.determinant(), c, index_divisor, bound)


def _end_weight(c: CohomClass, w: tuple) -> float:
    return dot(c.r, w) if c.has_decomposition else w[0]


def chief_part(p: LaurentPoly, c: CohomClass):
    """Both extremal weight groups (faces) of p, from one grouping.

    Groups monomials by w = Phi v, or by w = (<sigma, v>,) without a
    decomposition, and returns ((w_plus, q_plus), (w_minus, q_minus)) for
    the group of largest weight (t -> +inf) and of smallest (t -> 0+),
    checked for ties in that order. A runner-up closer to it than
    _TIE_RTOL times the scale at which the two weights round is a tie. The
    scale is the larger sum_i |r_i w_i| of the two groups with a
    decomposition (a tie there breaks the asserted Q-linear independence of
    r), and the largest sum_j |sigma_j v_j| over their monomials without.
    """
    if p.is_zero:
        raise ZeroPolynomialError("chief part undefined for the zero polynomial")

    groups: dict[tuple, dict] = {}
    for exp, coeff in p.terms.items():
        w = c.integer_weight(exp) if c.has_decomposition else (c.weight(exp),)
        groups.setdefault(w, {})[exp] = coeff

    # ordered by (end weight, w): for d <= 1 that is the order of w itself
    order = sorted(groups) if c.d <= 1 else sorted(
        groups, key=lambda w: (_end_weight(c, w),) + w)
    faces = []
    for best, runners in ((order[-1], order[-2:-1]), (order[0], order[1:2])):
        top = _end_weight(c, best)
        for runner in runners:
            if c.has_decomposition:
                xs, vectors = c.r, (best, runner)
            else:
                xs, vectors = c.sigma, (*groups[best], *groups[runner])
            scale = max(dot([abs(x) for x in xs], [abs(n) for n in v])
                        for v in vectors)
            if abs(top - _end_weight(c, runner)) < _TIE_RTOL * scale:
                raise ChiefPartTieError(
                    f"weight groups {best} and {runner} tie at "
                    f"{top!r}: only a decomposition into rationally "
                    f"independent r separates them")
        faces.append((best, LaurentPoly(p.nvars, groups[best])))
    return tuple(faces)


def _rounding(logs) -> float:
    return _ROUNDING_ULPS * math.ulp(max(map(abs, logs)))


@dataclass
class ConvexityReport:
    """Midpoint-convexity and slope-range audit of V on a geometric grid."""

    grid: list
    log_values: list
    violations: list = field(default_factory=list)
    slope_violations: list = field(default_factory=list)
    slope_min: float = 0.0
    slope_max: float = 0.0
    slope_bound: float | None = None
    zero_function: bool = False

    @property
    def slope_range(self) -> float:
        return self.slope_max - self.slope_min

    @property
    def passed(self) -> bool:
        return not self.violations and not self.slope_violations


def convexity_check(v: DetFunction, grid,
                    tol: float = 1e-6) -> ConvexityReport:
    """Check multiplicative convexity and the exponent bound on a grid.

    For every adjacent triple of the geometric grid, the midpoint must obey
    log V(mid) <= (log V(lo) + log V(hi)) / 2 + tol. The log-log slopes of
    adjacent points (any other chord's slope is a positive mean of them)
    must all fit in one window of width exp_bound + tol: the matrix
    exponent bound R caps deg_b, the total spread of slopes, not |slope|
    itself (V(t) = t from the 1x1 matrix [z] has constant slope 1 with
    R = 0). Everything is read from log V, finite for every t > 0 also
    where V leaves the double range. Both bounds also leave
    _ROUNDING_ULPS ulps of the largest |log V| involved (divided by the
    log t step for slopes) to rounding, which matters only where log V is
    huge: at 1e19 log t an ulp is 1024. An excess or range that cannot be
    compared (nan: inf - inf, where log V leaves the double range) is a
    violation. A constantly-zero function passes trivially (flagged, its
    log values -inf).
    """
    check_tol(tol)
    grid = [float(t) for t in grid]
    for t in grid:
        check_t(t)
    if len(grid) < 3:
        raise ValueError("grid needs at least 3 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    for a, m, b in zip(grid, grid[1:], grid[2:]):
        if abs(m * m - a * b) > _GRID_GEOMETRIC_RTOL * m * m:
            raise ValueError("grid must be geometric (t_mid = sqrt(lo * hi))")

    if v.is_zero:
        return ConvexityReport(grid, [-math.inf] * len(grid),
                               zero_function=True)

    logs = [v.log_eval(t) for t in grid]
    logt = [math.log(t) for t in grid]

    report = ConvexityReport(grid, logs, slope_bound=v.exp_bound)
    for i in range(len(grid) - 2):
        excess = logs[i + 1] - 0.5 * (logs[i] + logs[i + 2])
        if not excess <= tol + _rounding(logs[i:i + 3]):
            report.violations.append((grid[i], grid[i + 1], grid[i + 2], excess))

    slopes = [(logs[i + 1] - logs[i]) / (logt[i + 1] - logt[i])
              for i in range(len(grid) - 1)]
    lo = min(range(len(slopes)), key=slopes.__getitem__)
    hi = max(range(len(slopes)), key=slopes.__getitem__)
    report.slope_min, report.slope_max = slopes[lo], slopes[hi]
    step = min(b - a for a, b in zip(logt, logt[1:]))
    if (v.exp_bound is not None and not report.slope_range
            <= v.exp_bound + tol + _rounding(logs) / step):
        report.slope_violations.append(
            ((grid[lo], grid[lo + 1]), (grid[hi], grid[hi + 1]),
             report.slope_range))
    return report
