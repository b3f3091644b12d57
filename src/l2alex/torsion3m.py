"""L2-Alexander torsion functions assembled from presentation data.

A presentation (square integer matrix A, class sigma, max-pairs (a_i, b_i))
yields the torsion representative

    tau(t) = [ V(t) * prod_i max(t^{a_i}, t^{b_i})^{-1} ]^{1/index},

where V is the determinant function of (A, sigma). tau is defined up to a
monomial factor t^r.

Closed forms cover the classical families: fibered classes are 1 below
e^{-h} and t^x above e^{h} (h the monodromy entropy, x the Thurston norm),
with only the single value e^{Vol/6pi} at t = 1 known inside the gap; zero
simplicial volume gives max(1, t)^x everywhere; a zero class on a piece of
volume Vol gives the constant e^{Vol/6pi}. Gluing along tori multiplies the
pieces pointwise, adds degrees, and multiplies leading coefficients.

The triple-figure-eight landscape: three figure-eight knot complements glued
to a thrice-holed-sphere circle bundle. Classes live in the plane
phi_0 + phi_1 + phi_2 = 0, the Thurston norm is |phi_0| + |phi_1| + |phi_2|
(unit ball a regular hexagon), and the leading coefficient is
exp(delta * v3 / 3pi) with delta the number of zero coordinates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .degree import AsymptoteReport, DetFunction, check_index, det_function
from .errors import QuadratureBudgetError, ZeroPolynomialError
from .laurent import LaurentMatrix
from .mahler import saturating_exp
from .twist import CohomClass, check_t, check_tol

V3 = 1.0149416064096536            # volume of the regular ideal tetrahedron
FIGURE_EIGHT_VOLUME = 2.0 * V3
FIGURE_EIGHT_ENTROPY = math.log((3.0 + math.sqrt(5.0)) / 2.0)

_ZERO_SNAP = 1e-12


def _saturating_pow(t: float, x: float) -> float:
    """t^x for t >= 1, x >= 0, or inf where it exceeds the double range."""
    try:
        return t ** x
    except OverflowError:
        return math.inf


class _Unspecified:
    """Value of a fibered torsion inside [e^{-h}, e^{h}]: not determined."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "unspecified"


UNSPECIFIED = _Unspecified()


@dataclass(frozen=True)
class TorsionSpec:
    """Presentation data: matrix, class, max-pair values, index."""

    matrix: LaurentMatrix
    cohom: CohomClass
    pairs: tuple = ()
    index_divisor: int = 1

    def __post_init__(self):
        pairs = tuple((float(a), float(b)) for a, b in self.pairs)
        if any(not (math.isfinite(a) and math.isfinite(b)) for a, b in pairs):
            raise ValueError("pair values must be finite")
        object.__setattr__(self, "pairs", pairs)
        check_index(self.index_divisor)


class PresentationTorsion:
    """tau(t) = V(t) * prod_i max(t^{a_i}, t^{b_i})^{-1}.

    The index is already inside: V carries the 1/index power, and the pairs
    are the presentation's divided by the index.
    """

    def __init__(self, numerator: DetFunction, pairs):
        self.numerator = numerator
        self.pairs = tuple((float(a), float(b)) for a, b in pairs)

    @property
    def zero_function(self) -> bool:
        return self.numerator.is_zero

    def value(self, t: float, tol: float = 1e-8):
        """tau(t), saturating to inf beyond the double range; a
        QuadratureBudgetError carries an estimate of log tau(t)."""
        check_t(t)
        check_tol(tol)
        if self.zero_function:
            return 0.0
        try:
            logv = self.numerator.log_eval(t, tol)
        except QuadratureBudgetError as exc:
            exc.best_estimate = self._divide_pairs(exc.best_estimate, t)
            raise
        return saturating_exp(self._divide_pairs(logv, t))

    def _divide_pairs(self, logv: float, t: float) -> float:
        """log V(t) - sum_i max(a_i log t, b_i log t)."""
        lt = math.log(t)
        for a, b in self.pairs:
            logv -= max(a * lt, b * lt)
        return logv

    def degree_report(self, tol: float = 1e-8) -> AsymptoteReport:
        if self.zero_function:
            raise ZeroPolynomialError("zero torsion function has no degree")
        base = self.numerator.asymptote(tol)
        d_plus = base.d_plus - sum(max(a, b) for a, b in self.pairs)
        d_minus = base.d_minus - sum(min(a, b) for a, b in self.pairs)
        return AsymptoteReport(d_plus, d_minus, base.C_plus, base.C_minus,
                               base.method)


class FiberedTorsion:
    """Fibered class: 1 on (0, e^{-h}), t^x on (e^{h}, inf).

    Values inside [e^{-h}, e^{h}] are not specified by the closed form; only
    t = 1 is known (e^{Vol/6pi}) when the volume is supplied.
    """

    zero_function = False

    def __init__(self, entropy: float, norm: float, volume: float | None = None):
        if entropy < 0 or norm < 0:
            raise ValueError("entropy and norm must be nonnegative")
        self.entropy = float(entropy)
        self.norm = float(norm)
        self.volume = None if volume is None else float(volume)

    def value(self, t: float, tol: float = 1e-8):
        check_t(t)
        if t < math.exp(-self.entropy):
            return 1.0
        if t > saturating_exp(self.entropy):
            return _saturating_pow(t, self.norm)
        if t == 1.0 and self.volume is not None:
            return math.exp(self.volume / (6.0 * math.pi))
        return UNSPECIFIED

    def degree_report(self, tol: float = 1e-8) -> AsymptoteReport:
        return AsymptoteReport(self.norm, 0.0, 1.0, 1.0, "closed-form")


class GraphTorsion(FiberedTorsion):
    """Zero simplicial volume: max(1, t)^x on all of (0, inf), the fibered
    form with entropy 0 and volume 0."""

    def __init__(self, norm: float):
        super().__init__(0.0, norm, 0.0)


class ConstantTorsion:
    """Zero class on a piece of positive volume: constant e^{Vol/6pi}."""

    zero_function = False

    def __init__(self, value: float):
        if value <= 0:
            raise ValueError("constant torsion value must be positive")
        self.constant = float(value)

    def value(self, t: float, tol: float = 1e-8):
        check_t(t)
        return self.constant

    def degree_report(self, tol: float = 1e-8) -> AsymptoteReport:
        return AsymptoteReport(0.0, 0.0, self.constant, self.constant,
                               "closed-form")


class ProductTorsion:
    """Pointwise product of pieces glued along torsion-free tori."""

    def __init__(self, pieces):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("need at least one piece")
        self.pieces = pieces

    @property
    def zero_function(self) -> bool:
        return any(p.zero_function for p in self.pieces)

    def value(self, t: float, tol: float = 1e-8):
        out = 1.0
        for piece in self.pieces:
            val = piece.value(t, tol)
            if val is UNSPECIFIED:
                return UNSPECIFIED
            out *= val
        return out

    def degree_report(self, tol: float = 1e-8) -> AsymptoteReport:
        reports = [p.degree_report(tol) for p in self.pieces]
        method = ("closed-form"
                  if all(r.method == "closed-form" for r in reports)
                  else "mixed")
        return AsymptoteReport(
            sum(r.d_plus for r in reports), sum(r.d_minus for r in reports),
            math.prod(r.C_plus for r in reports),
            math.prod(r.C_minus for r in reports), method)


def torsion_from_presentation(spec: TorsionSpec) -> PresentationTorsion:
    """tau(t) = [V(t) * prod max(t^a, t^b)^{-1}]^{1/index}.

    A constantly-zero determinant yields the zero torsion function (the
    conventional value 0 everywhere), flagged via ``zero_function``.
    """
    k = spec.index_divisor
    numerator = det_function(spec.matrix, spec.cohom, index_divisor=k)
    return PresentationTorsion(numerator,
                               [(a / k, b / k) for a, b in spec.pairs])


def torsion_degree(tau, tol: float = 1e-8) -> AsymptoteReport:
    return tau.degree_report(tol)


# -- the triple-figure-eight landscape --------------------------------------

def _snap_zeros(phi):
    out = []
    for x in phi:
        if x != 0.0 and abs(x) <= _ZERO_SNAP:
            warnings.warn(f"coordinate {x!r} within {_ZERO_SNAP} of 0 "
                          f"counts as an exact zero", stacklevel=3)
            out.append(0.0)
        else:
            out.append(float(x))
    return tuple(out)


def _check_plane(phi):
    if len(phi) != 3:
        raise ValueError("expected a triple")
    if abs(phi[0] + phi[1] + phi[2]) > _ZERO_SNAP:
        raise ValueError(
            f"coordinates must sum to 0 (got {phi[0] + phi[1] + phi[2]!r})")


def triple_figure_eight(phi) -> dict:
    """Norm, zero count, and leading coefficient at a class of the landscape.

    norm = |phi_0| + |phi_1| + |phi_2|; delta counts exact zero coordinates;
    leading = exp(delta * v3 / 3pi). vol_check is exp(Vol/6pi) for the total
    volume Vol = 6 v3 (three pieces of volume 2 v3), the value of the glued
    torsion at t = 1 and the upper bound for every leading coefficient.
    """
    phi = _snap_zeros(phi)
    _check_plane(phi)
    delta = sum(1 for x in phi if x == 0.0)
    return {
        "norm": abs(phi[0]) + abs(phi[1]) + abs(phi[2]),
        "delta": delta,
        "leading": math.exp(delta * V3 / (3.0 * math.pi)),
        "vol_check": math.exp(6.0 * V3 / (6.0 * math.pi)),
    }


def triple_figure_eight_torsion(phi) -> ProductTorsion:
    """The glued torsion: fibered pieces for phi_i != 0, constants for 0.

    A nonzero restriction c times the fiber class behaves as a fibered class
    with entropy h/|c| and norm |c| (rescaling the parameter t -> t^c); the
    zero restriction gives the constant e^{Vol/6pi} piece.
    """
    phi = _snap_zeros(phi)
    _check_plane(phi)
    pieces = []
    for x in phi:
        if x == 0.0:
            pieces.append(ConstantTorsion(
                math.exp(FIGURE_EIGHT_VOLUME / (6.0 * math.pi))))
        else:
            pieces.append(FiberedTorsion(FIGURE_EIGHT_ENTROPY / abs(x),
                                         abs(x), FIGURE_EIGHT_VOLUME))
    return ProductTorsion(pieces)
