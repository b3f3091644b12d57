"""Cohomology classes on a free-abelian target and the determinant twist.

A real class is the covector sigma with sigma_j = phi(z_j). The twist at
parameter t > 0 rescales the monomial a * z^v to a * t^<sigma, v> * z^v; it
is a ring homomorphism in the matrix algebra and anti-commutes with the
involution sum a_v z^v -> sum conj(a_v) z^{-v}: twisting at t then taking
the involution equals taking the involution and twisting at 1/t.

A class may carry an exact decomposition sigma = sum_i r_i * Phi_i with
positive reals r_1..r_d (the user asserts their Q-linear independence) and
integer covectors Phi_i; asymptote extraction then judges ties between
monomials exactly. When sigma is rational the library builds the d = 1
decomposition itself via continued fractions (denominators <= 10^6, each
sigma_j within 1e-12 |sigma_j| of its fraction); other classes may bring
their own, which must reproduce each sigma_j within 1e-12 sum_i |r_i Phi_ij|.
Every sigma_j and r_i must be finite.

The one twist routine, ``twist``, works in log space: it returns the twisted
polynomial divided by its largest coefficient magnitude, together with the
log of that magnitude, so no t > 0 overflows or underflows it. Its
per-variable log scales come from one shared routine (``variable_scales``):
the log of the double prod_i (t^{r_i})^{Phi_ij} while that double is in
range, and sigma_j log t beyond it. Hence the scaling identity
twist(p, sigma.scaled(c), t) == twist(p, sigma, t**c) holds to the last bit,
in both the polynomial and the log scale, wherever the underlying float
powers coincide.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import IllConditionedError
from .laurent import LaurentMatrix, LaurentPoly

_MAX_DENOMINATOR = 10 ** 6
_MATCH_RTOL = 1e-12      # relative error of sigma_j against its exact form


def _powint(s: float, m: int) -> float:
    """s^m for integer m, with negative powers routed through 1/s.

    Routing m < 0 through (1/s)^{-m} makes the twist-at-1/t and the
    negated-class twist produce bitwise-identical factors.
    """
    if m >= 0:
        return s ** m
    return (1.0 / s) ** (-m)


def check_t(t: float) -> None:
    """ValueError unless t is positive and finite: every function's domain."""
    if not 0 < t < math.inf:
        raise ValueError(
            f"twist parameter t must be positive and finite, got {t!r}")


def check_tol(tol: float) -> None:
    """ValueError unless tol is positive and finite: every tolerance's
    domain."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")


class CohomClass:
    """Real covector on the l generators plus optional exact decomposition."""

    __slots__ = ("sigma", "r", "phi")

    def __init__(self, sigma: Sequence[float],
                 r: Sequence[float] | None = None,
                 phi: Sequence[Sequence[int]] | None = None):
        sigma = tuple(float(x) for x in sigma)
        if not all(math.isfinite(x) for x in sigma):
            raise ValueError(f"sigma entries must be finite, got {sigma}")
        if (r is None) != (phi is None):
            raise ValueError("r and phi must be given together")
        if r is not None:
            r = tuple(float(x) for x in r)
            try:
                rows = tuple(tuple(map(int, row)) for row in phi)
            except (OverflowError, ValueError):     # inf, nan
                rows = None
            if rows != tuple(map(tuple, phi)):
                raise ValueError(f"phi entries must be integers, got {phi}")
            phi = rows
            if not all(math.isfinite(x) for x in r):
                raise ValueError(f"r entries must be finite, got {r}")
            if not r or any(x <= 0 for x in r):
                raise ValueError("r entries must be positive")
            if len(phi) != len(r):
                raise ValueError("phi must have one row per r entry")
            if any(len(row) != len(sigma) for row in phi):
                raise ValueError("phi rows must have length len(sigma)")
            for j, s in enumerate(sigma):
                column = [row[j] for row in phi]
                recon = dot(r, column)
                scale = dot(r, [abs(e) for e in column])
                if not abs(recon - s) <= _MATCH_RTOL * scale:
                    raise ValueError(
                        f"decomposition mismatch at component {j}: "
                        f"{recon} != {s}")
        else:
            built = _rational_decomposition(sigma)
            if built is not None:
                r, phi = built
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)

    def __setattr__(self, name, value):
        raise AttributeError("CohomClass is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.sigma)

    @property
    def has_decomposition(self) -> bool:
        return self.r is not None

    @property
    def d(self) -> int:
        return len(self.r) if self.r is not None else 0

    def __eq__(self, other):
        return (isinstance(other, CohomClass)
                and self.sigma == other.sigma
                and self.r == other.r and self.phi == other.phi)

    def __hash__(self):
        return hash((self.sigma, self.r, self.phi))

    def __repr__(self):
        dec = f", d={self.d}" if self.has_decomposition else ", undecomposed"
        return f"CohomClass(sigma={self.sigma}{dec})"

    # -- algebra -----------------------------------------------------------

    def weight(self, exp: Sequence[int]) -> float:
        """<sigma, v> for an exponent vector v, saturated to +-inf."""
        return dot(self.sigma, exp)

    def integer_weight(self, exp: Sequence[int]) -> tuple:
        """Phi v in Z^d (requires the decomposition)."""
        if not self.has_decomposition:
            raise ValueError("class has no exact decomposition")
        return tuple([sum(map(operator.mul, row, exp)) for row in self.phi])

    def scaled(self, c: float) -> "CohomClass":
        """The class c * sigma, with the decomposition carried along."""
        c = float(c)
        sigma = tuple(c * s for s in self.sigma)
        if not self.has_decomposition or c == 0.0:
            return CohomClass(sigma)
        if c > 0:
            return CohomClass(sigma, tuple(c * x for x in self.r), self.phi)
        return CohomClass(sigma, tuple(-c * x for x in self.r),
                          tuple(tuple(-e for e in row) for row in self.phi))

    def variable_scales(self, t: float) -> tuple:
        """log s_j of the per-variable scales: the twist factor of z^v is
        prod_j s_j^{v_j}.

        s_j is the double prod_i (t^{r_i})^{Phi_ij} with a decomposition and
        t^{sigma_j} without. Where it is positive and finite, log s_j is its
        log, so twists that build the same double share log s_j bit for bit;
        where it leaves the double range, log s_j = sigma_j log t.
        ValueError unless t is positive and finite (``check_t``);
        IllConditionedError where some sigma_j log t is itself beyond the
        double range.
        """
        check_t(t)
        out = []
        for j, sigma_j in enumerate(self.sigma):
            try:
                if self.has_decomposition:
                    s = 1.0
                    for ri, row in zip(self.r, self.phi):
                        s *= _powint(t ** ri, row[j])
                else:
                    s = t ** sigma_j
            except (OverflowError, ZeroDivisionError):
                s = math.inf
            out.append(math.log(s) if 0.0 < s < math.inf
                       else sigma_j * math.log(t))
        if not all(map(math.isfinite, out)):
            raise IllConditionedError(
                f"a log scale sigma_j log t at t = {t!r} leaves the double "
                "range")
        return tuple(out)


def dot(xs: Sequence[float], ns: Sequence[int], start: float = 0) -> float:
    """start + sum_i x_i * n_i, added left to right, for finite floats
    start and x_i and integers n_i.

    A sum beyond the double range saturates to +-inf with the sign of the
    exact sum, so it is never nan and never raises.
    """
    try:
        out = sum((x * n for x, n in zip(xs, ns)), start)
        if math.isfinite(out):
            return out
    except OverflowError:    # an n beyond the double range
        pass
    exact = sum((Fraction(x) * n for x, n in zip(xs, ns)), Fraction(start))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def _rational_decomposition(sigma):
    """d = 1 decomposition (1/lcm, integer row) for rational sigma, else None."""
    fracs = []
    for x in sigma:
        f = Fraction(x).limit_denominator(_MAX_DENOMINATOR)
        if abs(float(f) - x) > _MATCH_RTOL * abs(x):
            return None
        fracs.append(f)
    lcm = 1
    for f in fracs:
        lcm = math.lcm(lcm, f.denominator)
    row = tuple(int(f * lcm) for f in fracs)
    return (1.0 / lcm,), (row,)


def twist(p: LaurentPoly, c: CohomClass, t: float):
    """(q, log_scale): p twisted at t equals exp(log_scale) * q.

    The twist scales each monomial a * z^v by t^{<sigma, v>}. q keeps the
    exponents, and its coefficients are the twisted ones divided by the
    largest in magnitude, so max |coef| of q is 1. Every factor is summed in
    log space from ``variable_scales``, so an enormous |<sigma, v> log t|
    neither overflows nor loses the relative sizes the quadrature needs.
    A log factor beyond the double range, as from an exponent beyond it,
    saturates to +-inf (``dot``); when the largest one does, it is the log
    scale and q is its term alone, so that log V(t) = +-inf. The zero
    polynomial gives (0, -inf).
    """
    if p.nvars != c.nvars:
        raise ValueError(
            f"polynomial has {p.nvars} variables, class has {c.nvars}")
    logs = c.variable_scales(t)
    if p.is_zero:
        return p, -math.inf
    entries = [(exp, a, dot(logs, exp, math.log(abs(a))))
               for exp, a in p.terms.items()]
    exp, a, top = max(entries, key=lambda entry: entry[2])
    if not math.isfinite(top):
        return LaurentPoly(p.nvars, {exp: a / abs(a)}), top
    terms = {exp: (a / abs(a)) * math.exp(logfac - top)
             for exp, a, logfac in entries}
    return LaurentPoly(p.nvars, terms), top


def exponent_bound(a: LaurentMatrix, c: CohomClass) -> float | None:
    """R(A, phi) = p * (max - min) of <sigma, v> over the monomial support,
    or None for a matrix with no monomial, whose determinant function is
    constantly zero.

    Caps the magnitude of every log-log slope of the determinant function.
    Each weight is taken relative to the least monomial v0 of the support,
    as <sigma, v - v0>, so that the spread of weights survives exponents
    far beyond 2^53, or beyond the double range; a spread beyond the double
    range saturates to inf.
    """
    if a.nvars != c.nvars:
        raise ValueError(f"matrix has {a.nvars} variables, class has {c.nvars}")
    support = a.support_union()
    if not support:
        return None
    base = min(support)
    weights = [c.weight([x - b for x, b in zip(v, base)]) for v in support]
    return a.size * (max(weights) - min(weights))
