"""Mahler measures of Laurent polynomials.

The Mahler measure M(p) is exp of the mean of log|p| over the unit torus.
One variable is exact via Jensen's formula: factor p = D z^n prod (z - b_i)
and M(p) = |D| prod max(1, |b_i|). The scaled variant M(p(cz)) has the
closed form |D| c^n prod max(c, |b_i|), a piecewise monomial function of c
whose breakpoints sit at the root moduli; that is what makes one-variable
determinant functions exactly computable (``DetFunction`` evaluates it).
Both are summed in log space and a measure beyond the double range
saturates to inf (``saturating_exp``).

A term a z^u that outweighs all the others together, |a| > sum |b|, at
the least or greatest exponent of some variable z_j, puts the measure on a
face: by Rouché's theorem every root in z_j stays on one side of the unit
circle, and Jensen's formula gives M(p) = M(q), q the terms of p with
exponent u_j in z_j (see ``_dominant_face``). q has one variable fewer and
the same dominant term, so the reduction repeats down to Jensen, a single
term, or a face whose dominant term is interior in every variable; the
reported error is the last face's, 0 unless it takes a quadrature. Such
terms appear toward both ends of a t-grid, where V(t) is asymptotically
monomial.

Other polynomials of several variables reduce to nested one-variable
problems: the variable of largest exponent spread is integrated exactly by
Jensen on each slice (this absorbs the log singularities of log|p| on its
zero set), and the remaining angles are integrated by adaptive
Gauss-Kronrod panels (see ``quadrature``). The slice kernel
(``kernels.batch_log_mahler``) is the integrand of the last angle; it owns
the threshold below which a slice coefficient counts as zero, and raises
DegenerateSliceError for a slice that vanishes at a node.
When every coefficient is real, p(conj z) = conj p(z), so the slice
log-measure at outer angle -theta equals the one at theta and the outermost
angle is integrated over half the circle. With three or more variables this
holds at the outermost level by negating the inner angles too; the inner
integrals see coefficients folded with complex phases and stay on the full
circle. M(0) is 0 by convention.

Over the last outer angle, the slice log-measure has a corner wherever a
slice root crosses the unit circle: the first coordinate of a toric point
of the two-variable polynomial left there (Boyd & Rodriguez-Villegas,
"Mahler's measure and the dilogarithm (I)", 2002). Those angles are the
unit-circle roots of a resultant (see ``_toric_angles``), and every
integral over that angle (the outer one of two variables, each inner one
of three or more) starts from panels split there, so that its error
estimate sees every corner. The outer integrals of three or more
variables take no breaks. The search falls back to none when the
resultant vanishes identically (p and its conjugate reciprocal in the
outer variable share a factor, such as 1 + x), when its samples are not
finite, or when the bidegree would make the search too costly.
The reported error is at least the quadrature's rounding floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (IllConditionedError, QuadratureBudgetError,
                     ZeroPolynomialError)
from .laurent import LaurentPoly
from .quadrature import DEFAULT_NODE_BUDGET, NodeBudget, adaptive_circle_mean
from .twist import check_tol, dot

_TORIC_RADIUS = 1e-6     # a resultant root this near the circle is on it
_TORIC_SNR = 1e6         # resultant samples must exceed their rounding by this
_TORIC_MAX_ROOTS = 64    # largest resultant root-finder (see _toric_angles)
_RECONSTRUCTION_RTOL = 1e-9
_DOMINANCE_RTOL = 1e-14  # covers the rounding of the dominance test's sum
# Largest exponent spread that root finding takes, checked before any array
# is built: a degree-d companion matrix holds d^2 complex numbers (16 MiB at
# 1024, whose eigenvalues take seconds), and the slice kernel rows * d^2.
# Tier-1 reaches degree 40 and the l2bench workloads 24.
_MAX_DEGREE = 1024


@dataclass(frozen=True)
class RootData:
    """Factorization p = leading * z^power * prod (z - roots[i])."""

    leading: complex
    power: int
    roots: tuple


@dataclass(frozen=True)
class MahlerResult:
    measure: float
    log_measure: float
    achieved_tol: float


def _reconstruction_error(lead, rts, coeffs):
    """Relative mismatch between coeffs and lead * prod (z - b).

    Compared by values on the circle |z| = R that dominates every root, as
    p(R w) / R^d on |w| = 1: coefficients c_k R^(k-d) and roots b / R, so
    that no power of R can overflow. A mismatch that is not finite is
    returned as such; callers must count it as a failure.
    """
    scale = float(np.max(np.abs(coeffs)))
    d = len(coeffs) - 1
    radius = max(1.0, float(np.max(np.abs(rts))))
    ws = np.exp(2j * np.pi * (np.arange(2 * d + 3) + 0.39) / (2 * d + 3))
    with np.errstate(all="ignore"):
        scaled = coeffs / scale * radius ** np.arange(-d, 1.0)
        direct = np.polyval(scaled[::-1], ws)
        factored = np.full_like(ws, lead / scale)
        for b in rts / radius:
            factored *= ws - b
        return float(np.max(np.abs(direct - factored))
                     / np.max(np.abs(direct)))


def _check_degree(spread: int):
    if spread > _MAX_DEGREE:
        raise IllConditionedError(
            f"an exponent spread of {spread} exceeds {_MAX_DEGREE}, the "
            "largest degree that root finding takes")


def _univariate_coeffs(q: LaurentPoly):
    """(n, ascending coefficient array) with c[0] != 0, or None if q = 0."""
    if q.nvars != 1:
        raise ValueError(f"expected a one-variable polynomial, got {q.nvars}")
    if q.is_zero:
        return None
    exps = sorted(e[0] for e in q.terms)
    n, top = exps[0], exps[-1]
    _check_degree(top - n)
    coeffs = np.zeros(top - n + 1, dtype=np.complex128)
    for (e,), c in q.terms.items():
        coeffs[e - n] = c
    return n, coeffs


def roots(q: LaurentPoly) -> RootData:
    """Factor a nonzero one-variable Laurent polynomial.

    Strips the monomial factor z^n, then takes the roots of the residual
    polynomial from companion-matrix eigenvalues (``kernels.companion_roots``),
    which are the exact roots of a nearby polynomial (Edelman & Murakami,
    "Polynomial roots from companion matrix eigenvalues", 1995). That is
    checked once, by reconstructing the polynomial from its factorization
    (1e-9 relative); IllConditionedError if the mismatch is larger or not
    finite, and before any array is built if the degree exceeds
    _MAX_DEGREE.
    """
    parsed = _univariate_coeffs(q)
    if parsed is None:
        raise ZeroPolynomialError("the zero polynomial has no root data")
    n, coeffs = parsed
    lead = complex(coeffs[-1])
    if len(coeffs) == 1:
        return RootData(lead, n, ())
    rts = kernels.companion_roots(coeffs[None, :])[0]
    if not _reconstruction_error(lead, rts, coeffs) <= _RECONSTRUCTION_RTOL:
        raise IllConditionedError(
            "root finding failed the reconstruction check; "
            "the input polynomial is too ill-conditioned")
    order = np.lexsort((rts.imag, rts.real))
    return RootData(lead, n, tuple(complex(b) for b in rts[order]))


def saturating_exp(x: float) -> float:
    """exp(x), or inf where it exceeds the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def log_scaled_mahler_from_roots(rd: RootData, log_c: float) -> float:
    """log M(p(c z)) from log c, so c itself may lie outside the doubles,
    and so may the exponent of the monomial factor (``twist.dot``)."""
    out = dot((log_c,), (rd.power,), math.log(abs(rd.leading)))
    for b in rd.roots:
        out += max(log_c, math.log(abs(b)))
    return out


def _project_support(p: LaurentPoly) -> LaurentPoly:
    """Drop variables of zero exponent spread: they do not affect M, and
    every monomial has the same exponent there, so none merge."""
    live = [j for j in range(p.nvars) if p.spread(j) > 0]
    if len(live) == p.nvars:
        return p
    return LaurentPoly(len(live), {tuple(exp[j] for j in live): c
                                   for exp, c in p.terms.items()})


def _dominant_face(p: LaurentPoly):
    """The face of p that carries its Mahler measure, with one variable
    fewer, or None.

    Suppose one term a z^u outweighs all the others together, |a| > sum |b|,
    and u_j is the least exponent of some variable z_j. On the torus, the
    coefficient of z_j^(u_j) in p then exceeds, in modulus, the rest of p
    as a polynomial in z_j, so by Rouché's theorem no root in z_j lies in
    the unit disc, and Jensen's formula gives M(p) = M(q) for q the terms
    of p with exponent u_j in z_j. At the greatest exponent every root
    lies inside, with the same conclusion. The test runs on magnitudes
    divided by the largest one, so that no sum leaves the double range,
    and asks for a margin of _DOMINANCE_RTOL over the rounding of the sum.
    """
    mags = [abs(c) for c in p.terms.values()]
    top = max(mags)
    k = mags.index(top)
    rest = math.fsum(m / top for i, m in enumerate(mags) if i != k)
    if not rest * (1.0 + _DOMINANCE_RTOL) < 1.0:
        return None
    exps = list(p.terms)
    u = exps[k]
    for j in range(p.nvars):
        column = [e[j] for e in exps]
        if u[j] in (min(column), max(column)):
            return LaurentPoly(p.nvars - 1,
                               {e[:j] + e[j + 1:]: c
                                for e, c in p.terms.items() if e[j] == u[j]})
    return None


def mahler_mv_report(p: LaurentPoly, tol: float = 1e-8,
                     max_evals: int = DEFAULT_NODE_BUDGET) -> MahlerResult:
    """Mahler measure of a Laurent polynomial in any number of variables,
    with its log and the achieved quadrature tolerance.

    A measure beyond the double range saturates to inf; its log_measure
    stays finite. ValueError unless tol is positive and finite
    (``check_tol``) and max_evals an integer >= 1 (``NodeBudget``).
    """
    check_tol(tol)
    budget = NodeBudget(max_evals)
    if p.is_zero:
        return MahlerResult(0.0, -math.inf, 0.0)
    log_measure, achieved = log_mahler_mv(p, tol, budget)
    return MahlerResult(saturating_exp(log_measure), log_measure, achieved)


def log_mahler_mv(p: LaurentPoly, tol: float, budget: NodeBudget):
    """(log M(p), achieved tolerance) for nonzero p.

    One term and one variable are exact, with achieved tolerance 0. A
    polynomial with a dominant term at an extreme exponent takes the value
    and the achieved tolerance of its face (``_dominant_face``): 0 when
    the faces end at one variable or one term, which run no toric search
    and no quadrature. IllConditionedError, before any array is built, if
    the largest exponent spread left exceeds _MAX_DEGREE; a
    QuadratureBudgetError carries its estimate of log M(p).
    """
    face = p
    while face is not None:
        reduced = _project_support(face)
        if len(reduced.terms) == 1:
            c = next(iter(reduced.terms.values()))
            return math.log(abs(c)), 0.0
        if reduced.nvars == 1:
            return log_scaled_mahler_from_roots(roots(reduced), 0.0), 0.0
        face = _dominant_face(reduced)

    spreads = [reduced.spread(j) for j in range(reduced.nvars)]
    _check_degree(max(spreads))
    # each variable's exponents shifted to start at 0, in Python ints, so
    # that any exponent fits the array once the spread has been checked
    support = sorted(reduced.terms)
    lows = [min(col) for col in zip(*support)]
    exps = np.array([[x - lo for x, lo in zip(e, lows)] for e in support],
                    dtype=np.int64)
    coefs = np.array([reduced.terms[e] for e in support],
                     dtype=np.complex128)
    scale = float(np.max(np.abs(coefs)))
    coefs = coefs / scale
    inner_var = int(np.argmax(spreads))
    outer_vars = [j for j in range(reduced.nvars) if j != inner_var]

    try:
        mean, achieved = _nested_log_mean(
            coefs, exps[:, inner_var], exps[:, outer_vars], tol, budget)
    except QuadratureBudgetError as exc:
        exc.best_estimate += math.log(scale)
        raise
    return mean + math.log(scale), achieved


def _toric_angles(coefs, inner, outer):
    """Outer angles in [0, 2pi) at which a slice root crosses |w| = 1.

    These are the first coordinates of the toric points (theta, phi), where
    p(e^{i theta}, e^{i phi}) = 0, and the slice log-measure has a corner
    there. The outer variable x (exponents ``outer`` from 0 to E) is
    eliminated, because E is at most the Jensen variable's spread D: for
    w = e^{i phi}, p_phi(x) = p(x, w) has a root on |x| = 1 exactly when it
    shares one with its conjugate reciprocal x^E conj(p_phi(1 / conj x)).
    Their resultant R(phi) = |lead|^{2E} prod_{i,j} (1 - a_i conj(a_j)),
    over the roots a_i of p_phi, is a real trigonometric polynomial of
    degree at most D*E. It is sampled at 2DE + 1 roots of unity by
    Sylvester determinants (2E x 2E), turned into coefficients by FFT, and
    its roots within _TORIC_RADIUS of the unit circle give the phis; the
    roots of p_phi there give the thetas. Eliminating w instead takes
    products over D^2 root pairs, whose range of magnitude around the
    circle can exceed the precision of the coefficients.

    The search costs O(D E^4) for the determinants and O((DE)^3) for a
    root-finder of size DE (p real) or 2DE (p complex). Above
    _TORIC_MAX_ROOTS it returns no angles, which bounds that growth: a
    large bidegree such as 1 + x^100 + 3 y^100 would need 20,001
    determinants and a root-finder of size 10,000. At the cap it pays for
    itself by the refinement it saves, not by the start: on four random
    real 12-term polynomials of bidegree (8, 8) on a 2-vCPU VM, the search
    took 5-8 ms, against 3 or 5 ms for the plain start's 60 or 120 kernel
    nodes, and at tol 1e-8 the breaks cut the nodes from 4,710-8,100 to
    630-840 (73-355 ms to 13-33 ms). The l2bench inputs reach DE = 27.

    Returns no angles when R vanishes identically (p_phi and its conjugate
    reciprocal share a factor, such as a cyclotomic factor in x alone),
    that is when its samples are not clearly larger than their rounding
    (read off their imaginary parts, which R does not have), or when they
    are not finite. Angles are hints for panel edges: a missing one only
    leaves the corner to adaptive refinement.
    """
    e = int(outer.max())
    k = int(inner.max()) * e
    even = not coefs.imag.any()
    if k == 0 or (k if even else 2 * k) > _TORIC_MAX_ROOTS:
        return np.empty(0)
    n = 2 * k + 1
    grid = 2.0 * np.pi * np.arange(n) / n
    rows = np.repeat(np.arange(e), e + 1)
    cols = rows + np.tile(np.arange(e + 1), e)
    b = kernels.slice_coefficients(coefs, outer, grid[:, None] * inner)
    syl = np.zeros((n, 2 * e, 2 * e), dtype=np.complex128)
    syl[:, rows, cols] = np.tile(b[:, ::-1], e)
    syl[:, rows + e, cols] = np.tile(b.conj(), e)
    sign, logdet = np.linalg.slogdet(syl)
    top = float(np.max(logdet))
    if not math.isfinite(top) or np.isnan(logdet).any():
        return np.empty(0)
    samples = sign * np.exp(logdet - top)
    noise = float(np.max(np.abs(samples.imag)))
    if not np.max(np.abs(samples.real)) > _TORIC_SNR * noise:
        return np.empty(0)

    phis = _real_roots(np.fft.rfft(samples.real) / n, noise, even)

    # roots of p_phi at those phis, stripped and grouped as in the kernel
    rows = kernels.slice_coefficients(coefs, outer, phis[:, None] * inner)
    thetas = []
    for _, block, d in kernels.degree_blocks(rows):
        if d > 0:
            xs = kernels.companion_roots(block).reshape(-1)
            thetas.extend(
                np.angle(xs[np.abs(np.abs(xs) - 1.0) <= _TORIC_RADIUS]))
    return np.sort(np.mod(thetas, 2.0 * np.pi))


def _real_roots(half, noise, even):
    """Real roots phi of R(phi) = sum_{|m| <= k} r_m e^{i m phi}, given
    r_0..r_k (r_{-m} = conj r_m) known to +-noise; roots within about
    _TORIC_RADIUS of the real line count.

    Coefficients at the noise level are dropped from the ends. An even R
    (real r_m) is a Chebyshev series in cos(phi), solved by its colleague
    matrix of size k; otherwise w^k R(w) by its companion matrix of size 2k.
    """
    if even:
        cheb = 2.0 * half.real
        cheb[0] = half[0].real
        cheb = cheb[:np.nonzero(np.abs(cheb) > noise)[0][-1] + 1]
        if len(cheb) < 2:
            return np.empty(0)
        cs = np.polynomial.chebyshev.chebroots(cheb)
        cs = cs[(np.abs(cs.imag) <= _TORIC_RADIUS)
                & (np.abs(cs.real) <= 1.0 + _TORIC_RADIUS)].real
        phis = np.arccos(np.clip(cs, -1.0, 1.0))
        return np.concatenate([phis, -phis])
    coeffs = np.concatenate([half[:0:-1].conj(), half])
    big = np.nonzero(np.abs(coeffs) > noise)[0]
    coeffs = coeffs[big[0]:big[-1] + 1]
    if len(coeffs) < 2:
        return np.empty(0)
    ws = kernels.companion_roots(coeffs[None, :])[0]
    return np.angle(ws[np.abs(np.abs(ws) - 1.0) <= _TORIC_RADIUS])


def _nested_log_mean(coefs, inner, outer_exps, tol, budget):
    """Mean over the outer torus of the slice log-measures.

    Exponents are integer arrays, each variable's starting at 0 (inner,
    and the columns of outer_exps). The innermost (Jensen) variable is
    already separated out; outer angles are peeled one dimension at a time.
    Only the final dimension is batched through the kernel, from panels
    split at its toric angles; higher dimensions recurse on the
    coefficients folded at each node. Real coefficients make the integrand
    even in the first outer angle (see the module docstring).
    """
    dims = outer_exps.shape[1]
    even = not coefs.imag.any()
    if dims == 1:
        col = np.ascontiguousarray(outer_exps[:, 0])
        breaks = _toric_angles(coefs, inner, col)

        def f(thetas):
            return kernels.batch_log_mahler(coefs, inner,
                                            thetas[:, None] * col[None, :])

        return adaptive_circle_mean(f, tol, budget, even=even,
                                    breaks=breaks)[:2]

    level_tol = tol / dims
    rest = np.ascontiguousarray(outer_exps[:, 1:])
    first = outer_exps[:, 0]
    achieved_inner = 0.0

    def f(thetas):
        nonlocal achieved_inner
        out = np.empty_like(thetas)
        for i, th in enumerate(thetas):
            folded = coefs * np.exp(1j * th * first)
            val, ach = _nested_log_mean(folded, inner, rest,
                                        level_tol * (dims - 1), budget)
            achieved_inner = max(achieved_inner, ach)
            out[i] = val
        return out

    mean, achieved, _ = adaptive_circle_mean(f, level_tol, budget, even=even)
    return mean, achieved + achieved_inner
