import cmath
import itertools
import math
import random
import warnings

import mpmath
import numpy as np
import pytest

from l2alex import (CohomClass, DetFunction, IllConditionedError,
                    LaurentPoly, QuadratureBudgetError, ZeroPolynomialError,
                    mahler_mv_report, roots, twist)
from l2alex import kernels as kernel_mod
from l2alex import mahler as mahler_mod
from l2alex.mahler import log_mahler_mv
from l2alex.quadrature import (ROUNDOFF_FLOOR, NodeBudget,
                               adaptive_circle_mean)

from conftest import random_int_poly
from oracles import quad_mahler_1v, trapezoid_mahler_2v

GOLDEN_PLUS = 2.618033988749895    # (3 + sqrt 5) / 2
GOLDEN_MINUS = 0.3819660112501051  # (3 - sqrt 5) / 2

# Smyth: m(1 + x + y + z) = 7 zeta(3) / (2 pi^2)
SMYTH_3V = {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
SMYTH_3V_LOG = 7 * 1.2020569031595942 / (2 * math.pi ** 2)
# its images under monomial substitutions of determinant 3 and -6, which
# keep the measure: 1 + x z^2 + y + x^-1 z and 1 + x^2 y + x y^-1 z + y^3
SMYTH_3V_DET3 = {(0, 0, 0): 1, (1, 0, 2): 1, (0, 1, 0): 1, (-1, 0, 1): 1}
SMYTH_3V_DET6 = {(0, 0, 0): 1, (2, 1, 0): 1, (1, -1, 1): 1, (0, 3, 0): 1}

LEHMER = LaurentPoly(1, {(10,): 1, (9,): 1, (7,): -1, (6,): -1, (5,): -1,
                         (4,): -1, (3,): -1, (1,): 1, (0,): 1})


def P(nvars, terms):
    return LaurentPoly(nvars, terms)


def quadratic():
    return P(1, {(2,): 1, (1,): -3, (0,): 1})


class TestRoots:
    def test_quadratic(self):
        rd = roots(quadratic())
        assert rd.leading == 1 and rd.power == 0
        mods = sorted(abs(b) for b in rd.roots)
        assert mods[0] == pytest.approx(GOLDEN_MINUS, abs=1e-12)
        assert mods[1] == pytest.approx(GOLDEN_PLUS, abs=1e-12)

    def test_pure_monomial(self):
        rd = roots(P(1, {(3,): 2}))
        assert (rd.leading, rd.power, rd.roots) == (2, 3, ())

    def test_negative_power_factorization(self):
        # z^{-1} (z - 2)(z - 1/2) = z - 2.5 + z^{-1}
        rd = roots(P(1, {(1,): 1.0, (0,): -2.5, (-1,): 1.0}))
        assert rd.power == -1
        assert sorted(abs(b) for b in rd.roots) == \
            pytest.approx([0.5, 2.0], abs=1e-12)

    def test_multiple_root_reconstructs(self):
        p = P(1, {(0,): 1, (1,): -1})
        quartic = p * p * p * p
        rd = roots(quartic)
        assert len(rd.roots) == 4
        assert all(abs(b - 1) < 1e-3 for b in rd.roots)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            roots(LaurentPoly.zero(1))

    def test_companion_roots_checked_once(self, monkeypatch):
        # the factorization is the companion eigenvalues, unpolished, and
        # the reconstruction check runs once
        calls = []
        check = mahler_mod._reconstruction_error

        def counted(*args):
            calls.append(1)
            return check(*args)

        monkeypatch.setattr(mahler_mod, "_reconstruction_error", counted)
        _, coeffs = mahler_mod._univariate_coeffs(LEHMER)
        eig = kernel_mod.companion_roots(coeffs[None, :])[0]
        rd = roots(LEHMER)
        assert len(calls) == 1
        order = np.lexsort((eig.imag, eig.real))
        assert rd.roots == tuple(complex(b) for b in eig[order])

    def test_huge_root_beside_small_ones(self):
        # z^40 - 1e8 z^39 + 1: one root near 1e8, the others inside the
        # circle; the check evaluates on |z| = 1e8 without overflow
        p = P(1, {(40,): 1, (39,): -1e8, (0,): 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_m = mahler_mod.log_scaled_mahler_from_roots(roots(p), 0.0)
        assert log_m == pytest.approx(math.log(1e8), abs=1e-12)

    def test_check_rejects_a_wrong_root(self, monkeypatch):
        # the largest root scaled by 1.5 must fail the check, also where
        # the check's circle is far beyond the double range to the 40th
        companion = kernel_mod.companion_roots

        def skewed(block):
            rts = companion(block)
            rts[0, np.argmax(np.abs(rts[0]))] *= 1.5
            return rts

        monkeypatch.setattr(kernel_mod, "companion_roots", skewed)
        for p in (P(1, {(40,): 1, (39,): -1e8, (0,): 1}), LEHMER):
            with pytest.raises(IllConditionedError):
                roots(p)

    def test_random_integer_polynomials_against_mpmath(self):
        # 40 seeded integer polynomials of degree 3-20 against Jensen's
        # formula on 30-digit roots
        gen = random.Random(1995)
        worst = 0.0
        for _ in range(40):
            d = gen.randint(3, 20)
            coeffs = [gen.randint(-9, 9) for _ in range(d + 1)]
            coeffs[0] = coeffs[0] or 1
            coeffs[-1] = coeffs[-1] or -1
            p = P(1, {(k,): c for k, c in enumerate(coeffs) if c})
            got = math.log(mahler_mv_report(p).measure)
            with mpmath.workdps(30):
                rts = mpmath.polyroots(coeffs[::-1], maxsteps=200,
                                       extraprec=100)
                exact = mpmath.log(abs(coeffs[-1])) + sum(
                    max(mpmath.mpf(0), mpmath.log(abs(r))) for r in rts)
            worst = max(worst, abs(got - float(exact)))
        assert worst <= 5e-14


class TestMahler1v:
    def test_quadratic(self):
        assert mahler_mv_report(quadratic()).measure == \
            pytest.approx(GOLDEN_PLUS, abs=1e-10)

    def test_monomial(self):
        assert mahler_mv_report(P(1, {(100,): 1})).measure == 1.0

    def test_lehmer(self):
        assert mahler_mv_report(LEHMER).measure == \
            pytest.approx(1.176280818, abs=1e-8)

    def test_lehmer_against_quadrature_oracle(self):
        assert mahler_mv_report(LEHMER).measure == \
            pytest.approx(quad_mahler_1v(LEHMER, 1e-9), rel=2e-8)

    def test_zero(self):
        assert mahler_mv_report(LaurentPoly.zero(1)).measure == 0.0

    def test_quadrature_agreement_random(self, rng):
        for _ in range(12):
            p = random_int_poly(rng, 1, max_terms=5, max_exp=3, nonzero=True)
            m = mahler_mv_report(p).measure
            assert abs(m - quad_mahler_1v(p, 1e-8)) / m < 1e-6


def profile(p, sigma1):
    """t -> M(p(t^sigma1 z)), a piecewise monomial function of t."""
    return DetFunction(p, CohomClass([sigma1])).eval


def scaled(p, c):
    """M(p(c z))."""
    return profile(p, 1.0)(c)


def log_log_slopes(v, ts):
    logs = [math.log(v(t)) for t in ts]
    return [(b - a) / math.log(u / t)
            for a, b, t, u in zip(logs, logs[1:], ts, ts[1:])]


class TestScaledMahler:
    def test_linear(self):
        p = P(1, {(1,): 1, (0,): -2})
        assert scaled(p, 1.0) == pytest.approx(2.0, rel=1e-12)
        assert scaled(p, 3.0) == pytest.approx(3.0, rel=1e-12)

    def test_matches_unit_scale(self):
        assert scaled(quadratic(), 1.0) == \
            pytest.approx(mahler_mv_report(quadratic()).measure, rel=1e-12)

    def test_small_scale_limit_is_root_product(self):
        # product of the roots = constant coefficient
        assert scaled(quadratic(), 1e-9) == pytest.approx(1.0, rel=1e-9)

    def test_equals_substituted_polynomial(self, rng):
        for _ in range(10):
            p = random_int_poly(rng, 1, nonzero=True)
            c = rng.uniform(0.2, 4.0)
            subst = LaurentPoly(1, {e: v * c ** e[0]
                                    for e, v in p.terms.items()})
            assert scaled(p, c) == \
                pytest.approx(mahler_mv_report(subst).measure, rel=1e-10)

    def test_beyond_double_range_saturates(self):
        huge = P(1, {(0,): 1.5e308, (1,): 1.5e308, (2,): -1.5e308})
        assert mahler_mv_report(huge).measure == math.inf
        assert scaled(quadratic(), 1e300) == math.inf
        # the monomial factor z^2 raises c^2 beyond the double range
        shifted = P(1, {(4,): 1, (3,): -3, (2,): 1})
        assert scaled(shifted, 1e300) == math.inf


class TestMonomialProfile:
    def test_quadratic_pieces(self):
        # M(t^2 z^2 - 3tz + 1) is 1, then GOLDEN_PLUS * t, then t^2: log-log
        # slopes 0, 1 and 2, breaking at the root moduli (3 -+ sqrt 5) / 2
        v = profile(quadratic(), 1.0)
        lo, hi = GOLDEN_MINUS, GOLDEN_PLUS
        for a, b, slope in ((lo / 100, lo, 0), (lo, hi, 1), (hi, 100 * hi, 2)):
            ts = [a * (b / a) ** (k / 4) for k in range(5)]
            assert log_log_slopes(v, ts) == \
                pytest.approx([slope] * 4, abs=1e-9)
        assert v(0.1) == pytest.approx(1.0, rel=1e-12)
        assert v(1.0) == pytest.approx(GOLDEN_PLUS, rel=1e-12)
        assert v(10.0) == pytest.approx(100.0, rel=1e-12)

    def test_single_variable_monomial(self):
        for s in (2.0, -1.5):
            v = profile(P(1, {(1,): 1}), s)
            for t in (0.1, 3.0, 50.0):
                assert v(t) == pytest.approx(t ** s, rel=1e-12)

    def test_constant(self):
        v = profile(P(1, {(0,): 3}), 2.0)
        for t in (0.01, 1.0, 100.0):
            assert v(t) == pytest.approx(3.0, rel=1e-12)

    def test_sigma_zero_collapses(self):
        v = profile(quadratic(), 0.0)
        for t in (1e-3, 1.0, 1e3):
            assert v(t) == pytest.approx(GOLDEN_PLUS, rel=1e-12)

    def test_exponents_nondecreasing(self, rng):
        ts = [10.0 ** (k / 4) for k in range(-12, 13)]

        def nondecreasing(slopes):
            return all(b >= a - 1e-9 for a, b in zip(slopes, slopes[1:]))

        for s in (1.0, 0.5, -2.0):
            for _ in range(5):
                p = random_int_poly(rng, 1, max_terms=5, max_exp=3,
                                    nonzero=True)
                assert nondecreasing(log_log_slopes(profile(p, s), ts))
        # two root moduli differing in the last bit
        p = P(1, {(-4,): 3, (-1,): 5, (3,): 1})
        for s in (-2.0, -1.0):
            assert nondecreasing(log_log_slopes(profile(p, s), ts))

    def test_consistency_with_scaled_measure(self, rng):
        for _ in range(5):
            p = random_int_poly(rng, 1, max_terms=5, max_exp=3, nonzero=True)
            sigma1 = rng.choice([1.0, 2.0, -1.0, 0.5])
            v = profile(p, sigma1)
            for _ in range(50):
                t = math.exp(rng.uniform(-5, 5))
                assert v(t) == pytest.approx(scaled(p, t ** sigma1),
                                             rel=1e-12)


class TestMahlerMV:
    def test_smyth_constant(self):
        p = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        assert mahler_mv_report(p, 1e-8).measure == \
            pytest.approx(1.3813564445, rel=1e-6)

    def test_against_trapezoid_oracle(self):
        p = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        assert mahler_mv_report(p, 1e-8).measure == \
            pytest.approx(trapezoid_mahler_2v(p, 1024), rel=3e-6)

    def test_monomial(self):
        assert mahler_mv_report(P(2, {(1, 1): 1}), 1e-8).measure == 1.0

    def test_product_polynomial(self):
        p = P(2, {(1, 1): 1, (1, 0): -3, (0, 1): -2, (0, 0): 6})
        assert mahler_mv_report(p, 1e-8).measure == \
            pytest.approx(6.0, rel=1e-8)

    def test_zero(self):
        assert mahler_mv_report(LaurentPoly.zero(2), 1e-8).measure == 0.0

    def test_delegates_to_jensen_for_1v(self):
        rep = mahler_mv_report(quadratic(), 1e-8)
        assert rep.measure == math.exp(
            mahler_mod.log_scaled_mahler_from_roots(roots(quadratic()), 0.0))
        assert rep.achieved_tol == 0.0

    def test_circle_root_is_integrable(self):
        # (z1 - 1)(z2 - 3): the slice vanishes at theta = 0 in the limit
        p = P(2, {(1, 1): 1, (1, 0): -3, (0, 1): -1, (0, 0): 3})
        assert mahler_mv_report(p, 1e-7).measure == \
            pytest.approx(3.0, rel=1e-6)

    def test_multiplicativity(self, rng):
        tol = 1e-7
        for _ in range(6):
            a = random_int_poly(rng, 2, max_terms=3, max_exp=1, nonzero=True)
            b = random_int_poly(rng, 2, max_terms=3, max_exp=1, nonzero=True)
            ma = mahler_mv_report(a, tol).measure
            mb = mahler_mv_report(b, tol).measure
            mab = mahler_mv_report(a * b, tol).measure
            assert abs(mab - ma * mb) <= 3 * tol * max(1.0, ma * mb) + 1e-12

    def test_monomial_invariance(self, rng):
        tol = 1e-8
        for _ in range(5):
            p = random_int_poly(rng, 2, nonzero=True)
            shifted = LaurentPoly(2, {(e[0] + 2, e[1] - 1): c
                                      for e, c in p.terms.items()})
            assert mahler_mv_report(shifted, tol).measure == pytest.approx(
                mahler_mv_report(p, tol).measure, rel=3 * tol + 1e-10)

    def test_inversion_invariance(self, rng):
        tol = 1e-8
        for _ in range(5):
            p = random_int_poly(rng, 2, nonzero=True)
            inv = LaurentPoly(2, {(-e[0], -e[1]): c
                                  for e, c in p.terms.items()})
            assert mahler_mv_report(inv, tol).measure == pytest.approx(
                mahler_mv_report(p, tol).measure, rel=3 * tol + 1e-10)

    def test_integer_measure_at_least_one(self, rng):
        for _ in range(15):
            p = random_int_poly(rng, 2, nonzero=True)
            assert mahler_mv_report(p, 1e-8).measure >= 1.0 - 1e-8

    def test_three_variables(self):
        p = P(3, {(1, 1, 1): 1, (1, 1, 0): -3, (0, 0, 1): -2, (0, 0, 0): 6})
        # (z1 z2 - 2)(z3 - 3): measure 2 * 3
        assert mahler_mv_report(p, 1e-5).measure == \
            pytest.approx(6.0, rel=1e-4)

    @pytest.mark.parametrize("terms", [
        {(0,): 1, (10 ** 30,): 1},
        {(0, 0): 1, (10 ** 30, 0): 1, (0, 1): 1},
    ], ids=["1+z^1e30", "1+x^1e30+y"])
    def test_exponent_spread_beyond_the_arrays_refused(self, terms):
        p = P(len(next(iter(terms))), terms)
        with pytest.raises(IllConditionedError, match="exceeds 1024"):
            mahler_mv_report(p)

    @pytest.mark.parametrize("offset", [10 ** 17, 2 ** 63, -10 ** 19])
    def test_exponents_of_any_size(self, offset):
        # y^N (1 + x^2 + y) has the measure of 1 + x + y. At N = 1e17 the
        # outer exponents reached the phases as doubles, where N + 1 rounds
        # to N and the measure read log 2; from 2^63 they left int64
        p = P(2, {(0, offset): 1, (2, offset): 1, (0, offset + 1): 1})
        rep = mahler_mv_report(p)
        assert abs(rep.log_measure - SMYTH_LOG) <= rep.achieved_tol + 1e-14

    def test_report_carries_achieved_tol(self):
        p = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        rep = mahler_mv_report(p, 1e-6)
        assert rep.achieved_tol <= 1e-6
        assert math.exp(rep.log_measure) == pytest.approx(rep.measure)

    def test_budget_error_carries_best_estimate(self):
        # (1 + x)(1 + x + y^3), of measure M(1 + x + y): a log singularity
        # at x = -1 keeps the refinement going past 600 nodes at 1e-13
        p = P(2, {(0, 0): 1, (1, 0): 2, (2, 0): 1, (0, 3): 1, (1, 3): 1})
        with pytest.raises(QuadratureBudgetError) as info:
            mahler_mv_report(p, 1e-13, max_evals=600)
        assert info.value.best_estimate == pytest.approx(
            math.log(1.38135644), abs=1e-3)
        assert info.value.achieved_tol > 0

    def test_complex_coefficients_take_full_circle(self):
        # 1 + x + i y is 1 + x + y rotated by pi/2 in y, so it has the same
        # measure, but its integrand over y (the outer angle; x is the Jensen
        # variable) is not even
        p = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1j})
        rep = mahler_mv_report(p, 1e-8)
        assert abs(rep.log_measure - math.log(1.3813564445)) <= \
            rep.achieved_tol + 1e-10

    def test_real_coefficients_take_half_the_nodes(self, monkeypatch):
        p = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        half_budget = NodeBudget()
        half = log_mahler_mv(p, 1e-8, half_budget)

        def full_circle(f, tol, budget, even=False, breaks=()):
            return adaptive_circle_mean(f, tol, budget, breaks=breaks)

        monkeypatch.setattr(mahler_mod, "adaptive_circle_mean", full_circle)
        full_budget = NodeBudget()
        full = log_mahler_mv(p, 1e-8, full_budget)
        assert 2 * half_budget.used == full_budget.used == 150
        assert half[0] == pytest.approx(full[0], abs=1e-14)

    def test_smyth_three_variables_within_default_budget(self):
        rep = mahler_mv_report(P(3, SMYTH_3V))
        assert abs(rep.log_measure - SMYTH_3V_LOG) <= rep.achieved_tol
        assert rep.achieved_tol <= 1e-8

    @pytest.mark.parametrize("terms, tol", [
        (SMYTH_3V, 1e-10), (SMYTH_3V_DET3, 1e-8), (SMYTH_3V_DET6, 1e-8)],
        ids=["tol1e-10", "det3", "det-6"])
    def test_smyth_three_variables_with_inner_breaks(self, terms, tol):
        # each inner integral starts from its toric breaks; without them
        # the first case takes 5.5M nodes, over the default budget
        rep = mahler_mv_report(P(3, terms), tol)
        assert abs(rep.log_measure - SMYTH_3V_LOG) <= rep.achieved_tol
        assert rep.achieved_tol <= tol

    def test_nested_budget_error_reports_overall_estimate(self):
        # nan until the outermost integral completes its first sweep
        finite = 0
        for max_evals in (1000, 10_001, 20_001, 60_001):
            with pytest.raises(QuadratureBudgetError) as info:
                mahler_mv_report(P(3, SMYTH_3V_DET6), max_evals=max_evals)
            best = info.value.best_estimate
            if not math.isnan(best):
                finite += 1
                assert abs(best - SMYTH_3V_LOG) <= \
                    info.value.achieved_tol + 1e-6
        assert finite >= 2

    def test_zero_slice_raises(self, monkeypatch):
        from l2alex.errors import DegenerateSliceError

        def fake_kernel(coefs, inner, phases):
            raise DegenerateSliceError("a slice vanished")

        monkeypatch.setattr(kernel_mod, "batch_log_mahler", fake_kernel)
        p = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        with pytest.raises(DegenerateSliceError):
            mahler_mv_report(p, 1e-6)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tol_refused(self, tol):
        with pytest.raises(ValueError, match="tol"):
            mahler_mv_report(P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}), tol)

    @pytest.mark.parametrize("max_evals", [0, -5])
    def test_bad_budget_refused(self, max_evals):
        with pytest.raises(ValueError, match="max_evals"):
            mahler_mv_report(P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
                             max_evals=max_evals)

    @pytest.mark.parametrize("terms, log_m", [
        ({(0,): 1, (1,): 1, (2,): -1}, math.log((1 + math.sqrt(5)) / 2)),
        ({(0, 0): 1, (1, 0): 1, (0, 1): 1}, 0.32306594721945051)],
        ids=["1v", "2v"])
    def test_measure_beyond_double_range_saturates(self, terms, log_m):
        # 1.5e308 (1 + z - z^2) has M ~ 2.43e308, 1.5e308 (1 + x + y)
        # ~ 2.07e308; the log stays finite and exact
        p = P(len(next(iter(terms))),
              {e: 1.5e308 * c for e, c in terms.items()})
        rep = mahler_mv_report(p)
        assert rep.measure == math.inf
        assert rep.log_measure == pytest.approx(math.log(1.5e308) + log_m,
                                                rel=1e-12)


def _dominant_poly(seed, nvars, where):
    """Seven random complex terms in exponents 0..2 plus a term a z^u with
    |a| = 1.25 sum |b| over the others. u_1 is 0 ("least"), 2 ("greatest")
    or 1 ("interior"); every other u_j is 1, between exponents 0 and 2 of
    other terms of the face u_1 (of p, for "interior"). So only the first
    variable reduces, and only outside "interior"."""
    rng = np.random.default_rng(seed)
    first = {"least": 0, "greatest": 2, "interior": 1}[where]
    u = (first,) + (1,) * (nvars - 1)
    grid = [e for e in itertools.product(range(3), repeat=nvars) if e != u]
    while True:
        exps = [grid[i] for i in rng.choice(len(grid), 7, replace=False)]
        face = exps if where == "interior" else \
            [e for e in exps if e[0] == first]
        columns = list(zip(*face)) or [()] * nvars
        if all({0, 2} <= set(c) for c in columns[1:]) and \
                (where != "interior" or {0, 2} <= set(columns[0])):
            break
    coefs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    a = 1.25 * np.abs(coefs).sum() * np.exp(2j * np.pi * rng.uniform())
    terms = {e: complex(c) for e, c in zip(exps, coefs)}
    terms[u] = complex(a)
    return P(nvars, terms)


def _measure_without_faces(monkeypatch, p, tol):
    with monkeypatch.context() as m:
        m.setattr(mahler_mod, "_dominant_face", lambda q: None)
        return log_mahler_mv(p, tol, NodeBudget(10 ** 8))


def _counting_quadrature(monkeypatch):
    calls = []

    def counting(f, tol, budget, even=False, breaks=()):
        calls.append(tol)
        return adaptive_circle_mean(f, tol, budget, even=even, breaks=breaks)

    monkeypatch.setattr(mahler_mod, "adaptive_circle_mean", counting)
    return calls


class TestDominantFace:
    """A term that outweighs all the others together, at an extreme
    exponent of some variable, puts M(p) on the face of that exponent
    (Rouché and Jensen); the reduced value must agree with the quadrature
    of the whole polynomial."""

    def test_corner_free_three_variables_reduce_to_one_term(self):
        # 5 > 1 + 1 + 1 at the least exponent of x, then of y
        p = P(3, {(0, 0, 0): 5, (3, 1, 0): 1, (0, 4, 2): 1, (1, 0, 5): 1})
        rep = mahler_mv_report(p, max_evals=1)
        assert rep.log_measure == math.log(5)
        assert rep.achieved_tol == 0.0

    def test_faces_reduce_in_one_call(self, monkeypatch):
        # the faces are peeled in a loop, so a wrapper of log_mahler_mv
        # (a tracer's) counts its callers, not the faces
        entries = []
        real = mahler_mod.log_mahler_mv
        monkeypatch.setattr(mahler_mod, "log_mahler_mv",
                            lambda *a: entries.append(a) or real(*a))
        p = P(3, {(0, 0, 0): 5, (3, 1, 0): 1, (0, 4, 2): 1, (1, 0, 5): 1})
        assert mahler_mv_report(p).log_measure == math.log(5)
        assert len(entries) == 1

    @pytest.mark.parametrize("where", ["least", "greatest"])
    def test_two_variables_reduce_to_jensen(self, monkeypatch, where):
        for seed in range(4):
            p = _dominant_poly(seed, 2, where)
            reference, ref_tol = _measure_without_faces(monkeypatch, p, 1e-12)
            quadratures = _counting_quadrature(monkeypatch)
            rep = mahler_mv_report(p)
            assert not quadratures
            assert rep.achieved_tol == 0.0
            assert abs(rep.log_measure - reference) <= ref_tol

    @pytest.mark.parametrize("where", ["least", "greatest"])
    def test_three_variables_reduce_to_a_face(self, monkeypatch, where):
        # the dominant term is interior in y and z, so the two-variable
        # face takes a quadrature, whose tolerance is reported
        for seed in range(3):
            p = _dominant_poly(seed, 3, where)
            face = mahler_mod._dominant_face(p)
            assert face.nvars == 2 and len(face.terms) > 1
            face_rep = mahler_mv_report(face, 1e-10)
            reference, ref_tol = _measure_without_faces(monkeypatch, p, 1e-10)
            rep = mahler_mv_report(p, 1e-10)
            assert (rep.log_measure, rep.achieved_tol) == \
                (face_rep.log_measure, face_rep.achieved_tol)
            assert rep.achieved_tol > 0.0
            assert abs(rep.log_measure - reference) <= \
                rep.achieved_tol + ref_tol

    @pytest.mark.parametrize("nvars", [2, 3])
    def test_interior_term_takes_quadrature(self, monkeypatch, nvars):
        for seed in range(3):
            p = _dominant_poly(seed, nvars, "interior")
            assert mahler_mod._dominant_face(p) is None
            reference = _measure_without_faces(monkeypatch, p, 1e-8)
            quadratures = _counting_quadrature(monkeypatch)
            assert log_mahler_mv(p, 1e-8, NodeBudget(10 ** 8)) == reference
            assert quadratures

    @pytest.mark.parametrize("seed", range(3))
    def test_near_ties(self, monkeypatch, seed):
        # |a| = (|b| + |c|)(1 -+ 1e-9) for a + b x + c y: just below the
        # tie p vanishes on the torus and takes quadrature, just above it
        # reduces; both lie within 1e-8 of the tie's log|a|
        rng = np.random.default_rng(seed)
        b, c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        tie = abs(b) + abs(c)
        for rel, reduced in ((-1e-9, False), (1e-9, True)):
            p = P(2, {(0, 0): tie * (1 + rel), (1, 0): b, (0, 1): c})
            assert (mahler_mod._dominant_face(p) is not None) == reduced
            quadratures = _counting_quadrature(monkeypatch)
            rep = mahler_mv_report(p)
            assert bool(quadratures) != reduced
            assert abs(rep.log_measure - math.log(tie)) <= \
                rep.achieved_tol + 1e-8

    @pytest.mark.parametrize("nvars", [2, 3])
    def test_coefficients_near_the_double_limit(self, nvars):
        # 1.5e308 > 1e308 + 2e307 (+ 2e307), and M = 1.5e308; the
        # magnitudes themselves sum beyond the double range
        terms = {(0,) * nvars: 1.5e308, (1,) + (0,) * (nvars - 1): 1e308}
        for j in range(1, nvars):
            terms[tuple(int(k == j) for k in range(nvars))] = 2e307
        rep = mahler_mv_report(P(nvars, terms), max_evals=1)
        assert rep.log_measure == pytest.approx(math.log(1.5e308),
                                                rel=1e-15)
        assert rep.achieved_tol == 0.0


# Determinants of two l2bench curves2v inputs (seed 1), hard-coded. The
# reference log-measures come from 30-digit slice roots (mpmath) integrated
# by Gauss-Legendre between the crossings; a 2^20-point midpoint rule gives
# 4.0909496076070 for CURVE5.
CURVE5 = {(-4, 4): -6, (-4, 5): -26, (-4, 6): 6, (-4, 8): -18, (-3, 2): -19,
          (-3, 3): -11, (-3, 4): -9, (-3, 5): -48, (-3, 6): -17, (-3, 7): -6,
          (-3, 8): 12, (-3, 9): -18, (-2, 0): 11, (-2, 1): 6, (-2, 2): -15,
          (-2, 3): -7, (-2, 4): -30, (-2, 5): 6, (-2, 6): -34, (-2, 7): 12,
          (-2, 9): 12, (-1, 0): 9, (-1, 2): 6, (-1, 3): -21, (-1, 4): -9,
          (-1, 5): -12, (-1, 6): 6, (-1, 7): 18, (-1, 9): -12}
CURVE5_LOG = 4.0909496076074256
CURVE7 = {(-3, -4): 3, (-3, -3): -3, (-3, -2): 3, (-3, -1): 3, (-3, 0): -6,
          (-2, -4): -6, (-2, -3): 2, (-2, -2): 6, (-2, -1): -1, (-2, 0): -11,
          (-1, -4): 3, (-1, -3): 1, (-1, -2): -8, (-1, -1): -3, (-1, 0): -3}
CURVE7_LOG = 2.7161103467691794
SMYTH_LOG = 0.32306594721945051       # m(1 + x + y)


def recorded_breaks(monkeypatch):
    """Patch the quadrature to record the breaks each integral starts from."""
    seen = []

    def recording(f, tol, budget, even=False, breaks=()):
        seen.append(sorted(float(b) for b in breaks))
        return adaptive_circle_mean(f, tol, budget, even=even, breaks=breaks)

    monkeypatch.setattr(mahler_mod, "adaptive_circle_mean", recording)
    return seen


class TestToricBreaks:
    def test_curve5_within_reported_tolerance(self):
        # a start blind to the crossings can miss them: Gauss-Legendre
        # panels without breaks were 3.8e-8 off here while reporting 5.7e-9
        rep = mahler_mv_report(P(2, CURVE5))
        assert abs(rep.log_measure - CURVE5_LOG) <= rep.achieved_tol

    def test_roundoff_floor(self):
        # smooth panels between the breaks make the embedded estimate
        # collapse to ~1e-15; the floor keeps the report above rounding
        rep = mahler_mv_report(P(2, CURVE7))
        assert rep.achieved_tol >= ROUNDOFF_FLOOR
        assert abs(rep.log_measure - CURVE7_LOG) <= rep.achieved_tol

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_curve7_agrees_across_coordinates(self, tol):
        # (ex, ey) -> (-ex, 3ex + ey) keeps M; sigma' = A^-T sigma keeps
        # <sigma, v>, so both give log V(t). Without breaks, a crossing pair
        # at theta = +-0.00129 fell between the first nodes and the two
        # disagreed by 4.6e-8 at tol 1e-12, each reporting ~1e-13.
        t = 0.25 * 16 ** (2 / 7)
        moved = {(-ex, 3 * ex + ey): c for (ex, ey), c in CURVE7.items()}
        logs, tols = [], []
        for terms, sigma in ((CURVE7, (-3, -1)), (moved, (0, -1))):
            q, log_scale = twist(P(2, terms), CohomClass(sigma), t)
            rep = mahler_mv_report(q, tol)
            logs.append(rep.log_measure + log_scale)
            tols.append(rep.achieved_tol)
        assert abs(logs[0] - logs[1]) <= tols[0] + tols[1]
        for logv, achieved in zip(logs, tols):
            assert logv == pytest.approx(-0.50630451242,
                                         abs=achieved + 1e-11)

    def test_smyth_breaks(self, monkeypatch):
        # the slice 1 + y + x in x has its root -(1 + y) on the circle
        # exactly at y = e^{+-2 pi i / 3}
        seen = recorded_breaks(monkeypatch)
        rep = mahler_mv_report(P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}))
        assert seen == [pytest.approx([2 * math.pi / 3, 4 * math.pi / 3],
                                      abs=1e-12)]
        assert abs(rep.log_measure - SMYTH_LOG) <= rep.achieved_tol

    def test_complex_coefficient_breaks(self, monkeypatch):
        # 1 + x + i y: the slice root -(1 + i y) in x is on the circle
        # where i y = e^{+-2 pi i / 3}, that is at y = e^{i pi / 6} and
        # e^{5 i pi / 6}; the mirror images 7 pi / 6 and 11 pi / 6 are not
        # crossings, since the coefficients are not real
        seen = recorded_breaks(monkeypatch)
        rep = mahler_mv_report(P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1j}))
        assert seen == [pytest.approx([math.pi / 6, 5 * math.pi / 6],
                                      abs=1e-9)]
        assert abs(rep.log_measure - SMYTH_LOG) <= rep.achieved_tol

    def test_complex_breaks_follow_a_rotation(self, monkeypatch):
        # (x, y) -> (e^{i a} x, e^{i b} y) moves every crossing of CURVE7
        # (outer variable x) from theta to theta - a, and the resultant's
        # roots in the Jensen angle by -b; the rotated polynomial goes
        # through the complex branch, the original through the real one.
        # The complex branch puts the two crossings at theta = pi - a
        # 2.2e-8 apart.
        seen = recorded_breaks(monkeypatch)
        a, b = 0.3, 0.7
        mahler_mv_report(P(2, CURVE7))
        mahler_mv_report(P(2, {(ex, ey): c * cmath.exp(1j * (a * ex + b * ey))
                               for (ex, ey), c in CURVE7.items()}))
        real, rotated = seen
        assert len(real) >= 2
        assert rotated == pytest.approx(
            sorted((b - a) % (2 * math.pi) for b in real), abs=1e-7)

    def test_high_bidegree_takes_no_breaks(self, monkeypatch):
        # 1 + x^13 y^8 + x^8 y^5 is 1 + u + v under a unimodular monomial
        # map, so its measure is m(1 + x + y). It has crossings, but
        # D * E = 104 is above the root-finder cap, so the quadrature
        # starts from the plain panels and refines around them.
        seen = recorded_breaks(monkeypatch)
        rep = mahler_mv_report(P(2, {(0, 0): 1, (13, 8): 1, (8, 5): 1}))
        assert seen == [[]]
        assert abs(rep.log_measure - SMYTH_LOG) <= rep.achieved_tol

    def test_large_bidegree_skips_the_search(self, monkeypatch):
        # 1 + x^100 + 3 y^100 would need 20,001 Sylvester determinants and a
        # root-finder of size 10,000; none of them is computed
        def refuse(*args):
            raise AssertionError("a Sylvester determinant was computed")

        monkeypatch.setattr(np.linalg, "slogdet", refuse)
        angles = mahler_mod._toric_angles(
            np.array([1, 1, 3], dtype=np.complex128) / 3,
            np.array([0, 100, 0]), np.array([0.0, 0.0, 100.0]))
        assert len(angles) == 0

    def test_jensen_variable_factor(self, monkeypatch):
        # (1 + y)(1 + x + y): y is the Jensen variable, the slice measure is
        # log max(1, |1 + x|), with corners where x = e^{+-2 pi i / 3}
        seen = recorded_breaks(monkeypatch)
        p = P(2, {(0, 0): 1, (0, 1): 1}) * P(2, {(0, 0): 1, (1, 0): 1,
                                                 (0, 1): 1})
        rep = mahler_mv_report(p)
        assert seen == [pytest.approx([2 * math.pi / 3, 4 * math.pi / 3],
                                      abs=1e-9)]
        assert abs(rep.log_measure - SMYTH_LOG) <= rep.achieved_tol

    def test_shared_factor_falls_back(self, monkeypatch):
        # (1 + x)(1 + x + y^3): every slice p(x, w) shares 1 + x with its
        # conjugate reciprocal, so the resultant vanishes identically and
        # the quadrature starts from the plain panels
        seen = recorded_breaks(monkeypatch)
        p = P(2, {(0, 0): 1, (1, 0): 1}) * P(2, {(0, 0): 1, (1, 0): 1,
                                                 (0, 3): 1})
        rep = mahler_mv_report(p)
        assert seen == [[]]
        assert abs(rep.log_measure - SMYTH_LOG) <= rep.achieved_tol

    def test_three_variables_take_no_breaks(self, monkeypatch):
        seen = recorded_breaks(monkeypatch)
        mahler_mv_report(P(3, {(1, 1, 1): 1, (1, 1, 0): -3, (0, 0, 1): -2,
                               (0, 0, 0): 6}), 1e-5)
        assert seen and all(b == [] for b in seen)


def _unimodular(rng):
    """A random 2x2 integer matrix of determinant +-1, entries in -3..3."""
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if abs(a * d - b * c) == 1:
            return a, b, c, d


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_smyth_under_unimodular_maps_within_reported_error(tol):
    # (1 + x + y) o A for unimodular A has the terms 1, x^a y^c, x^b y^d,
    # and measure m(1 + x + y); the crossings move with A, and so do the
    # bidegree and which variable is the Jensen one
    rng = random.Random(20240601)
    for _ in range(20):
        a, b, c, d = _unimodular(rng)
        rep = mahler_mv_report(P(2, {(0, 0): 1, (a, c): 1, (b, d): 1}), tol)
        assert abs(rep.log_measure - SMYTH_LOG) <= rep.achieved_tol, \
            (a, b, c, d)
