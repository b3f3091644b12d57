import math

import pytest

from l2alex import (LaurentPoly, QuadratureBudgetError, ZeroPolynomialError,
                    mahler_1v, mahler_mv, mahler_mv_report, monomial_profile,
                    profile_value, roots, scaled_mahler_1v)
from l2alex import kernels as kernel_mod
from l2alex import mahler as mahler_mod
from l2alex.mahler import log_mahler_mv
from l2alex.quadrature import NodeBudget, adaptive_circle_mean

from conftest import random_int_poly
from oracles import quad_mahler_1v, trapezoid_mahler_2v

GOLDEN_PLUS = 2.618033988749895    # (3 + sqrt 5) / 2
GOLDEN_MINUS = 0.3819660112501051  # (3 - sqrt 5) / 2

# Smyth: m(1 + x + y + z) = 7 zeta(3) / (2 pi^2)
SMYTH_3V = {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
SMYTH_3V_LOG = 7 * 1.2020569031595942 / (2 * math.pi ** 2)

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


class TestMahler1v:
    def test_quadratic(self):
        assert mahler_1v(quadratic()) == pytest.approx(GOLDEN_PLUS, abs=1e-10)

    def test_monomial(self):
        assert mahler_1v(P(1, {(100,): 1})) == 1.0

    def test_lehmer(self):
        assert mahler_1v(LEHMER) == pytest.approx(1.176280818, abs=1e-8)

    def test_lehmer_against_quadrature_oracle(self):
        assert mahler_1v(LEHMER) == \
            pytest.approx(quad_mahler_1v(LEHMER, 1e-9), rel=2e-8)

    def test_zero(self):
        assert mahler_1v(LaurentPoly.zero(1)) == 0.0

    def test_quadrature_agreement_random(self, rng):
        for _ in range(12):
            p = random_int_poly(rng, 1, max_terms=5, max_exp=3, nonzero=True)
            m = mahler_1v(p)
            assert abs(m - quad_mahler_1v(p, 1e-8)) / m < 1e-6


class TestScaledMahler:
    def test_linear(self):
        p = P(1, {(1,): 1, (0,): -2})
        assert scaled_mahler_1v(p, 1.0) == pytest.approx(2.0, rel=1e-12)
        assert scaled_mahler_1v(p, 3.0) == pytest.approx(3.0, rel=1e-12)

    def test_matches_unit_scale(self):
        assert scaled_mahler_1v(quadratic(), 1.0) == \
            pytest.approx(mahler_1v(quadratic()), rel=1e-12)

    def test_small_scale_limit_is_root_product(self):
        # product of the roots = constant coefficient
        assert scaled_mahler_1v(quadratic(), 1e-9) == \
            pytest.approx(1.0, rel=1e-9)

    def test_equals_substituted_polynomial(self, rng):
        for _ in range(10):
            p = random_int_poly(rng, 1, nonzero=True)
            c = rng.uniform(0.2, 4.0)
            subst = LaurentPoly(1, {e: v * c ** e[0]
                                    for e, v in p.terms.items()})
            assert scaled_mahler_1v(p, c) == \
                pytest.approx(mahler_1v(subst), rel=1e-10)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            scaled_mahler_1v(LaurentPoly.zero(1), 1.0)


class TestMonomialProfile:
    def test_quadratic_pieces(self):
        pieces = monomial_profile(quadratic(), 1.0)
        assert len(pieces) == 3
        assert pieces[0].exponent == 0 and pieces[0].coeff == \
            pytest.approx(1.0, rel=1e-12)
        assert pieces[1].exponent == 1 and pieces[1].coeff == \
            pytest.approx(GOLDEN_PLUS, rel=1e-12)
        assert pieces[2].exponent == 2 and pieces[2].coeff == \
            pytest.approx(1.0, rel=1e-12)
        assert pieces[1].t_lo == pytest.approx(GOLDEN_MINUS, rel=1e-12)
        assert pieces[1].t_hi == pytest.approx(GOLDEN_PLUS, rel=1e-12)

    def test_single_variable_monomial(self):
        for s in (2.0, -1.5):
            pieces = monomial_profile(P(1, {(1,): 1}), s)
            assert len(pieces) == 1
            assert (pieces[0].coeff, pieces[0].exponent) == (1.0, s)

    def test_constant(self):
        pieces = monomial_profile(P(1, {(0,): 3}), 2.0)
        assert len(pieces) == 1
        assert (pieces[0].coeff, pieces[0].exponent) == (3.0, 0.0)

    def test_sigma_zero_collapses(self):
        pieces = monomial_profile(quadratic(), 0.0)
        assert len(pieces) == 1
        assert pieces[0].coeff == pytest.approx(GOLDEN_PLUS, rel=1e-12)

    def test_exponents_nondecreasing(self, rng):
        for s in (1.0, 0.5, -2.0):
            for _ in range(5):
                p = random_int_poly(rng, 1, max_terms=5, max_exp=3,
                                    nonzero=True)
                exps = [pc.exponent for pc in monomial_profile(p, s)]
                assert exps == sorted(exps)

    def test_consistency_with_scaled_measure(self, rng):
        for _ in range(5):
            p = random_int_poly(rng, 1, max_terms=5, max_exp=3, nonzero=True)
            sigma1 = rng.choice([1.0, 2.0, -1.0, 0.5])
            pieces = monomial_profile(p, sigma1)
            for _ in range(50):
                t = math.exp(rng.uniform(-5, 5))
                expect = scaled_mahler_1v(p, t ** sigma1)
                assert profile_value(pieces, t) == \
                    pytest.approx(expect, rel=1e-12)


class TestMahlerMV:
    def test_smyth_constant(self):
        p = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        assert mahler_mv(p, 1e-8) == pytest.approx(1.3813564445, rel=1e-6)

    def test_against_trapezoid_oracle(self):
        p = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        assert mahler_mv(p, 1e-8) == \
            pytest.approx(trapezoid_mahler_2v(p, 1024), rel=3e-6)

    def test_monomial(self):
        assert mahler_mv(P(2, {(1, 1): 1}), 1e-8) == 1.0

    def test_product_polynomial(self):
        p = P(2, {(1, 1): 1, (1, 0): -3, (0, 1): -2, (0, 0): 6})
        assert mahler_mv(p, 1e-8) == pytest.approx(6.0, rel=1e-8)

    def test_zero(self):
        assert mahler_mv(LaurentPoly.zero(2), 1e-8) == 0.0

    def test_delegates_to_jensen_for_1v(self):
        assert mahler_mv(quadratic(), 1e-8) == mahler_1v(quadratic())

    def test_circle_root_is_integrable(self):
        # (z1 - 1)(z2 - 3): the slice vanishes at theta = 0 in the limit
        p = P(2, {(1, 1): 1, (1, 0): -3, (0, 1): -1, (0, 0): 3})
        assert mahler_mv(p, 1e-7) == pytest.approx(3.0, rel=1e-6)

    def test_multiplicativity(self, rng):
        tol = 1e-7
        for _ in range(6):
            a = random_int_poly(rng, 2, max_terms=3, max_exp=1, nonzero=True)
            b = random_int_poly(rng, 2, max_terms=3, max_exp=1, nonzero=True)
            ma, mb = mahler_mv(a, tol), mahler_mv(b, tol)
            mab = mahler_mv(a * b, tol)
            assert abs(mab - ma * mb) <= 3 * tol * max(1.0, ma * mb) + 1e-12

    def test_monomial_invariance(self, rng):
        tol = 1e-8
        for _ in range(5):
            p = random_int_poly(rng, 2, nonzero=True)
            shifted = LaurentPoly(2, {(e[0] + 2, e[1] - 1): c
                                      for e, c in p.terms.items()})
            assert mahler_mv(shifted, tol) == \
                pytest.approx(mahler_mv(p, tol), rel=3 * tol + 1e-10)

    def test_inversion_invariance(self, rng):
        tol = 1e-8
        for _ in range(5):
            p = random_int_poly(rng, 2, nonzero=True)
            inv = LaurentPoly(2, {(-e[0], -e[1]): c
                                  for e, c in p.terms.items()})
            assert mahler_mv(inv, tol) == \
                pytest.approx(mahler_mv(p, tol), rel=3 * tol + 1e-10)

    def test_integer_measure_at_least_one(self, rng):
        for _ in range(15):
            p = random_int_poly(rng, 2, nonzero=True)
            assert mahler_mv(p, 1e-8) >= 1.0 - 1e-8

    def test_three_variables(self):
        p = P(3, {(1, 1, 1): 1, (1, 1, 0): -3, (0, 0, 1): -2, (0, 0, 0): 6})
        # (z1 z2 - 2)(z3 - 3): measure 2 * 3
        assert mahler_mv(p, 1e-5) == pytest.approx(6.0, rel=1e-4)

    def test_report_carries_achieved_tol(self):
        p = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        rep = mahler_mv_report(p, 1e-6)
        assert rep.achieved_tol <= 1e-6
        assert math.exp(rep.log_measure) == pytest.approx(rep.measure)

    def test_budget_error_carries_best_estimate(self):
        p = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        with pytest.raises(QuadratureBudgetError) as info:
            mahler_mv(p, 1e-13, max_evals=600)
        assert info.value.best_estimate == pytest.approx(1.38135644, rel=1e-3)
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

        def full_circle(f, tol, budget, even=False):
            return adaptive_circle_mean(f, tol, budget)

        monkeypatch.setattr(mahler_mod, "adaptive_circle_mean", full_circle)
        full_budget = NodeBudget()
        full = log_mahler_mv(p, 1e-8, full_budget)
        assert 2 * half_budget.used == full_budget.used == 768
        assert half[0] == pytest.approx(full[0], abs=1e-14)

    def test_smyth_three_variables_within_default_budget(self):
        rep = mahler_mv_report(P(3, SMYTH_3V))
        assert abs(rep.log_measure - SMYTH_3V_LOG) <= rep.achieved_tol
        assert rep.achieved_tol <= 1e-8

    def test_nested_budget_error_reports_overall_estimate(self):
        # nan until the outermost integral completes its first sweep
        finite = 0
        for max_evals in (1000, 100_003, 300_001, 700_001):
            with pytest.raises(QuadratureBudgetError) as info:
                mahler_mv(P(3, SMYTH_3V), max_evals=max_evals)
            best = info.value.best_estimate
            if not math.isnan(best):
                finite += 1
                assert abs(math.log(best) - SMYTH_3V_LOG) <= \
                    info.value.achieved_tol + 1e-6
        assert finite >= 2

    def test_zero_slice_raises(self, monkeypatch):
        import numpy as np

        from l2alex.errors import DegenerateSliceError

        def fake_kernel(coefs, inner, phases, strip_tol):
            m = phases.shape[0]
            return np.zeros(m), np.ones(m, dtype=bool)

        monkeypatch.setattr(kernel_mod, "batch_log_mahler", fake_kernel)
        p = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        with pytest.raises(DegenerateSliceError):
            mahler_mv(p, 1e-6)
