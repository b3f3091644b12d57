import math

import pytest

from l2alex import (ChiefPartTieError, CohomClass, DetFunction, LaurentMatrix,
                    LaurentPoly, QuadratureBudgetError, ZeroPolynomialError,
                    chief_part, convexity_check, det_function,
                    exponent_bound, geometric_grid, mahler_mv_report)
from l2alex import degree

from conftest import random_int_matrix, random_rational_class
from oracles import adjoint, lipschitz_degree_check


def P(nvars, terms):
    return LaurentPoly(nvars, terms)


def quadratic_fn(sigma=1.0):
    a = LaurentMatrix([[P(1, {(2,): 1, (1,): -3, (0,): 1})]])
    return det_function(a, CohomClass([sigma]))


GOLDEN_PLUS = 2.618033988749895
GOLDEN_MINUS = 0.3819660112501051
SQRT2 = math.sqrt(2)
ONE_X_Y = P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})


def random_real_class(rng, nvars):
    """Uniform reals: about a quarter of them lie farther than 1e-12 from
    every fraction of denominator <= 10^6 and so get no decomposition."""
    return CohomClass([rng.uniform(-3, 3) for _ in range(nvars)])


class TestDetFunction:
    def test_one_minus_z(self):
        a = LaurentMatrix([[P(1, {(0,): 1, (1,): -1})]])
        v = det_function(a, CohomClass([1.0]))
        assert v.det_poly == P(1, {(0,): 1, (1,): -1})
        assert v.eval(5.0) == pytest.approx(5.0, rel=1e-12)
        assert v.eval(0.2) == pytest.approx(1.0, rel=1e-12)

    def test_identity_matrix(self):
        rows = [[P(1, {(0,): int(i == j)}) for j in range(3)] for i in range(3)]
        v = det_function(LaurentMatrix(rows), CohomClass([1.0]))
        for t in (0.1, 1.0, 10.0):
            assert v.eval(t) == 1.0

    def test_quadratic_closed_form(self):
        v = quadratic_fn()
        for t in (0.2, 1.0, 3.0):
            expect = max(t, GOLDEN_PLUS) * max(t, GOLDEN_MINUS)
            assert v.eval(t) == pytest.approx(expect, rel=1e-12)

    def test_eval_at_one_is_mahler(self, rng):
        for _ in range(5):
            a = random_int_matrix(rng, 2, 2)
            c = random_rational_class(rng, 2)
            v = det_function(a, c)
            assert v.eval(1.0, 1e-9) == pytest.approx(
                mahler_mv_report(v.det_poly, 1e-9).measure, rel=1e-7)

    def test_zero_determinant_is_zero_function(self):
        z = P(1, {(1,): 1})
        a = LaurentMatrix([[z, z], [z, z]])
        v = det_function(a, CohomClass([1.0]))
        assert v.is_zero and v.eval(2.0) == 0.0

    def test_scaling_identity_bitwise_1v(self):
        for c in (2.0, -1.0, 1.0 / 3.0):
            va = det_function(
                LaurentMatrix([[P(1, {(2,): 1, (1,): -3, (0,): 1})]]),
                CohomClass([1.0]).scaled(c))
            vb = quadratic_fn()
            for t in (0.37, 2.0, 5.0):
                assert va.eval(t) == vb.eval(t ** c)

    def test_scaling_identity_2v(self, rng):
        a = random_int_matrix(rng, 2, 2)
        base = CohomClass([1.0, 1.0])
        for c in (2.0, -1.0, 1.0 / 3.0):
            va = det_function(a, base.scaled(c))
            vb = det_function(a, base)
            for t in (0.6, 2.5):
                assert va.eval(t, 1e-8) == \
                    pytest.approx(vb.eval(t ** c, 1e-8), rel=1e-10)

    def test_adjoint_identity(self, rng):
        tol = 1e-8
        for _ in range(4):
            a = random_int_matrix(rng, 2, 2)
            c = CohomClass([1.0, 0.5])
            va = det_function(a, c)
            vb = det_function(adjoint(a), c)
            for t in (0.4, 3.0):
                assert va.eval(t, tol) == \
                    pytest.approx(vb.eval(1.0 / t, tol), rel=3 * tol)

    def test_huge_t_no_overflow(self):
        a = LaurentMatrix([[P(1, {(40,): 7, (0,): 3})]])
        v = det_function(a, CohomClass([9.0]))
        logv = v.log_eval(1e6)
        assert math.isfinite(logv)
        assert logv == pytest.approx(math.log(7) + 360 * math.log(1e6),
                                     rel=1e-9)
        assert v.eval(1e6) == math.inf

    @pytest.mark.parametrize("t, log_c, d", [(1e-300, 0.0, 0.0),
                                             (1e300, 0.0, 6.0)],
                             ids=["tiny", "huge"])
    def test_extreme_t_follows_the_asymptote(self, t, log_c, d):
        # t^3 is outside the doubles at both t; log V = log C + d log t
        # there, with C = 1 at both ends and d = 0, 6
        v = quadratic_fn(3.0)
        logv = v.log_eval(t)
        assert math.isfinite(logv)
        assert logv == pytest.approx(log_c + d * math.log(t), abs=1e-12,
                                     rel=1e-12)

    def test_variable_count_mismatch_refused(self):
        with pytest.raises(ValueError, match="variables"):
            DetFunction(P(2, {(1, 0): 1}), CohomClass([1.0]))

    @pytest.mark.parametrize("index", [0, 10 ** 400], ids=["0", "10^400"])
    def test_index_outside_the_doubles_refused(self, index):
        with pytest.raises(ValueError, match="index_divisor"):
            DetFunction(ONE_X_Y, CohomClass([1, 1]), index)

    @pytest.mark.parametrize("index", [1, 2])
    def test_budget_error_estimates_value(self, monkeypatch, index):
        # (1+x)(1+x+y^3) is twisted to max |coefficient| 1 (a factor 2)
        p = P(2, {(0, 0): 1, (1, 0): 1}) * P(2, {(0, 0): 1, (1, 0): 1,
                                                 (0, 3): 1})
        v = DetFunction(p, CohomClass([1, 1]), index)
        expect = v.log_eval(1.0, 1e-10)
        monkeypatch.setattr(degree, "DEFAULT_NODE_BUDGET", 600)
        with pytest.raises(QuadratureBudgetError) as info:
            v.log_eval(1.0, 1e-13)
        assert info.value.best_estimate == pytest.approx(expect, abs=1e-3)


class TestChiefPart:
    def test_univariate_ends(self):
        p = P(1, {(2,): 1, (1,): -3, (0,): 1})
        c = CohomClass([1.0])
        w, q = chief_part(p, c)[0]
        assert w == (2,) and q == P(1, {(2,): 1})
        w, q = chief_part(p, c)[1]
        assert w == (0,) and q == P(1, {(0,): 1})

    def test_two_dim_weights(self):
        p = P(2, {(1, 1): 2, (1, 0): 1, (0, 0): 3})
        c = CohomClass([1.0, math.sqrt(2)], r=[1.0, math.sqrt(2)],
                       phi=[[1, 0], [0, 1]])
        w, q = chief_part(p, c)[0]
        assert w == (1, 1) and q == P(2, {(1, 1): 2})
        w, q = chief_part(p, c)[1]
        assert w == (0, 0) and q == P(2, {(0, 0): 3})

    def test_collapsed_group_survives(self):
        # Phi collapses z2: the fiber polynomial keeps all three monomials
        p = P(2, {(1, 0): 1, (1, 1): -1, (1, 2): 1})
        c = CohomClass([1.0, 0.0], r=[1.0], phi=[[1, 0]])
        w, q = chief_part(p, c)[0]
        assert w == (1,)
        assert q == p
        assert chief_part(p, c)[1][0] == (1,)

    def test_tie_raises(self):
        p = P(2, {(1, 0): 1, (0, 1): 1})
        c = CohomClass([1.0, 1.0], r=[1.0, 1.0], phi=[[1, 0], [0, 1]])
        with pytest.raises(ChiefPartTieError):
            chief_part(p, c)[0]
        # float weights that agree to rounding, with no decomposition
        c = CohomClass([SQRT2, SQRT2 + 1e-14])
        assert not c.has_decomposition
        with pytest.raises(ChiefPartTieError):
            chief_part(p, c)[0]

    def test_tie_at_both_ends_names_the_plus_end(self):
        c = CohomClass([1.0, 1.0], r=[1.0, 1.0], phi=[[1, 0], [0, 1]])
        p = P(2, {(1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1})
        with pytest.raises(ChiefPartTieError, match="tie at 1.0:"):
            chief_part(p, c)
        # a unique largest group: the smallest groups' tie is named
        p = P(2, {(2, 0): 1, (-1, 0): 1, (0, -1): 1})
        with pytest.raises(ChiefPartTieError, match="tie at -1.0:"):
            chief_part(p, c)

    def test_asymptote_weighs_each_monomial_once(self, monkeypatch):
        calls = []
        weigh = CohomClass.integer_weight

        def counted(c, exp):
            calls.append(exp)
            return weigh(c, exp)

        monkeypatch.setattr(CohomClass, "integer_weight", counted)
        p = P(2, {(1, 1): 2, (1, 0): 1, (0, 0): 3})
        c = CohomClass([1.0, SQRT2], r=[1.0, SQRT2], phi=[[1, 0], [0, 1]])
        rep = DetFunction(p, c).asymptote()
        assert sorted(calls) == sorted(p.terms)
        assert (rep.d_plus, rep.d_minus) == (1.0 + SQRT2, 0.0)
        assert (rep.C_plus, rep.C_minus) == pytest.approx((2.0, 3.0))

    def test_small_decomposed_weights_are_no_tie(self):
        # <r, w> of the groups (2,) and (1,) differ by 1e-13, at a scale of
        # 2e-13: far apart, though closer than any absolute tolerance
        c = CohomClass([1e-13, 2e-13], r=[1e-13], phi=[[1, 2]])
        rep = DetFunction(ONE_X_Y, c).asymptote()
        assert rep.method == "exact-chief-part"
        assert (rep.d_plus, rep.d_minus) == (2e-13, 0.0)
        assert rep.C_plus == rep.C_minus == 1.0

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            chief_part(LaurentPoly.zero(1), CohomClass([1.0]))


class TestAsymptote:
    def test_quadratic(self):
        rep = quadratic_fn().asymptote()
        assert rep.method == "exact-chief-part"
        assert (rep.d_plus, rep.d_minus) == (2.0, 0.0)
        assert rep.C_plus == pytest.approx(1.0, abs=1e-12)
        assert rep.C_minus == pytest.approx(1.0, abs=1e-12)
        assert rep.deg_b == 2.0

    def test_constant_function(self):
        v = DetFunction(P(1, {(0,): 5}), CohomClass([1.0]))
        rep = v.asymptote()
        assert rep.d_plus == rep.d_minus == 0.0
        assert rep.C_plus == rep.C_minus == pytest.approx(5.0)

    def test_one_minus_z(self):
        a = LaurentMatrix([[P(1, {(0,): 1, (1,): -1})]])
        rep = det_function(a, CohomClass([1.0])).asymptote()
        assert (rep.d_plus, rep.d_minus, rep.deg_b) == (1.0, 0.0, 1.0)
        assert rep.C_plus == rep.C_minus == pytest.approx(1.0)

    def test_face_on_irrational_class(self):
        v = DetFunction(P(1, {(2,): 1, (1,): -3, (0,): 1}),
                        CohomClass([math.sqrt(2)]))
        rep = v.asymptote(1e-9)
        assert rep.method == "face"
        assert rep.d_plus == 2 * math.sqrt(2)
        assert rep.d_minus == 0.0
        assert rep.C_plus == 1.0

    def test_near_tie_is_exact(self):
        rep = DetFunction(ONE_X_Y, CohomClass([1.0, 1.0 + 1e-9])).asymptote()
        assert rep.method == "face"
        assert rep.d_plus == 1.0 + 1e-9 and rep.d_minus == 0.0
        assert rep.C_plus == pytest.approx(1.0, abs=1e-12)
        assert rep.C_minus == pytest.approx(1.0, abs=1e-12)

    def test_small_class_is_not_snapped_to_zero(self):
        c = CohomClass([1e-13, 2e-13])
        assert not c.has_decomposition
        rep = DetFunction(ONE_X_Y, c).asymptote()
        assert rep.method == "face"
        assert (rep.d_plus, rep.d_minus) == (2e-13, 0.0)
        assert rep.C_plus == rep.C_minus == 1.0

    def test_shared_face_is_exact(self):
        # x and y share the weight sqrt 2: the face is x + y, M(x + y) = 1
        rep = DetFunction(ONE_X_Y, CohomClass([SQRT2, SQRT2])).asymptote()
        assert rep.method == "face"
        assert rep.d_plus == SQRT2
        assert rep.C_plus == pytest.approx(1.0, abs=1e-12)

    def test_path_independent(self, rng):
        # d+- are the extreme <sigma, v> of the support whether or not the
        # class has a decomposition
        paths = set()
        for _ in range(12):
            a = random_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 2))
            for c in (random_rational_class(rng, a.nvars),
                      random_real_class(rng, a.nvars)):
                v = det_function(a, c)
                rep = v.asymptote()
                paths.add(rep.method)
                weights = [c.weight(e) for e in v.det_poly.terms]
                scale = max(abs(x) for x in weights)
                assert abs(rep.d_plus - max(weights)) <= 1e-11 * scale
                assert abs(rep.d_minus - min(weights)) <= 1e-11 * scale
                assert rep.C_plus >= 1.0 - 1e-9
                assert rep.C_minus >= 1.0 - 1e-9
        assert paths == {"exact-chief-part", "face"}

    @pytest.mark.parametrize("sigma, terms", [
        ([1e308], {(2,): 1, (1,): -3, (0,): 1}),
        ([1.7e308, SQRT2], {(0, 0): 1, (2, 0): 1, (0, 1): 1})],
        ids=["decomposed", "undecomposed"])
    def test_exponent_beyond_double_range_saturates(self, sigma, terms):
        rep = DetFunction(P(len(sigma), terms), CohomClass(sigma)).asymptote()
        assert rep.d_plus == math.inf and rep.d_minus == 0.0
        assert rep.C_plus == rep.C_minus == 1.0
        rep = DetFunction(P(len(sigma), terms),
                          CohomClass([-s for s in sigma])).asymptote()
        assert rep.d_minus == -math.inf

    def test_matches_far_evaluations(self, rng):
        tol = 1e-8
        for _ in range(6):
            a = random_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 2))
            c = random_rational_class(rng, a.nvars)
            v = det_function(a, c)
            rep = v.asymptote(tol)
            assert abs(v.eval(1e6, tol) /
                       (rep.C_plus * (1e6) ** rep.d_plus) - 1) < 1e-3
            assert abs(v.eval(1e-6, tol) /
                       (rep.C_minus * (1e-6) ** rep.d_minus) - 1) < 1e-3

    def test_integer_coefficients_at_least_one(self, rng):
        for _ in range(8):
            a = random_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 2))
            c = random_rational_class(rng, a.nvars)
            rep = det_function(a, c).asymptote()
            assert rep.C_plus >= 1.0 - 1e-9
            assert rep.C_minus >= 1.0 - 1e-9

    def test_deg_bounded_by_exponent_bound(self, rng):
        for _ in range(8):
            a = random_int_matrix(rng, rng.randint(1, 3), rng.randint(1, 2))
            c = random_rational_class(rng, a.nvars)
            assert det_function(a, c).asymptote().deg_b <= \
                exponent_bound(a, c) + 1e-9

    def test_zero_function_rejected(self):
        v = DetFunction(LaurentPoly.zero(1), CohomClass([1.0]))
        with pytest.raises(ZeroPolynomialError):
            v.asymptote()


class TestConvexityCheck:
    def test_max_one_t_passes(self):
        a = LaurentMatrix([[P(1, {(0,): 1, (1,): -1})]])
        grid = geometric_grid(2.0 ** -10, 2.0 ** 10, 21)
        rep = convexity_check(det_function(a, CohomClass([1.0])), grid)
        assert rep.passed and not rep.zero_function
        assert rep.slope_min == pytest.approx(0.0, abs=1e-9)
        assert rep.slope_max == pytest.approx(1.0, abs=1e-9)

    def test_random_integer_matrix(self, rng):
        grid = geometric_grid(1e-3, 1e3, 41)
        a = random_int_matrix(rng, 3, 1)
        rep = convexity_check(det_function(a, CohomClass([1.5])), grid,
                              tol=1e-6)
        assert rep.passed

    def test_concave_negative_control(self):
        # max(1, t)^{-1} is multiplicatively concave; feed its samples in
        # through a reciprocal-power determinant function stand-in
        class Fake:
            is_zero = False
            exp_bound = 1.0

            def log_eval(self, t, tol=1e-8):
                return -math.log(max(1.0, t))

        grid = geometric_grid(0.1, 10.0, 9)
        rep = convexity_check(Fake(), grid, tol=1e-9)
        assert not rep.passed and rep.violations

    @pytest.mark.parametrize("shape, passed", [
        (lambda s: math.log1p(math.exp(s)), True),   # t^N (1 + t)
        (lambda s: -1e5 * abs(s), False),            # t^N min(t, 1/t)^1e5
    ], ids=["convex", "concave"])
    def test_huge_log_values_judged_beyond_rounding(self, shape, passed):
        # log V(t) = 1e19 log t + shape(log t) rounds to 1024 at t = 2:
        # the convex shape's O(1) is lost to rounding, the concave one's
        # 7e4 is not
        class Fake:
            is_zero = False
            exp_bound = 1.0

            def log_eval(self, t, tol=1e-8):
                return 1e19 * math.log(t) + shape(math.log(t))

        for grid in ([0.5, 1.0, 2.0], geometric_grid(1e-3, 1e3, 9)):
            rep = convexity_check(Fake(), grid)
            assert rep.passed == passed
            assert bool(rep.violations) == bool(rep.slope_violations) != passed

    def test_zero_function_flagged(self):
        v = DetFunction(LaurentPoly.zero(1), CohomClass([1.0]))
        rep = convexity_check(v, geometric_grid(0.1, 10, 5))
        assert rep.zero_function and rep.passed

    def test_monomial_function_slope_exceeds_range_bound_happily(self):
        # V(t) = t has slopes {1} but slope range 0 <= R = 0
        v = det_function(LaurentMatrix([[P(1, {(1,): 1})]]), CohomClass([1.0]))
        rep = convexity_check(v, geometric_grid(0.1, 10, 9))
        assert rep.passed
        assert rep.slope_min == pytest.approx(1.0)
        assert rep.slope_max == pytest.approx(1.0)

    def test_log_values_beyond_double_range_fail(self):
        # z^(10^400) (1 - 3z + z^2): log V is -inf, 0.962 and inf on the
        # grid, so the midpoint excess and the slope range are inf - inf
        e = 10 ** 400
        p = P(1, {(e,): 1, (e + 1,): -3, (e + 2,): 1})
        v = det_function(LaurentMatrix([[p]]), CohomClass([1.0]))
        rep = convexity_check(v, [0.5, 1.0, 2.0])
        assert rep.log_values[0] == -math.inf and rep.log_values[2] == math.inf
        assert math.isnan(rep.slope_range)
        assert not rep.passed
        assert math.isnan(rep.violations[0][3])
        assert rep.slope_violations[0][:2] == ((0.5, 1.0), (0.5, 1.0))

    @pytest.mark.parametrize("grid, match", [
        ([0.5, 1.0], "at least 3"), ([2.0, 1.0, 0.5], "increasing")],
        ids=["two-points", "decreasing"])
    def test_short_or_decreasing_grid_rejected(self, grid, match):
        with pytest.raises(ValueError, match=match):
            convexity_check(quadratic_fn(), grid)

    def test_non_geometric_grid_rejected(self):
        v = quadratic_fn()
        with pytest.raises(ValueError):
            convexity_check(v, [0.1, 0.2, 10.0])

    def test_slope_range_is_the_range_of_all_chords(self, rng):
        # every chord's slope is a positive mean of the adjacent slopes it
        # spans, so the adjacent slopes alone give the extremes
        a = random_int_matrix(rng, 2, 1)
        grid = geometric_grid(1e-2, 1e2, 9)
        rep = convexity_check(det_function(a, CohomClass([1.5])), grid)
        logs = rep.log_values
        logt = [math.log(t) for t in grid]
        chords = [(logs[j] - logs[i]) / (logt[j] - logt[i])
                  for i in range(len(grid)) for j in range(i + 1, len(grid))]
        assert rep.slope_min == pytest.approx(min(chords), abs=1e-12)
        assert rep.slope_max == pytest.approx(max(chords), abs=1e-12)

    def test_slope_monotone_along_grid(self, rng):
        # adjacent-pair slopes are nondecreasing for a convex function
        a = random_int_matrix(rng, 2, 1)
        v = det_function(a, CohomClass([1.0]))
        grid = geometric_grid(1e-3, 1e3, 25)
        logs = [math.log(v.eval(t)) for t in grid]
        logt = [math.log(t) for t in grid]
        slopes = [(logs[i + 1] - logs[i]) / (logt[i + 1] - logt[i])
                  for i in range(len(grid) - 1)]
        assert all(s2 >= s1 - 1e-9 for s1, s2 in zip(slopes, slopes[1:]))


class TestLipschitz:
    def test_zero_direction(self):
        a = LaurentMatrix([[P(1, {(0,): 1, (1,): -1})]])
        base = CohomClass([1.0])
        xi = CohomClass([0.0])
        rep = lipschitz_degree_check(a, base, xi, steps=3)
        assert rep.passed and rep.max_ratio == 0.0
        assert all(d == rep.degrees[0] for d in rep.degrees)

    def test_linear_degree_growth(self):
        a = LaurentMatrix([[P(1, {(0,): 1, (1,): -1})]])
        rep = lipschitz_degree_check(a, CohomClass([1.0]), CohomClass([1.0]),
                                     steps=2)
        assert rep.degrees == pytest.approx([1.0, 1.5, 2.0])
        assert rep.bound_2r == 2.0
        assert rep.passed

    def test_random_rational(self, rng):
        for _ in range(3):
            a = random_int_matrix(rng, 2, 2)
            base = random_rational_class(rng, 2)
            xi = random_rational_class(rng, 2)
            rep = lipschitz_degree_check(a, base, xi, steps=4)
            assert rep.passed

    def test_irrational_segment_is_exact(self):
        rep = lipschitz_degree_check(
            LaurentMatrix([[ONE_X_Y]]), CohomClass([1.0, 0.0]),
            CohomClass([0.0, SQRT2]), steps=3)
        assert rep.degrees == [1.0, 1.0, 1.0, SQRT2]
        assert all(type(d) is float for d in rep.degrees)

    def test_degenerate_zero_determinant(self):
        z = P(1, {(1,): 1})
        a = LaurentMatrix([[z, z], [z, z]])
        rep = lipschitz_degree_check(a, CohomClass([1.0]), CohomClass([1.0]),
                                     steps=2)
        assert rep.degenerate and rep.passed
