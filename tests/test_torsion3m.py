import math
import random

import mpmath
import pytest

from l2alex import (FIGURE_EIGHT_ENTROPY, FIGURE_EIGHT_VOLUME, UNSPECIFIED,
                    V3, CohomClass, ConstantTorsion, FiberedTorsion,
                    GraphTorsion, LaurentMatrix, LaurentPoly, TorsionSpec,
                    ProductTorsion, QuadratureBudgetError,
                    ZeroPolynomialError, exponent_bound, geometric_grid,
                    torsion_degree, torsion_from_presentation,
                    triple_figure_eight, triple_figure_eight_torsion)
from l2alex import degree

from oracles import (fox_derivative_1v, hexagon_norm_check, symmetry_check,
                     two_bridge_relator)


def P(nvars, terms):
    return LaurentPoly(nvars, terms)


def quadratic_spec(sigma=1.0, pairs=(), index=1):
    a = LaurentMatrix([[P(1, {(2,): 1, (1,): -3, (0,): 1})]])
    return TorsionSpec(a, CohomClass([sigma]), pairs, index)


GOLDEN_PLUS = 2.618033988749895
GOLDEN_MINUS = 0.3819660112501051


class TestPresentation:
    def test_pair_cancellation(self):
        a = LaurentMatrix([[P(1, {(0,): 1, (1,): -1})]])
        tau = torsion_from_presentation(
            TorsionSpec(a, CohomClass([1.0]), pairs=[(0.0, 1.0)]))
        for t in (0.3, 1.0, 7.0):
            assert tau.value(t) == 1.0

    def test_quadratic_values(self):
        tau = torsion_from_presentation(quadratic_spec())
        for t in (0.5, 1.0, 4.0):
            expect = max(t, GOLDEN_PLUS) * max(t, GOLDEN_MINUS)
            assert tau.value(t) == pytest.approx(expect, rel=1e-12)

    def test_pair_divisor_drops_degree(self):
        plain = torsion_from_presentation(quadratic_spec())
        divided = torsion_from_presentation(quadratic_spec(pairs=[(2.0, 0.0)]))
        assert torsion_degree(plain).deg_b == pytest.approx(2.0)
        assert torsion_degree(divided).deg_b == pytest.approx(0.0, abs=1e-12)

    def test_zero_function_flag(self):
        z = P(1, {(1,): 1})
        a = LaurentMatrix([[z, z], [z, z]])
        tau = torsion_from_presentation(TorsionSpec(a, CohomClass([1.0])))
        assert tau.zero_function
        assert tau.value(2.0) == 0.0
        with pytest.raises(ZeroPolynomialError):
            torsion_degree(tau)

    def test_index_divisor(self):
        tau = torsion_from_presentation(quadratic_spec(index=2))
        plain = torsion_from_presentation(quadratic_spec())
        assert tau.value(3.0) == pytest.approx(math.sqrt(plain.value(3.0)))
        assert torsion_degree(tau).deg_b == pytest.approx(1.0)

    def test_positive_everywhere(self, rng):
        from conftest import random_int_matrix, random_rational_class
        for _ in range(5):
            a = random_int_matrix(rng, 2, 1)
            tau = torsion_from_presentation(
                TorsionSpec(a, random_rational_class(rng, 1),
                            pairs=[(1.0, 0.0)]))
            for t in (0.1, 1.0, 10.0):
                assert tau.value(t) > 0

    def test_budget_error_estimates_value(self, monkeypatch):
        # the estimate carries the index 2 and the pair (0, 1), which
        # divide log V(2) by 2 and then subtract log(2) / 2
        p = P(2, {(0, 0): 1, (1, 0): 1}) * P(2, {(0, 0): 1, (1, 0): 1,
                                                 (0, 3): 1})
        tau = torsion_from_presentation(TorsionSpec(
            LaurentMatrix([[p]]), CohomClass([1, 1]), [(0.0, 1.0)], 2))
        expect = tau.value(2.0, 1e-10)
        monkeypatch.setattr(degree, "DEFAULT_NODE_BUDGET", 60)
        with pytest.raises(QuadratureBudgetError) as info:
            tau.value(2.0, 1e-13)
        assert info.value.best_estimate == pytest.approx(expect, rel=1e-3)


class TestClosedForms:
    def test_figure_eight_values(self):
        h = FIGURE_EIGHT_ENTROPY
        assert h == pytest.approx(0.9624236501192069, abs=1e-15)
        assert FiberedTorsion(h, 1.0).value(0.3) == 1.0
        assert FiberedTorsion(h, 1.0).value(3.0) == 3.0
        assert FiberedTorsion(h, 1.0).value(1.0) is UNSPECIFIED

    def test_fibered_zero_entropy(self):
        assert FiberedTorsion(0.0, 2.0).value(10.0) == 100.0
        assert FiberedTorsion(0.0, 2.0).value(0.5) == 1.0

    def test_fibered_gap_boundaries(self):
        h = 0.5
        assert FiberedTorsion(h, 1.0).value(math.exp(-h)) is UNSPECIFIED
        assert FiberedTorsion(h, 1.0).value(math.exp(h)) is UNSPECIFIED

    def test_fibered_volume_pins_t1(self):
        f = FiberedTorsion(1.0, 1.0, volume=FIGURE_EIGHT_VOLUME)
        assert f.value(1.0) == pytest.approx(math.exp(V3 / (3 * math.pi)))
        assert f.value(1.1) is UNSPECIFIED

    def test_graph_closed_form(self):
        assert GraphTorsion(0.0).value(17.0) == 1.0
        assert GraphTorsion(3.0).value(2.0) == 8.0
        assert GraphTorsion(3.0).value(0.5) == 1.0
        for t in geometric_grid(0.01, 100.0, 10):
            assert GraphTorsion(3.0).value(t) == max(1.0, t) ** 3

    def test_closed_forms_saturate(self):
        assert FiberedTorsion(1.0, 2.0).value(1e200) == math.inf
        assert GraphTorsion(2.0).value(1e200) == math.inf
        # the gap [e^-1000, e^1000] covers every positive double
        assert FiberedTorsion(1000.0, 1.0).value(1e300) is UNSPECIFIED

    def test_degree_reports(self):
        rep = FiberedTorsion(0.7, 1.0).degree_report()
        assert (rep.deg_b, rep.C_plus, rep.C_minus) == (1.0, 1.0, 1.0)
        rep = GraphTorsion(2.0).degree_report()
        assert (rep.deg_b, rep.C_plus, rep.C_minus) == (2.0, 1.0, 1.0)
        rep = ConstantTorsion(1.5).degree_report()
        assert (rep.deg_b, rep.C_plus, rep.C_minus) == (0.0, 1.5, 1.5)


class TestTorusKnots:
    """The torus knot group <a, b | a^p = b^q> as a presentation.

    a and b abelianize to z^q and z^p. The Fox derivative of a^p b^-q by a
    is sum_{k<p} z^{qk}, and deleting b leaves the divisor max(1, t^p): the
    pair (p, 0). Its roots lie on the circle, so V(t) = max(1, t)^(q(p-1))
    and tau(t) = max(1, t)^(pq-p-q), the zero-volume closed form with the
    Thurston norm 2g - 1 = pq - p - q.
    """

    @pytest.mark.parametrize("p, q", [(2, 3), (2, 5), (3, 4), (3, 5),
                                      (4, 7)])
    def test_torsion_is_graph_closed_form(self, p, q):
        fox = P(1, {(q * k,): 1 for k in range(p)})
        tau = torsion_from_presentation(TorsionSpec(
            LaurentMatrix([[fox]]), CohomClass([1.0]), [(p, 0)]))
        norm = p * q - p - q
        for t in geometric_grid(1e-3, 1e3, 13):
            assert tau.value(t) == pytest.approx(GraphTorsion(norm).value(t),
                                                 rel=1e-12)
        rep = torsion_degree(tau)
        assert rep.deg_b == norm
        assert (rep.C_plus, rep.C_minus) == (1.0, 1.0)


class TestTwoBridgeKnots:
    """The 2-bridge knot b(p, q) as the presentation <x, y | w x = y w>.

    The Fox derivative of its relator by x, at x, y -> z, is the Alexander
    polynomial Delta up to a unit +-z^k, and deleting y leaves the divisor
    z - 1: the pair (1, 0). So tau(t) = M(Delta(t z)) / max(1, t), whose
    degree deg Delta - 1 is the Thurston norm 2g - 1 and whose leading
    coefficients are |leading coefficient of Delta|.
    """

    @staticmethod
    def torsion(p, q):
        entry = fox_derivative_1v(two_bridge_relator(p, q), "x")
        return entry, torsion_from_presentation(TorsionSpec(
            LaurentMatrix([[P(1, entry)]]), CohomClass([1.0]), [(1, 0)]))

    @pytest.mark.parametrize("p, q, alexander", [
        (3, 1, [1, -1, 1]),
        (5, 3, [-1, 3, -1]),
        (5, 1, [1, -1, 1, -1, 1]),
        (7, 3, [2, -3, 2]),
    ])
    def test_fox_entry_gives_norm_and_leading_coefficient(self, p, q,
                                                         alexander):
        entry, tau = self.torsion(p, q)
        low = min(entry)[0]
        coeffs = [entry.get((low + k,), 0) for k in range(len(alexander))]
        assert len(entry) == sum(1 for c in alexander if c)
        assert coeffs in (alexander, [-c for c in alexander])
        rep = torsion_degree(tau)
        assert rep.deg_b == len(alexander) - 2
        assert (rep.C_plus, rep.C_minus) == pytest.approx(
            (abs(alexander[-1]), abs(alexander[0])), rel=1e-15)
        # Jensen's formula on 30-digit roots: M(Delta(t z)) is
        # |a_top| t^low prod max(t, |b|)
        with mpmath.workdps(30):
            roots = mpmath.polyroots(alexander[::-1], maxsteps=200,
                                     extraprec=100)
            for t in geometric_grid(1e-3, 1e3, 13):
                tm = mpmath.mpf(t)
                exact = abs(alexander[-1]) * tm ** low / max(1, tm)
                for b in roots:
                    exact *= max(tm, abs(b))
                assert tau.value(t) == pytest.approx(float(exact), rel=1e-12)

    def test_trefoil_is_the_torus_knot(self):
        # b(3, 1) and T(2, 3) are the trefoil
        _, tau = self.torsion(3, 1)
        torus = torsion_from_presentation(TorsionSpec(
            LaurentMatrix([[P(1, {(0,): 1, (3,): 1})]]), CohomClass([1.0]),
            [(2, 0)]))
        for t in geometric_grid(1e-3, 1e3, 13):
            assert tau.value(t) == pytest.approx(torus.value(t), rel=1e-12)
        assert torsion_degree(tau) == torsion_degree(torus)


class TestGlue:
    def test_single_piece(self):
        f = GraphTorsion(2.0)
        g = ProductTorsion([f])
        for t in (0.5, 2.0):
            assert g.value(t) == f.value(t)

    def test_three_fibered_degrees_add(self):
        phi = (1.0, 1.0, -2.0)
        tau = triple_figure_eight_torsion(phi)
        assert torsion_degree(tau).deg_b == pytest.approx(4.0)

    def test_unspecified_dominates(self):
        tau = ProductTorsion([FiberedTorsion(1.0, 1.0), GraphTorsion(1.0)])
        assert tau.value(1.5) is UNSPECIFIED
        assert tau.value(math.exp(1.1)) == pytest.approx(
            math.exp(1.1) * math.exp(1.1))

    def test_zero_class_piece_contributes_constant(self):
        tau = triple_figure_eight_torsion((1.0, -1.0, 0.0))
        rep = torsion_degree(tau)
        assert rep.deg_b == pytest.approx(2.0)
        assert rep.C_plus == pytest.approx(math.exp(V3 / (3 * math.pi)))


class TestTripleFigureEight:
    def test_origin(self):
        row = triple_figure_eight((0.0, 0.0, 0.0))
        assert row["norm"] == 0.0 and row["delta"] == 3
        assert row["leading"] == pytest.approx(math.exp(V3 / math.pi))
        assert row["leading"] == pytest.approx(row["vol_check"])

    def test_single_zero_coordinate(self):
        row = triple_figure_eight((1.0, -1.0, 0.0))
        assert row["norm"] == 2.0 and row["delta"] == 1
        assert row["leading"] == pytest.approx(math.exp(V3 / (3 * math.pi)))

    def test_generic(self):
        row = triple_figure_eight((1.0, 1.0, -2.0))
        assert row["norm"] == 4.0 and row["delta"] == 0
        assert row["leading"] == 1.0

    def test_constraint_enforced(self):
        with pytest.raises(ValueError):
            triple_figure_eight((1.0, 1.0, 1.0))

    def test_near_zero_snaps_with_warning(self):
        with pytest.warns(UserWarning):
            row = triple_figure_eight((1e-13, -1e-13, 0.0))
        assert row["delta"] == 3

    def test_degree_equals_norm_randomly(self):
        rng = random.Random(31337)
        for _ in range(20):
            a = rng.uniform(-2, 2)
            b = rng.uniform(-2, 2)
            phi = (a, b, -a - b)
            row = triple_figure_eight(phi)
            rep = torsion_degree(triple_figure_eight_torsion(phi))
            assert rep.deg_b == pytest.approx(row["norm"], abs=1e-9)

    def test_leading_bounds_and_symmetry(self):
        rng = random.Random(4242)
        upper = math.exp(6 * V3 / (6 * math.pi))
        for _ in range(20):
            a = rng.uniform(-2, 2)
            b = rng.uniform(-2, 2)
            phi = (a, b, -a - b)
            rep = torsion_degree(triple_figure_eight_torsion(phi))
            assert 1.0 - 1e-12 <= rep.C_plus <= upper + 1e-12
            assert rep.C_plus == pytest.approx(rep.C_minus, rel=1e-12)
        assert triple_figure_eight((0.0, 0.0, 0.0))["leading"] == \
            pytest.approx(upper)

    def test_upper_semicontinuity_witness(self):
        limit = None
        for n in (10, 100, 1000):
            row = triple_figure_eight((1.0 / n, -1.0 / n, 0.0))
            assert row["leading"] == pytest.approx(
                math.exp(V3 / (3 * math.pi)))
            limit = row["leading"]
        assert limit <= triple_figure_eight((0.0, 0.0, 0.0))["leading"]


class TestHexagon:
    def test_vertex_on_boundary(self):
        assert hexagon_norm_check((0.5, -0.5, 0.0))
        assert triple_figure_eight((0.5, -0.5, 0.0))["norm"] == 1.0

    def test_origin_interior(self):
        assert hexagon_norm_check((0.0, 0.0, 0.0))

    def test_outside_point(self):
        phi = (1 / 3, 1 / 3, -2 / 3)
        assert triple_figure_eight(phi)["norm"] > 1.0
        assert hexagon_norm_check(phi)

    def test_random_agreement(self):
        rng = random.Random(99)
        for _ in range(50):
            a = rng.uniform(-1.2, 1.2)
            b = rng.uniform(-1.2, 1.2)
            assert hexagon_norm_check((a, b, -a - b))


class TestSymmetry:
    def test_quadratic_presentation(self):
        tau = torsion_from_presentation(quadratic_spec(1.0))
        tau_neg = torsion_from_presentation(quadratic_spec(-1.0))
        rep = symmetry_check(tau, tau_neg, geometric_grid(1e-2, 1e2, 21))
        assert rep.passed
        assert rep.max_residual < 1e-9
        assert rep.slope == pytest.approx(2.0, abs=1e-9)

    def test_zero_class(self):
        tau = torsion_from_presentation(quadratic_spec(0.0))
        rep = symmetry_check(tau, tau, geometric_grid(1e-2, 1e2, 11))
        assert rep.slope == pytest.approx(0.0, abs=1e-12)
        assert rep.max_residual == pytest.approx(0.0, abs=1e-12)

    def test_scaling_variant_exact(self):
        tau_scaled = torsion_from_presentation(quadratic_spec(2.0))
        tau = torsion_from_presentation(quadratic_spec(1.0))
        grid = geometric_grid(1e-2, 1e2, 11)
        for t in grid:
            assert tau_scaled.value(t) == tau.value(t * t)

    def test_zero_function_rejected(self):
        z = P(1, {(1,): 1})
        a = LaurentMatrix([[z, z], [z, z]])
        tau = torsion_from_presentation(TorsionSpec(a, CohomClass([1.0])))
        with pytest.raises(ZeroPolynomialError):
            symmetry_check(tau, tau, geometric_grid(0.1, 10, 5))


class TestPaddedConvexity:
    def test_presentation_with_pairs(self, rng):
        from conftest import random_int_matrix
        a = random_int_matrix(rng, 2, 1)
        pairs = [(1.0, 0.0), (0.0, 2.0)]
        c = CohomClass([1.0])
        tau = torsion_from_presentation(TorsionSpec(a, c, pairs))
        m = exponent_bound(a, c) + sum(abs(x - y) for x, y in pairs)
        grid = geometric_grid(1e-3, 1e3, 25)
        logs = [math.log(tau.value(t) * max(1.0, t) ** m) for t in grid]
        for i in range(len(grid) - 2):
            assert logs[i + 1] <= 0.5 * (logs[i] + logs[i + 2]) + 1e-9
