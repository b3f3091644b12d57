import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2alex import (CohomClass, DetFunction, LaurentMatrix, LaurentPoly,
                    exponent_bound, twist)
from l2alex.cli import parse_input

from conftest import random_int_matrix, random_int_poly
from oracles import involution


def P(nvars, terms):
    return LaurentPoly(nvars, terms)


def int_polys(nvars):
    exps = st.tuples(*([st.integers(-3, 3)] * nvars))
    return st.dictionaries(exps, st.integers(-4, 4),
                           min_size=1, max_size=4).map(lambda d: P(nvars, d))


class TestCohomClass:
    def test_rational_reconstruction(self):
        c = CohomClass([0.5, 1 / 3])
        assert c.has_decomposition
        assert c.r == (1 / 6,)
        assert c.phi == ((3, 2),)

    def test_irrational_has_no_decomposition(self):
        c = CohomClass([math.sqrt(2)])
        assert not c.has_decomposition

    def test_zero_class(self):
        c = CohomClass([0.0, 0.0])
        assert c.has_decomposition and c.phi == ((0, 0),)

    def test_explicit_decomposition_validated(self):
        CohomClass([1.0 + math.sqrt(2)], r=[1.0, math.sqrt(2)],
                   phi=[[1], [1]])
        with pytest.raises(ValueError):
            CohomClass([1.0], r=[1.0, math.sqrt(2)], phi=[[1], [1]])
        # a zero column reproduces only sigma_j = 0
        with pytest.raises(ValueError):
            CohomClass([1e-20], r=[1.0], phi=[[0]])

    @pytest.mark.parametrize("sigma, r, phi", [
        ([math.inf], None, None),
        ([1.0], [math.inf], [[0]]),    # inf * 0 is nan, which must mismatch
        ([1.0], [math.nan], [[1]])],
        ids=["sigma-inf", "r-inf", "r-nan"])
    def test_non_finite_refused(self, sigma, r, phi):
        with pytest.raises(ValueError, match="must be finite"):
            CohomClass(sigma, r, phi)

    @pytest.mark.parametrize("r, phi, match", [
        ([1.0], None, "together"),
        ([1.0], [[2], [2]], "one row per r entry"),
        ([1.0], [[2, 0]], "length"),
        ([1.0], [[2.5]], "integers")],
        ids=["r-without-phi", "phi-row-count", "phi-row-length", "phi-2.5"])
    def test_malformed_decomposition_refused(self, r, phi, match):
        # phi 2.5 used to be truncated to 2, which reproduces sigma = 2
        with pytest.raises(ValueError, match=match):
            CohomClass([2.0], r=r, phi=phi)

    def test_integral_phi_read_as_integers(self):
        assert CohomClass([2.0], r=[1.0], phi=[[2.0]]).phi == ((2,),)

    def test_r_must_be_positive(self):
        with pytest.raises(ValueError):
            CohomClass([1.0], r=[-1.0], phi=[[-1]])

    def test_scaled_flips_phi_for_negative(self):
        c = CohomClass([1.0]).scaled(-2.0)
        assert c.sigma == (-2.0,)
        assert all(x > 0 for x in c.r)

    def test_serialization_round_trip(self):
        # a parsed class keeps every bit of floats that need 17 digits
        c = parse_input(
            '{"variables": ["x", "y"], "matrix": [],'
            ' "class": {"sigma": [0.1, 1.4142135623730951],'
            ' "r": [0.1, 1.4142135623730951], "phi": [[1, 0], [0, 1]]}}').cohom
        assert c == CohomClass([0.1, math.sqrt(2)], r=[0.1, math.sqrt(2)],
                               phi=[[1, 0], [0, 1]])


class TestTwistPoly:
    def test_monomial_scaling(self):
        q, log_scale = twist(P(1, {(2,): 1}), CohomClass([1.0]), 10.0)
        assert q.terms == {(2,): 1.0}
        assert log_scale == 2.0 * math.log(10.0)

    def test_t_one_is_identity(self):
        # up to the normalization: q = p / 3, log_scale = log 3
        p = P(2, {(1, -2): 3, (0, 0): -1})
        q, log_scale = twist(p, CohomClass([0.5, 2.0]), 1.0)
        assert log_scale == math.log(3.0)
        assert q.terms[(1, -2)] == 1.0
        assert q.terms[(0, 0)] == pytest.approx(-1.0 / 3.0, rel=1e-15)

    def test_nonpositive_t_rejected(self):
        with pytest.raises(ValueError):
            twist(P(1, {(1,): 1}), CohomClass([1.0]), 0.0)

    def test_extreme_t_stays_finite(self):
        # t^3 leaves the double range at both t; the log scale does not
        p = P(1, {(0,): 1, (1,): -3, (2,): 1})
        for t in (1e-120, 1e120):
            q, log_scale = twist(p, CohomClass([3.0]), t)
            assert log_scale == pytest.approx(max(0.0, 6 * math.log(t)),
                                              rel=1e-15)
            assert max(abs(c) for c in q.terms.values()) == 1.0

    @given(int_polys(1), st.sampled_from([0.3, 0.7, 2.0, 5.0]),
           st.sampled_from([0.5, 2.0, 3.0]))
    @settings(max_examples=40)
    def test_composition_is_product(self, p, t, s):
        # twisting at t then at s equals twisting at s * t
        c = CohomClass([1.0])
        q_t, ls_t = twist(p, c, t)
        twice, ls_s = twist(q_t, c, s)
        once, ls_st = twist(p, c, s * t)
        assert set(twice.terms) == set(once.terms)
        for e, v in once.terms.items():
            assert twice.terms[e] == pytest.approx(v, rel=1e-12)
        assert ls_t + ls_s == pytest.approx(ls_st, rel=1e-12, abs=1e-12)

    def test_scaling_identity_bitwise(self):
        p = P(1, {(2,): 1, (1,): -3, (0,): 1})
        sigma = CohomClass([1.0])
        for c in (2.0, -1.0, 1.0 / 3.0):
            for t in (0.37, 0.5, 2.0, 5.0):
                qa, la = twist(p, sigma.scaled(c), t)
                qb, lb = twist(p, sigma, t ** c)
                assert qa.terms == qb.terms
                assert la == lb

    def test_anti_commutation(self, rng):
        # twist then involution == involution then twist at 1/t, up to the
        # rounding of the log-space factors; with 0/1 weights too, where
        # the power factors themselves agree bit for bit
        for weights in ((1.0, 2.0), (1.0, 1.0)):
            c = CohomClass(weights)
            for t in (0.3, 1.0, 7.0):
                for _ in range(5):
                    p = random_int_poly(rng, 2)
                    q, lhs_scale = twist(p, c, t)
                    lhs = involution(q)
                    rhs, rhs_scale = twist(involution(p), c, 1.0 / t)
                    assert set(lhs.terms) == set(rhs.terms)
                    for e, v in lhs.terms.items():
                        assert rhs.terms[e] == pytest.approx(v, rel=1e-13)
                    assert rhs_scale == pytest.approx(lhs_scale, rel=1e-13,
                                                      abs=1e-15)


class TestExponentBound:
    def test_one_minus_z(self):
        a = LaurentMatrix([[P(1, {(0,): 1, (1,): -1})]])
        assert exponent_bound(a, CohomClass([1.0])) == 1.0

    def test_constant_matrix(self):
        a = LaurentMatrix([[P(1, {(0,): 2}), P(1, {(0,): 0})],
                           [P(1, {(0,): 1}), P(1, {(0,): 5})]])
        assert exponent_bound(a, CohomClass([3.0])) == 0.0

    def test_scaling_homogeneity(self, rng):
        a = random_int_matrix(rng, 2, 2, nonsingular=False)
        c = CohomClass([1.0, 0.5])
        assert exponent_bound(a, c.scaled(-2.0)) == \
            pytest.approx(2.0 * exponent_bound(a, c), rel=1e-12)

    def test_zero_matrix_rejected(self):
        a = LaurentMatrix([[LaurentPoly.zero(1)]])
        assert exponent_bound(a, CohomClass([1.0])) is None

    @pytest.mark.parametrize("n", [10 ** 19, 10 ** 400], ids=["1e19", "1e400"])
    def test_spread_survives_huge_exponents(self, n):
        # weights n, n + 1 and n + 1: as floats, 1e19 + 1 rounds to 1e19,
        # and beyond the double range both are inf
        a = LaurentMatrix([[P(2, {(0, n): 1, (1, n): 1, (0, n + 1): 3})]])
        assert exponent_bound(a, CohomClass([1.0, 1.0])) == 1.0
        assert exponent_bound(a, CohomClass([1.0, -2.0])) == 3.0

    def test_subadditive_under_products(self, rng):
        c = CohomClass([1.0, -0.5])
        for _ in range(10):
            a = random_int_matrix(rng, 2, 2, nonsingular=False)
            b = random_int_matrix(rng, 2, 2, nonsingular=False)
            prod = a * b
            if not prod.support_union():
                continue
            assert exponent_bound(prod, c) <= \
                exponent_bound(a, c) + exponent_bound(b, c) + 1e-12


class TestIndexRescale:
    def _quartic(self, index=1):
        one_minus_z = P(1, {(0,): 1, (1,): -1})
        p = one_minus_z
        for _ in range(3):
            p = p * one_minus_z
        return DetFunction(p, CohomClass([1.0]), index_divisor=index)

    def test_index_one_identity(self):
        v = self._quartic()
        assert self._quartic(1).eval(3.0) == v.eval(3.0)

    def test_exponent_halving(self):
        v2 = self._quartic(2)
        assert v2.eval(3.0) == pytest.approx(9.0, rel=1e-12)
        assert v2.eval(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_degree_rescaled(self):
        assert self._quartic(2).asymptote().deg_b == \
            pytest.approx(2.0, abs=1e-12)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            self._quartic(0)
