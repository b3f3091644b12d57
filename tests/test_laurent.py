
import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2alex import (IllConditionedError, InputError, LaurentMatrix,
                    LaurentPoly, VariableCountMismatch)
from l2alex import laurent
from l2alex.cli import parse_input
from l2alex.laurent import divide_exact

from conftest import (random_complex_terms, random_int_matrix,
                      random_int_poly)
from oracles import adjoint, cofactor_determinant, involution


def P(nvars, terms):
    return LaurentPoly(nvars, terms)


def exponents(nvars):
    return st.tuples(*([st.integers(-3, 3)] * nvars))


def int_polys(nvars):
    return st.dictionaries(exponents(nvars), st.integers(-4, 4),
                           min_size=0, max_size=4).map(lambda d: P(nvars, d))


class TestPolyBasics:
    def test_zero_pruning_integer(self):
        p = P(1, {(0,): 1, (1,): 0})
        assert p.terms == {(0,): 1 + 0j}
        assert p.integer_certified

    def test_float_certification(self):
        assert not P(1, {(0,): 1.5}).integer_certified
        assert not P(1, {(0,): 1 + 1j}).integer_certified
        assert P(1, {(0,): 3.0}).integer_certified

    def test_certification_is_derived_from_coefficients(self):
        assert (P(1, {(0,): 0.5}) * P(1, {(0,): 2})).integer_certified
        with pytest.raises(TypeError):
            P(1, {(0,): 1}, False)

    def test_float_dust_pruned(self):
        p = P(1, {(0,): 1.0, (1,): 1e-17})
        assert list(p.terms) == [(0,)]

    def test_variable_count_mismatch(self):
        with pytest.raises(VariableCountMismatch):
            P(1, {(0,): 1}) * P(2, {(0, 0): 1})

    @pytest.mark.parametrize("make", [
        lambda: P(1, {(0,): math.nan, (1,): 1.5}),
        lambda: P(1, {(0,): 1.5, (1,): math.nan}),
        lambda: P(1, {(0,): 1e300, (1,): 1.5}) * 1e10,
        lambda: P(1, {(0,): 10 ** 400}),
        lambda: P(1, {(0,): 1.5e308 + 1.5e308j, (1,): 1.5}),
    ], ids=["nan-first", "nan-last", "scalar-overflow", "int-10^400",
            "modulus-overflow"])
    def test_non_finite_coefficient_refused(self, make):
        with pytest.raises(IllConditionedError):
            make()

    @pytest.mark.parametrize("terms, named", [
        ({(2.9,): 1, (0,): -1}, "(2.9,)"),
        ({(1.5,): 2, (1,): 3}, "(1.5,)"),
    ], ids=["z^2.9-1", "2z^1.5+3z"])
    def test_non_integer_exponent_refused(self, terms, named):
        # int() would truncate them to z^2 - 1 and 5z
        with pytest.raises(ValueError) as info:
            P(1, terms)
        assert named in str(info.value)

    def test_integral_float_exponent_accepted(self):
        assert P(1, {(2.0,): 1, (0,): -1}) == P(1, {(2,): 1, (0,): -1})


class TestPolyMul:
    def test_difference_of_squares(self):
        z = P(1, {(1,): 1})
        one = LaurentPoly.one(1)
        assert (z - one) * (z + one) == P(1, {(2,): 1, (0,): -1})

    def test_identity(self):
        p = P(1, {(2,): 3, (-1,): 4})
        assert LaurentPoly.one(1) * p == p

    def test_two_variable_identity(self):
        z1 = P(2, {(1, 0): 1})
        z2 = P(2, {(0, 1): 1})
        assert (z1 + z2) * (z1 - z2) == P(2, {(2, 0): 1, (0, 2): -1})

    @given(int_polys(2), int_polys(2))
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(int_polys(1), int_polys(1), int_polys(1))
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(int_polys(2), int_polys(2))
    def test_certification_propagates(self, a, b):
        assert (a * b).integer_certified


# The involution and the adjoint are the oracles' (the library has no use
# for them); these classes check the reference that the twist, degree and
# determinant identities are tested against.
class TestInvolution:
    def test_real_monomial(self):
        assert involution(P(1, {(1,): 2})) == P(1, {(-1,): 2})

    def test_complex_monomial(self):
        got = involution(P(2, {(1, -1): 1j}))
        assert got == P(2, {(-1, 1): -1j})

    def test_involutive(self):
        p = P(1, {(2,): 1, (1,): -3, (0,): 1})
        assert involution(involution(p)) == p

    @given(int_polys(2))
    def test_involutive_random(self, p):
        assert involution(involution(p)) == p

    @given(int_polys(1), int_polys(1))
    def test_antihomomorphism(self, a, b):
        assert involution(a * b) == involution(a) * involution(b)


class TestAdjoint:
    def test_1x1(self):
        a = LaurentMatrix([[P(1, {(1,): 1})]])
        assert adjoint(a) == LaurentMatrix([[P(1, {(-1,): 1})]])

    def test_2x2_transpose(self):
        z = P(1, {(1,): 1})
        zero, one = LaurentPoly.zero(1), LaurentPoly.one(1)
        a = LaurentMatrix([[zero, z], [one, zero]])
        expect = LaurentMatrix([[zero, one], [P(1, {(-1,): 1}), zero]])
        assert adjoint(a) == expect

    def test_involutive_random(self, rng):
        a = random_int_matrix(rng, 3, 1)
        assert adjoint(adjoint(a)) == a


class TestDeterminant:
    def test_two_variable_block(self):
        # [[1, -nu], [1, -z]] -> nu - z
        nu = P(2, {(1, 0): 1})
        z = P(2, {(0, 1): 1})
        one = LaurentPoly.one(2)
        a = LaurentMatrix([[one, -nu], [one, -z]])
        assert a.determinant() == P(2, {(1, 0): 1, (0, 1): -1})

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_identity(self, p):
        rows = [[P(1, {(0,): int(i == j)}) for j in range(p)]
                for i in range(p)]
        assert LaurentMatrix(rows).determinant() == LaurentPoly.one(1)

    def test_0x0_is_one(self):
        assert LaurentMatrix([], nvars=1).determinant() == \
            LaurentPoly.one(1)

    def test_multiplicative(self, rng):
        for _ in range(10):
            a = random_int_matrix(rng, 2, 1, nonsingular=False)
            b = random_int_matrix(rng, 2, 1, nonsingular=False)
            lhs = (a * b).determinant()
            rhs = a.determinant() * b.determinant()
            assert lhs == rhs

    def test_against_cofactor_oracle(self, rng):
        self._check_against_cofactor_oracle(rng, 1)

    def test_float_path_against_cofactor_oracle(self, rng):
        # halved entries stay exact dyadic doubles and take the float path
        self._check_against_cofactor_oracle(rng, 0.5)

    @staticmethod
    def _check_against_cofactor_oracle(rng, scale):
        # max_coef <= 3 keeps the oracle's float products exact
        for nvars, size in itertools.product((1, 2, 3), range(1, 7)):
            a = random_int_matrix(rng, size, nvars, nonsingular=False,
                                  max_terms=2, max_exp=1, max_coef=3)
            a = LaurentMatrix([[p * scale for p in r] for r in a.rows])
            assert a.determinant() == cofactor_determinant(a.rows)
            rows = [list(r) for r in a.rows]
            rows[rng.randrange(size)] = [LaurentPoly.zero(nvars)] * size
            assert LaurentMatrix(rows).determinant().is_zero
            if size > 1:
                i, j = rng.sample(range(size), 2)
                rows = [list(r) for r in a.rows]
                rows[i] = rows[j]
                assert LaurentMatrix(rows).determinant().is_zero

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("scale", [1, 0.5])
    def test_zero_pivots_swap_rows(self, size, scale):
        # anti-diagonal c z, c z^2, ...: pivots are zero until rows swap;
        # c = 0.5 takes Berkowitz, which has no pivots
        zero = LaurentPoly.zero(1)
        a = LaurentMatrix([[P(1, {(i + 1,): scale}) if i + j == size - 1
                            else zero for j in range(size)]
                           for i in range(size)])
        sign = (-1) ** (size * (size - 1) // 2)
        assert a.determinant() == \
            P(1, {(size * (size + 1) // 2,): sign * scale ** size})

    def test_large_intermediates_stay_exact(self):
        # 99 I + z J: the packed elimination's intermediates pass 2^53
        z = P(1, {(1,): 1})
        diag = P(1, {(0,): 99})
        a = LaurentMatrix([[diag + z if i == j else z for j in range(6)]
                           for i in range(6)])
        det = a.determinant()
        assert det == P(1, {(0,): 99 ** 6, (1,): 6 * 99 ** 5})
        assert det.terms[(0,)] == 941480149401
        assert det.integer_certified

    def test_coefficients_beyond_2_53_are_uncertified(self):
        big = P(1, {(0,): 2 ** 27 + 1})
        zero = LaurentPoly.zero(1)
        det = LaurentMatrix([[big, zero], [zero, big]]).determinant()
        assert det.terms == {(0,): complex((2 ** 27 + 1) ** 2)}
        assert not det.integer_certified

    def test_no_determinant_divides(self, rng, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(1)
            return divide_exact(a, b)

        monkeypatch.setattr(laurent, "divide_exact", counted)
        a = random_int_matrix(rng, 5, 1, nonsingular=True)
        det = a.determinant()
        # the same matrix halved is not integer: it takes Berkowitz
        half = LaurentMatrix([[p * 0.5 for p in r] for r in a.rows])
        got = half.determinant()
        assert calls == []
        assert set(got.terms) == set(det.terms)
        for e, c in det.terms.items():
            assert got.terms[e] == pytest.approx(c / 32, rel=1e-12)

    @pytest.mark.parametrize("nvars", [1, 2])
    @pytest.mark.parametrize("size", [3, 4])
    @pytest.mark.parametrize("scale", [1, 0.5])
    def test_product_rule(self, rng, nvars, size, scale):
        # det(AB) = det(A) det(B); halved entries stay dyadic, so the
        # Berkowitz path is exact here as the integer packing is
        for _ in range(3):
            a, b = (LaurentMatrix([[p * scale for p in r] for r in
                                   random_int_matrix(rng, size, nvars,
                                                     nonsingular=False,
                                                     max_terms=3).rows])
                    for _ in range(2))
            assert a.integer_certified == (scale == 1)
            assert (a * b).determinant() == a.determinant() * b.determinant()

    def test_exponent_spread_does_not_inflate_cost(self):
        # a dense packing would hold prod_j w_j ~ 1e9 to 1e11 digits here;
        # Berkowitz answers at once
        x, y = P(3, {(1000, 0, 0): 1}), P(3, {(0, 1000, 0): 1})
        z = P(3, {(0, 0, 1000): 1})
        w = P(3, {(0, 0, 100000): 1})
        one = LaurentPoly.one(3)
        start = time.perf_counter()
        assert LaurentMatrix([[x + y + z]]).determinant() == x + y + z
        det = LaurentMatrix([[x + y, w], [one, one - w]]).determinant()
        assert det == x + y - x * w - y * w - w
        assert det.integer_certified
        assert time.perf_counter() - start < 1.0

    def test_certification_preserved(self, rng):
        a = random_int_matrix(rng, 5, 1, nonsingular=False)
        assert a.determinant().integer_certified

    def test_adjoint_compatibility(self, rng):
        # det(A*) = (det A)*
        for _ in range(5):
            a = random_int_matrix(rng, 3, 2, nonsingular=False)
            assert adjoint(a).determinant() == \
                involution(a.determinant())

    def test_block_triangular(self, rng):
        zero = LaurentPoly.zero(1)
        for _ in range(5):
            b = random_int_matrix(rng, 2, 1, nonsingular=False)
            d = random_int_matrix(rng, 1, 1, nonsingular=False)
            c = random_int_poly(rng, 1)
            rows = [[b.rows[0][0], b.rows[0][1], c],
                    [b.rows[1][0], b.rows[1][1], random_int_poly(rng, 1)],
                    [zero, zero, d.rows[0][0]]]
            got = LaurentMatrix(rows).determinant()
            assert got == b.determinant() * d.determinant()

    def test_singular_large(self):
        # rank-1 5x5 matrix hits the elimination path with zero pivots
        z = P(1, {(1,): 1})
        row = [z, z, z, z, z]
        a = LaurentMatrix([row] * 5)
        assert a.determinant().is_zero

    @pytest.mark.parametrize("rows, det", [
        ([[1.0, 1e-200], [1e-200, 1.0]], {(0,): 1.0}),
        ([[1e300, 1e-30], [-1e30, 1e-300]], {(0,): 2.0}),
        ([[1e-200, 0, 0], [0, {(1,): 1e-200}, 0], [0, 0, 1e300]],
         {(1,): 1e-100})],
        ids=["product-underflows", "rows-far-apart", "leading-block-tiny"])
    def test_float_determinant_across_the_double_range(self, rows, det):
        # each row is scaled by a power of two before Berkowitz's products;
        # 1e-200 * 1e-200 underflows harmlessly beside the 1 of 1 * 1
        a = LaurentMatrix([[P(1, e if isinstance(e, dict) else {(0,): e})
                            for e in row] for row in rows])
        got = a.determinant()
        assert got.terms.keys() == det.keys()
        for e, c in det.items():
            assert got.terms[e] == pytest.approx(c, rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_determinant_beyond_the_double_range_refused(self, scale):
        # diag(s (z + 1), s): s^2 (z + 1) is below or above the doubles; the
        # small one used to come back as the zero polynomial
        a = LaurentMatrix([[P(1, {(0,): scale, (1,): scale}), P(1, {})],
                           [P(1, {}), P(1, {(0,): scale})]])
        with pytest.raises(IllConditionedError):
            a.determinant()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("size", [5, 7])
    def test_complex_matches_numpy(self, seed, size):
        # det(A)(z) against numpy.linalg.det of A(z) at torus points, within
        # 1e-12 of the product of the rows' coefficient 1-norms
        terms = random_complex_terms(seed, size)
        det = LaurentMatrix([[P(1, t) for t in row]
                             for row in terms]).determinant()
        bound = 1e-12 * math.prod(sum(abs(c) for t in row for c in t.values())
                                  for row in terms)
        for theta in np.random.default_rng(seed).uniform(0, 2 * np.pi, 5):
            z = complex(math.cos(theta), math.sin(theta))
            a = [[sum(c * z ** e for (e,), c in t.items()) for t in row]
                 for row in terms]
            got = sum(c * z ** e for (e,), c in det.terms.items())
            assert abs(got - np.linalg.det(np.array(a))) < bound


class TestExactDivision:
    @given(int_polys(2), int_polys(2))
    @settings(max_examples=60)
    def test_mul_then_divide(self, a, b):
        if a.is_zero or b.is_zero:
            return
        assert divide_exact(a * b, b) == a


def parse_matrix(nvars, matrix):
    """The matrix of a document with nvars variables and the raw JSON
    matrix, read by the command line's reader."""
    return parse_input(
        '{"variables": %s, "matrix": %s, "class": {"sigma": %s}}'
        % (json.dumps(["z"] * nvars), matrix, [1] * nvars)).matrix


class TestSerialization:
    # a parsed document keeps every bit of floats that need 17 digits
    def test_round_trip(self):
        p = parse_matrix(
            2, '[[[{"exp": [1, 0], "re": 0.1, "im": 1.4142135623730951},'
               ' {"exp": [-1, 3], "re": -2}]]]').rows[0][0]
        assert p == P(2, {(1, 0): complex(0.1, math.sqrt(2)), (-1, 3): -2})

    @pytest.mark.parametrize("term", [
        '{"exp": [2], "re": %d}' % 10 ** 400,
        '{"exp": [2], "re": 1, "im": -%d}' % 10 ** 400,
    ], ids=["re-10^400", "im-10^400"])
    def test_integer_beyond_double_range_refused(self, term):
        # float() of such a JSON integer raises OverflowError
        with pytest.raises(InputError, match=r"exponent \[2\] is not finite"):
            parse_matrix(1, '[[[{"exp": [0], "re": 1}, %s]]]' % term)

    def test_matrix_round_trip(self):
        a = parse_matrix(
            2, '[[[{"exp": [0, 0], "re": 0.1}], []],'
               ' [[], [{"exp": [1, -1], "re": 1.4142135623730951}]]]')
        assert a == LaurentMatrix([[P(2, {(0, 0): 0.1}), P(2, {})],
                                   [P(2, {}), P(2, {(1, -1): math.sqrt(2)})]])
