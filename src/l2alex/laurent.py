"""Sparse multivariate Laurent polynomials and square matrices over them.

Polynomials live in C[z_1^{±1}, ..., z_l^{±1}]: a finite map from integer
exponent vectors to complex coefficients. Coefficients are double-precision
complex with an "integer-certified" fast path. Certification is derived from
the coefficients alone: a polynomial is certified exactly when every
coefficient is a real integer with |c| <= 2^53. Ring operations on such
polynomials are exact, and downstream code may rely on integrality (Mahler
measures of nonzero integer Laurent polynomials are >= 1).

Conventions:
  * exponent vectors are tuples of ints, and construction refuses a
    component such as 2.9 (2.0 is 2); componentwise addition is the group
    law, and the canonical term order is lexicographic on exponent tuples;
  * no stored coefficient is zero: construction prunes exact zeros on the
    integer path and coefficients below 1e-15 x (max |coefficient|) on the
    float path (numerical determinants shed dust terms); the command
    line's reader refuses input that would lose a coefficient this way;
  * every coefficient is finite: construction raises IllConditionedError
    for inf or nan, such as a product or scalar multiple that left the
    double range.

Determinants of integer-certified matrices are exact (Kronecker
substitution; von zur Gathen & Gerhard, Modern Computer Algebra):
after shifting each row by its minimum exponent vector, the determinant's
exponent in z_j lies in [0, w_j) with w_j = 1 + sum over rows of the row's
spread in z_j, so z_j -> x^(s_j) with s_1 = 1, s_{j+1} = s_j w_j sends its
monomials to distinct powers of x. At x = 2^b with 2^(b-1) > H, where
H = prod_i sum_k ||A_ik||_1 bounds every coefficient of the determinant,
the matrix becomes one of Python ints; a fraction-free (Bareiss 1968)
elimination with exact integer division gives the determinant at 2^b, and
its balanced base-2^b digits are the coefficients (b is a whole number of
bytes, so one ``to_bytes`` reads them all). Coefficients beyond 2^53 are
stored as the nearest doubles and lose certification. The packed integers
hold prod_j w_j digits however few terms the entries have, so a matrix
whose box prod_j w_j exceeds 64 times the product of its rows' term counts
(a bound on the determinant's term count), such as one entry z^100000,
keeps the general path: Berkowitz's division-free algorithm in complex
doubles (see _det_berkowitz), which every other matrix takes too. It is
exact on integer matrices while its products stay below 2^53.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Iterable, Mapping

from .errors import IllConditionedError, VariableCountMismatch

_FLOAT_PRUNE_REL = 1e-15
_INT_EXACT_LIMIT = 2.0 ** 53
# integer matrices whose packed exponent box exceeds this many times the
# product of the rows' term counts are not packed (see _det_kronecker)
_SPARSE_BOX_RATIO = 64


def _is_exact_int(c: complex) -> bool:
    return (
        c.imag == 0.0
        and abs(c.real) <= _INT_EXACT_LIMIT
        and c.real == math.floor(c.real)
    )


def _dot(nvars: int, xs, ys) -> "LaurentPoly":
    """sum_i xs[i] * ys[i], pruned once at the end."""
    out: dict[tuple, complex] = {}
    for x, y in zip(xs, ys):
        for e1, c1 in x.terms.items():
            for e2, c2 in y.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0j) + c1 * c2
    return LaurentPoly(nvars, out)


class LaurentPoly:
    """Immutable sparse Laurent polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "terms", "integer_certified")

    def __init__(self, nvars: int, terms: Mapping[tuple, complex]):
        if nvars < 0:
            raise ValueError("variable count must be >= 0")
        clean: dict[tuple, complex] = {}
        for raw, c in terms.items():
            exp = tuple(map(int, raw))
            if exp != raw:
                raise ValueError(f"exponent {raw} is not a vector of integers")
            if len(exp) != nvars:
                raise VariableCountMismatch(
                    f"exponent vector {exp} has length {len(exp)}, expected {nvars}")
            try:
                c = complex(c)
            except OverflowError:   # an int beyond the double range,
                c = complex(math.inf)   # refused below as any inf is
            if c != 0:
                clean[exp] = clean.get(exp, 0j) + c

        derived = all(_is_exact_int(c) for c in clean.values())
        if derived:
            clean = {e: c for e, c in clean.items() if c != 0}
        else:
            try:
                scale = max(map(abs, clean.values()), default=0.0)
            except OverflowError:   # finite parts, a modulus beyond them
                scale = math.inf
            if not (scale < math.inf
                    and all(map(cmath.isfinite, clean.values()))):
                raise IllConditionedError(
                    "a coefficient left the double range; the input is too "
                    "ill-conditioned for double precision")
            clean = {e: c for e, c in clean.items()
                     if abs(c) >= _FLOAT_PRUNE_REL * scale and c != 0}
            derived = all(_is_exact_int(c) for c in clean.values())

        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "integer_certified", derived)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: 1})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self) -> list[tuple]:
        return sorted(self.terms)

    def spread(self, j: int) -> int:
        """Exponent spread max - min of variable j over the support (0 if empty)."""
        if not self.terms:
            return 0
        es = [e[j] for e in self.terms]
        return max(es) - min(es)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly)
                and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero:
            return f"LaurentPoly({self.nvars}, 0)"
        bits = []
        for exp in self.support():
            c = self.terms[exp]
            mono = "*".join(f"z{j + 1}^{e}" for j, e in enumerate(exp) if e != 0)
            bits.append(f"({c:g}){'*' + mono if mono else ''}")
        return f"LaurentPoly({self.nvars}, {' + '.join(bits)})"

    # -- ring operations ---------------------------------------------------

    def _check_same_vars(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise VariableCountMismatch(
                f"variable counts differ: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_same_vars(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0j) + c
        return LaurentPoly(self.nvars, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return LaurentPoly(self.nvars,
                               {e: c * other for e, c in self.terms.items()})
        self._check_same_vars(other)
        return _dot(self.nvars, [self], [other])

    __rmul__ = __mul__


class LaurentMatrix:
    """Square matrix of Laurent polynomials sharing one variable count."""

    __slots__ = ("size", "nvars", "rows")

    def __init__(self, rows: Iterable[Iterable[LaurentPoly]], nvars: int | None = None):
        rows = tuple(tuple(r) for r in rows)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise ValueError("matrix must be square")
        if size == 0:
            if nvars is None:
                raise ValueError("0x0 matrix needs an explicit variable count")
        else:
            counts = {p.nvars for r in rows for p in r}
            if len(counts) != 1:
                raise VariableCountMismatch(
                    f"entries disagree on variable count: {sorted(counts)}")
            inferred = counts.pop()
            if nvars is not None and nvars != inferred:
                raise VariableCountMismatch(
                    f"declared {nvars} variables, entries have {inferred}")
            nvars = inferred
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentMatrix is immutable")

    @property
    def integer_certified(self) -> bool:
        return all(p.integer_certified for r in self.rows for p in r)

    def __eq__(self, other):
        return (isinstance(other, LaurentMatrix)
                and self.nvars == other.nvars and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nvars, self.rows))

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.size != other.size or self.nvars != other.nvars:
            raise VariableCountMismatch("matrix shapes/variables incompatible")
        return LaurentMatrix(
            [[_dot(self.nvars, row, col)
              for col in zip(*other.rows)] for row in self.rows],
            nvars=self.nvars)

    def support_union(self) -> set[tuple]:
        out: set[tuple] = set()
        for r in self.rows:
            for p in r:
                out.update(p.terms)
        return out

    def determinant(self) -> LaurentPoly:
        """Symbolic determinant over the Laurent polynomial ring.

        Two paths (the module docstring gives the details). An
        integer-certified matrix is packed into one matrix of Python ints
        by Kronecker substitution, whose fraction-free (Bareiss) elimination
        gives the exact coefficients; any beyond 2^53 come back uncertified,
        as floats. Integer matrices whose exponent box is more than 64 times
        the product of the rows' term counts are not packed.

        Those and all other matrices take Berkowitz's division-free
        algorithm (S. J. Berkowitz, Inf. Process. Lett. 18, 1984) in
        complex doubles: O(n^4) ring products, no division, no pivoting,
        on rows scaled by powers of two (IllConditionedError if a
        coefficient leaves the double range at either end). A 0x0 matrix
        has determinant 1; a 1x1 matrix, its entry.
        """
        if self.size == 0:
            return LaurentPoly.one(self.nvars)
        if self.size == 1:
            return self.rows[0][0]
        if self.integer_certified:
            det = _det_kronecker(self.rows, self.nvars)
            if det is not None:
                return det
        return _det_berkowitz(self.rows, self.nvars)


def divide_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Quotient a/b assuming the division is exact in C[z^{±1}].

    Leading-term elimination under the lexicographic order; since lex is a
    group order on Z^l, leading terms are multiplicative and the quotient's
    terms are produced one by one.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return LaurentPoly.zero(a.nvars)
    a._check_same_vars(b)
    lead_b = max(b.terms)
    cb = b.terms[lead_b]
    certified = a.integer_certified and b.integer_certified
    rem = dict(a.terms)
    scale = max(abs(c) for c in rem.values())
    quot: dict[tuple, complex] = {}
    budget = 16 * (len(a.terms) + len(b.terms) + 4) ** 2
    for _ in range(budget):
        if not rem:
            return LaurentPoly(a.nvars, quot)
        lead_r = max(rem)
        qe = tuple(x - y for x, y in zip(lead_r, lead_b))
        qc = rem[lead_r] / cb
        quot[qe] = quot.get(qe, 0j) + qc
        for eb, vb in b.terms.items():
            e = tuple(x + y for x, y in zip(qe, eb))
            c = rem.get(e, 0j) - qc * vb
            if c == 0 or (not certified and abs(c) < 1e-13 * scale):
                rem.pop(e, None)
            else:
                rem[e] = c
    raise ArithmeticError("division did not terminate: not an exact quotient")


def _bareiss(m):
    """Fraction-free (Bareiss 1968) determinant of the Python ints ``m``.

    Works in place; each division by the previous pivot is exact, and a
    zero pivot swaps in a later row with a nonzero entry in its column.
    """
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - lead * pivot_row[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def _det_berkowitz(rows, nvars: int) -> LaurentPoly:
    """Division-free determinant (Berkowitz 1984) in complex doubles.

    The characteristic polynomial x^k + c_1 x^(k-1) + ... + c_k of each
    leading principal submatrix A_k follows from that of A_(k-1) by one
    Toeplitz product, whose first column is 1, -a_kk, -R S, -R A_(k-1) S,
    ..., -R A_(k-1)^(k-2) S for the row R and column S that border A_(k-1);
    det A = (-1)^n c_n. Unless the matrix is integer-certified, each row is
    first scaled by a power of two (``_row_shift``), exactly, so that the
    products stay within the double range, and the determinant is scaled
    back by the inverse power. IllConditionedError if a coefficient leaves
    the double range, also below its normal numbers.
    """
    certified = all(p.integer_certified for row in rows for p in row)
    shifts = [0 if certified else _row_shift(row) for row in rows]
    rows = [[_scaled(p, s) for p in row] for row, s in zip(rows, shifts)]
    one = LaurentPoly.one(nvars)
    charpoly = [one, -rows[0][0]]
    for k in range(1, len(rows)):
        block = [r[:k] for r in rows[:k]]
        cols = [[r[k] for r in rows[:k]]]
        for _ in range(k - 1):
            cols.append([_dot(nvars, r, cols[-1]) for r in block])
        neg_row = [-p for p in rows[k][:k]]
        toeplitz = [one, -rows[k][k]] + [_dot(nvars, neg_row, c)
                                         for c in cols]
        charpoly = [_dot(nvars, toeplitz[i::-1], charpoly)
                    for i in range(k + 2)]
    det, back = (-1) ** len(rows) * charpoly[-1], -sum(shifts)
    if not all(sys.float_info.min_exp <= math.frexp(abs(c))[1] + back
               <= sys.float_info.max_exp for c in det.terms.values()):
        raise IllConditionedError(
            "a coefficient left the double range; the input is too "
            "ill-conditioned for double precision")
    return _scaled(det, back)


def _row_shift(row) -> int:
    """n such that 2^n brings the row's largest coefficient part into
    [1/2, 1), raised as far as needed for its smallest nonzero part to stay
    a normal double, and lowered if the largest would then overflow."""
    exps = [math.frexp(x)[1] for p in row for c in p.terms.values()
            for x in (c.real, c.imag) if x]
    if not exps:
        return 0
    lo, hi = min(exps), max(exps)
    return min(max(-hi, sys.float_info.min_exp - lo),
               sys.float_info.max_exp - hi)


def _scaled(p: LaurentPoly, n: int) -> LaurentPoly:
    """p * 2^n, exact while every coefficient part stays a normal double."""
    return LaurentPoly(p.nvars, {
        e: complex(math.ldexp(c.real, n), math.ldexp(c.imag, n))
        for e, c in p.terms.items()})


def _det_kronecker(rows, nvars: int) -> LaurentPoly | None:
    """Exact determinant of an integer-certified matrix (see determinant).

    None when the packed box of exponents is more than _SPARSE_BOX_RATIO
    times the product of the rows' term counts, which bounds the number of
    terms of the determinant: the dense packing would then cost far more
    than Berkowitz's sparse ring products.
    """
    lows, widths, height, nterms = [], [1] * nvars, 1, 1
    for row in rows:
        exps = [e for p in row for e in p.terms]
        if not exps:
            return LaurentPoly.zero(nvars)
        low = [min(e[j] for e in exps) for j in range(nvars)]
        for j in range(nvars):
            widths[j] += max(e[j] for e in exps) - low[j]
        lows.append(low)
        height *= sum(abs(int(c.real)) for p in row for c in p.terms.values())
        nterms *= len(exps)
    box = math.prod(widths)
    if box > _SPARSE_BOX_RATIO * nterms:
        return None
    strides = [1] * nvars
    for j in range(1, nvars):
        strides[j] = strides[j - 1] * widths[j - 1]
    # whole bytes per digit, so the digits are read back by one to_bytes
    nbytes = (height.bit_length() + 8) // 8
    b = 8 * nbytes

    def pack(p, low):
        return sum(int(c.real) << b * sum(s * (x - y) for s, x, y
                                          in zip(strides, e, low))
                   for e, c in p.terms.items())

    value = _bareiss([[pack(p, low) for p in row]
                      for row, low in zip(rows, lows)])
    # every balanced digit d of value has |d| <= height < 2^(b-1) = half,
    # so adding half to each digit leaves box digits in [0, 2^b), nbytes
    # bytes each, and a digit equal to half is a zero coefficient
    half = 1 << (b - 1)
    half_digit = bytes(nbytes - 1) + b"\x80"
    data = (value + int.from_bytes(half_digit * box, "little")).to_bytes(
        nbytes * box, "little")
    # digit k is the coefficient of x^k, unpacked by the strides
    offsets = [sum(low[j] for low in lows) for j in range(nvars)]
    terms = {}
    for k in range(box):
        digit = data[k * nbytes:(k + 1) * nbytes]
        if digit != half_digit:
            terms[tuple(k // s % w + o for s, w, o
                        in zip(strides, widths, offsets))] = \
                int.from_bytes(digit, "little") - half
    return LaurentPoly(nvars, terms)
