import random

import pytest

from l2alex import CohomClass, LaurentMatrix, LaurentPoly

RATIONAL_SIGMAS = [0.5, 1.0, 1.5, 2.0, 1 / 3, 2 / 3, -0.5, -1.0, 5 / 3]


def random_int_poly(rng, nvars, max_terms=4, max_exp=2, max_coef=3,
                    nonzero=False):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            exp = tuple(rng.randint(-max_exp, max_exp) for _ in range(nvars))
            c = 0
            while c == 0:
                c = rng.randint(-max_coef, max_coef)
            terms[exp] = terms.get(exp, 0) + c
        p = LaurentPoly(nvars, terms)
        if not (nonzero and p.is_zero):
            return p


def random_int_matrix(rng, size, nvars, nonsingular=True, **kw):
    while True:
        rows = [[random_int_poly(rng, nvars, **kw) for _ in range(size)]
                for _ in range(size)]
        a = LaurentMatrix(rows)
        if not nonsingular or not a.determinant().is_zero:
            return a


def random_complex_terms(seed, size=5):
    """size x size one-variable entries of three complex terms each, as
    {exponent tuple: coefficient} maps."""
    rng = random.Random(seed)
    return [[{(rng.randint(-2, 2),): complex(rng.uniform(-1, 1),
                                             rng.uniform(-1, 1))
              for _ in range(3)} for _ in range(size)] for _ in range(size)]


def random_rational_class(rng, nvars):
    return CohomClass([rng.choice(RATIONAL_SIGMAS) for _ in range(nvars)])


@pytest.fixture
def rng():
    return random.Random(0xA1EF)
