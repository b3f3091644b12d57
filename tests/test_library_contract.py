"""The documented contract at the library's public entry points, as one
property test: the twin of ``test_cli_contract``.

Whatever the matrix, class, t, tolerance and index, each entry point
returns or raises an ``L2AlexError`` subclass or a ``ValueError``, and
nothing it returns is nan: no float, no coefficient, and none of the fields
log_measure, achieved_tol, d_plus, d_minus, C_plus and C_minus. Every value
is drawn from a short list weighted to the extremes: exponents beyond
int64 and beyond the double range, infinite and nan exponents (which
``LaurentPoly`` must refuse with ``ValueError``, ending the example),
coefficients near both ends of the double range, classes of huge and tiny
weight, t and tolerances that are zero, negative or not finite, and an
index beyond the double range.
"""

import cmath
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from l2alex import (CohomClass, L2AlexError, LaurentMatrix, LaurentPoly,
                    TorsionSpec, convexity_check, det_function,
                    exponent_bound, mahler_mv_report,
                    torsion_from_presentation, twist)
from l2alex.quadrature import DEFAULT_NODE_BUDGET, NodeBudget

EXPONENTS = st.sampled_from([0, 1, -1, 2, 3, 10 ** 19, -10 ** 19, 2 ** 63,
                             10 ** 400, -10 ** 400, math.inf, -math.inf,
                             math.nan])
COEFFICIENTS = st.sampled_from([1, -1, 3, 2.5, 1e300, 1e-300, 1 + 1j,
                                -0.5j])
SIGMAS = st.sampled_from([0, 1, -2, 1 / 3, math.pi, 1e300, 1e-300])
TS = st.sampled_from([5e-324, 1e-300, 0.5, 1, 2, 1e300, math.inf,
                      -math.inf, math.nan, 0, -1])
TOLS = st.sampled_from([1e-8, 1e-3, 1e-300, 0, math.nan, math.inf])
INDICES = st.sampled_from([1, 2, 3, 10 ** 400])


@st.composite
def cases(draw):
    nvars = draw(st.integers(1, 2))
    size = draw(st.integers(1, 2))
    term = st.tuples(st.tuples(*[EXPONENTS] * nvars), COEFFICIENTS)
    entry = st.lists(term, max_size=3).map(dict)
    rows = draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                         min_size=size, max_size=size))
    sigma = draw(st.lists(SIGMAS, min_size=nvars, max_size=nvars))
    return (nvars, rows, CohomClass(sigma), draw(TS), draw(TOLS),
            draw(INDICES))


def _returns(fn, *args):
    """fn(*args), or None where it raises an error the contract allows."""
    try:
        return fn(*args)
    except (L2AlexError, ValueError):
        return None


def _assert_no_nan(*values):
    for value in values:
        if isinstance(value, LaurentPoly):
            assert not any(map(cmath.isnan, value.terms.values())), value
        elif isinstance(value, float):
            assert not math.isnan(value), values


def _assert_no_nan_fields(report):
    if report is not None:
        _assert_no_nan(*[getattr(report, name, None) for name in (
            "log_measure", "achieved_tol", "d_plus", "d_minus", "C_plus",
            "C_minus")])


@pytest.fixture(scope="module", autouse=True)
def node_cap():
    """Caps every quadrature at 5,000 nodes, as in ``test_cli_contract``."""
    init = NodeBudget.__init__
    with pytest.MonkeyPatch.context() as m:
        m.setattr(NodeBudget, "__init__",
                  lambda self, limit=DEFAULT_NODE_BUDGET:
                  init(self, min(limit, 5_000)))
        yield


@settings(max_examples=600, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_library_contract(case):
    nvars, rows, c, t, tol, index = case
    entries = [[_returns(LaurentPoly, nvars, terms) for terms in row]
               for row in rows]
    if any(p is None for row in entries for p in row):
        return
    a = LaurentMatrix(entries, nvars=nvars)
    det = _returns(a.determinant)
    _assert_no_nan(det, _returns(exponent_bound, a, c))
    if det is not None:
        twisted = _returns(twist, det, c, t)
        if twisted is not None:
            _assert_no_nan(*twisted)
        _assert_no_nan_fields(_returns(mahler_mv_report, det, tol, 5000))

    fn = _returns(det_function, a, c, index)
    if fn is not None:
        _assert_no_nan(_returns(fn.log_eval, t, tol))
        _assert_no_nan_fields(_returns(fn.asymptote, tol))
        report = _returns(convexity_check, fn, [t, 2 * t, 4 * t], tol)
        if report is not None:
            _assert_no_nan(*report.log_values)

    spec = _returns(TorsionSpec, a, c, (), index)
    tau = spec and _returns(torsion_from_presentation, spec)
    if tau is not None:
        _assert_no_nan(_returns(tau.value, t, tol))
        _assert_no_nan_fields(_returns(tau.degree_report, tol))
