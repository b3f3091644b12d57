"""The documented CLI contract as one property test.

Whatever the document and the command line, ``cli.main`` returns one of
the documented exit codes, an error is exactly one ``error[kind]: ...``
line on stderr, of a documented kind and with that kind's exit code, and
a success prints no nan or inf. No exception leaves ``main``. Documents
and command lines are drawn with a weight on the extremes: exponents
beyond int64 and beyond the double range, coefficients near both ends of
the double range, grids reaching 1e-300 and 1e300, and tolerances from
1e-15 to 10.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from l2alex import cli
from l2alex.quadrature import DEFAULT_NODE_BUDGET, NodeBudget

# exit code of every documented error kind (see the cli docstring)
KIND_EXIT = {kind: 1 for kind in (
    "usage", "bad-tol", "bad-budget", "malformed-json", "bad-variables",
    "missing-field", "bad-matrix", "bad-class", "bad-pairs",
    "bad-index-divisor", "dimension-mismatch", "unreadable-input",
    "overflow", "underflow", "bad-grid", "bad-phi", "bad-sweep", "input")}
KIND_EXIT.update({"quadrature-budget": 2, "degeneracy": 3,
                  "ill-conditioned": 3})

# An exponent is its variable's offset plus a step, so that exponents of
# any size come with spreads of any size. Three documents in four take
# only small steps, and three in four only moderate coefficients: one
# extreme step or coefficient among the dozens of a 3x3 matrix decides its
# fate (a spread beyond 1024, a 1e-300 lost beside a 1), and would hide
# everything else.
OFFSETS = st.sampled_from([10 ** 19, -10 ** 19, 2 ** 63, -2 ** 63 - 1,
                           10 ** 17, -10 ** 17, 10 ** 400, -10 ** 400, 0, 0])
SMALL_STEPS = st.integers(-2, 2)
STEPS = st.one_of(*[SMALL_STEPS] * 3,
                  st.sampled_from([1100, 10 ** 17, -10 ** 19, 2 ** 63]))
MODERATE = st.one_of(st.sampled_from([1, -1, 2, -2, 3, 0]),
                     st.floats(0.1, 10), st.floats(-10, -0.1))
COEFFICIENTS = st.one_of(
    *[MODERATE] * 3,
    st.sampled_from([1e300, -1e300, 1.7e308, 1e-300, -1e-300, 5e-324,
                     10 ** 17 + 1, 2 ** 63, 10 ** 400]))
SIGMAS = st.one_of(st.integers(-3, 3),
                   st.sampled_from([0.5, -1.5, 2 ** 0.5, 1e-300, 1e300]))
GRID_ENDS = st.sampled_from([1e-300, 1e-100, 0.01, 0.5, 1, 2, 100, 1e100,
                             1e300])
# one --tol in six is malformed, and one grid in six (see grids)
TOLS = st.one_of(
    *[st.sampled_from(["1e-15", "1e-8", "1e-6", "1e-3", "0.5", "10"])] * 5,
    st.sampled_from(["0", "-1e-8", "nan", "inf"]))


@st.composite
def grids(draw):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(["0:1:3", "-1:2:3", "nan:1:3", "2:1:3",
                                     "1:2:0", "1:2", "a:b:c"]))
    lo, hi = sorted(draw(st.lists(GRID_ENDS, min_size=2, max_size=2,
                                  unique=True)))
    return "%r:%r:%d" % (lo, hi, draw(st.sampled_from([1, 2, 3, 5])))


@st.composite
def documents(draw):
    nvars = draw(st.sampled_from([2, 3, 2, 1]))
    size = draw(st.integers(1, 3))
    offsets = draw(st.lists(OFFSETS, min_size=nvars, max_size=nvars))
    steps = draw(st.sampled_from([SMALL_STEPS] * 3 + [STEPS]))
    coefficients = draw(st.sampled_from([MODERATE] * 3 + [COEFFICIENTS]))
    exps = st.tuples(*[steps.map(lambda s, o=o: o + s) for o in offsets])
    term = st.fixed_dictionaries(
        {"exp": exps.map(list), "re": coefficients},
        optional={"im": coefficients})
    terms = st.lists(term, min_size=1, max_size=3)
    entry = st.one_of(st.just([]), terms, terms, terms)   # zero one in four
    doc = {"variables": [f"z{j}" for j in range(nvars)],
           "matrix": draw(st.lists(st.lists(entry, min_size=size,
                                            max_size=size),
                                   min_size=size, max_size=size)),
           "class": {"sigma": draw(st.lists(SIGMAS, min_size=nvars,
                                            max_size=nvars))}}
    if draw(st.booleans()):
        doc["pairs"] = draw(st.lists(
            st.tuples(coefficients, coefficients).map(list), max_size=2))
    if draw(st.booleans()):
        doc["index_divisor"] = draw(st.integers(1, 3))
    return json.dumps(doc)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["mahler", "eval", "degree", "convexity",
                                    "torsion", "scenario"]))
    if command == "scenario":
        argv = ["scenario", "section9"]
        if draw(st.booleans()):
            argv += ["--phi", ",".join(draw(st.lists(
                st.sampled_from(["0", "1", "-1", "0.5", "1e-13", "1e308",
                                 "-2e308", "nan"]), min_size=2, max_size=4)))]
        if draw(st.booleans()):
            argv += ["--sweep", str(draw(st.integers(-1, 4)))]
        return argv
    argv = [command]
    if command in ("eval", "convexity", "torsion"):
        argv += ["--grid" if command == "convexity" else "--t-grid",
                 draw(grids())]
    if draw(st.booleans()):
        argv += ["--tol", draw(TOLS)]
    if command == "mahler" and draw(st.booleans()):
        argv += ["--max-evals", draw(st.sampled_from(["0", "1", "100",
                                                      "10000"]))]
    return argv


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "doc.json"


@pytest.fixture(scope="module", autouse=True)
def node_cap():
    """Caps every quadrature at 5,000 nodes, so that each example ends in
    well under a second: at the default budget a dense 3x3 matrix in three
    variables can take a minute. Running out is a documented outcome,
    error[quadrature-budget]."""
    init = NodeBudget.__init__
    with pytest.MonkeyPatch.context() as m:
        m.setattr(NodeBudget, "__init__",
                  lambda self, limit=DEFAULT_NODE_BUDGET:
                  init(self, min(limit, 5_000)))
        yield


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(), argv=command_lines())
def test_cli_contract(doc_path, doc, argv):
    doc_path.write_text(doc)
    if argv[0] != "scenario":
        argv = argv + ["--input", str(doc_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
        assert not re.search(r"nan|inf", out, re.IGNORECASE), out
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and err.endswith("\n"), err
        match = re.match(r"error\[([a-z-]+)\]: ", lines[0])
        assert match and KIND_EXIT.get(match.group(1)) == code, err
