import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest

import l2alex

from l2alex import CohomClass, LaurentMatrix, LaurentPoly
from l2alex.cli import main, parse_input, render_json
from l2alex.errors import InputError

from conftest import random_complex_terms

QUADRATIC_DOC = json.dumps({
    "variables": ["z"],
    "matrix": [[[{"exp": [2], "re": 1, "im": 0},
                 {"exp": [1], "re": -3, "im": 0},
                 {"exp": [0], "re": 1, "im": 0}]]],
    "class": {"sigma": [1]},
})

SMYTH_DOC = json.dumps({
    "variables": ["z1", "z2"],
    "matrix": [[[{"exp": [0, 0], "re": 1, "im": 0},
                 {"exp": [1, 0], "re": 1, "im": 0},
                 {"exp": [0, 1], "re": 1, "im": 0}]]],
    "class": {"sigma": [1, 1]},
})

# (1 + x)(1 + x + y^3): the slice log-measure in y has a log singularity at
# x = -1, so tight tolerances need many refinement sweeps.
SINGULAR_DOC = json.dumps({
    "variables": ["x", "y"],
    "matrix": [[[{"exp": list(e), "re": c, "im": 0}
                 for e, c in (((0, 0), 1), ((1, 0), 2), ((2, 0), 1),
                              ((0, 3), 1), ((1, 3), 1))]]],
    "class": {"sigma": [1, 1]},
})

QUARTIC_DOC = json.dumps({
    "variables": ["z"],
    "matrix": [[[{"exp": [4], "re": 1, "im": 0},
                 {"exp": [1], "re": -3, "im": 0},
                 {"exp": [0], "re": 1, "im": 0}]]],
    "class": {"sigma": [1]},
})

# A 5x5 integer matrix whose elimination over the ring in complex doubles
# passes 2^53 and loses exactness.
LARGE_PIVOTS_ROWS = [
    [{1: -999}, {2: 11}, {1: 11}, {1: -7, 2: 3}, {0: -7}],
    [{1: -7, 2: 3}, {2: -999}, {2: 11}, {2: 997}, {}],
    [{}, {2: -7}, {0: 3, 2: 3}, {}, {}],
    [{0: 3}, {0: 3}, {}, {0: 3}, {}],
    [{0: 11, 2: -7}, {2: -7}, {}, {}, {0: 997}],
]
LARGE_PIVOTS_DOC = json.dumps({
    "variables": ["z"],
    "matrix": [[[{"exp": [e], "re": c, "im": 0} for e, c in cell.items()]
                for cell in row] for row in LARGE_PIVOTS_ROWS],
    "class": {"sigma": [1]},
})


# 1 - 3z + z^2 at sigma = [3], and 1 + x + y at sigma = [3, 1]: t^3 leaves
# the double range on the extreme grids of TestExtremeT
STEEP_DOCS = {
    "1v": json.dumps({
        "variables": ["z"],
        "matrix": [[[{"exp": [e], "re": c} for e, c in
                     ((0, 1), (1, -3), (2, 1))]]],
        "class": {"sigma": [3]},
    }),
    "2v": json.dumps({
        "variables": ["x", "y"],
        "matrix": [[[{"exp": list(e), "re": 1} for e in
                     ((0, 0), (1, 0), (0, 1))]]],
        "class": {"sigma": [3, 1]},
    }),
}


# y^N + x y^N + 3 y^(N+1) at N = 10^19, beyond int64: V(t) = t^N M(...),
# so log V is about 1e19 log t, whose ulp is 1024 away from t = 1
BIG_EXPONENT_DOC = json.dumps({
    "variables": ["x", "y"],
    "matrix": [[[{"exp": [0, 10 ** 19], "re": 1},
                 {"exp": [1, 10 ** 19], "re": 1},
                 {"exp": [0, 10 ** 19 + 1], "re": 3}]]],
    "class": {"sigma": [1, 1]},
})


# documents whose exponents lie beyond the double range, E = 10^400:
# z^E (1 - 3z + z^2) with sigma = (1), and x^E (1 + x + 3y) with
# sigma = (1, 2); V(t) is t^E M(...) there, beyond the doubles off t = 1
E_BEYOND_DOUBLE = 10 ** 400
BEYOND_DOUBLE_DOCS = {
    "1v": json.dumps({
        "variables": ["z"],
        "matrix": [[[{"exp": [E_BEYOND_DOUBLE + k], "re": c}
                     for k, c in ((0, 1), (1, -3), (2, 1))]]],
        "class": {"sigma": [1]},
    }),
    "2v": json.dumps({
        "variables": ["x", "y"],
        "matrix": [[[{"exp": [E_BEYOND_DOUBLE + i, j], "re": c}
                     for i, j, c in ((0, 0, 1), (1, 0, 1), (0, 1, 3))]]],
        "class": {"sigma": [1, 2]},
    }),
}
UNDERFLOW_AT_HALF = \
    "error[underflow]: the value at t=0.5 is below the double range\n"
SLOPE_OVERFLOW = "error[overflow]: slope_min is inf, beyond the double range\n"


def scaled_doc(terms, scale):
    """A 1x1 document of scale * p, p given as {exponent tuple: coeff}."""
    nvars = len(next(iter(terms)))
    return json.dumps({
        "variables": [f"z{j}" for j in range(nvars)],
        "matrix": [[[{"exp": list(e), "re": scale * c}
                     for e, c in terms.items()]]],
        "class": {"sigma": [1] * nvars},
    })


def quadratic_doc(tail):
    """The z^2 - 3z + 1 document with raw JSON for "class" and what follows."""
    return ('{"variables":["z"],"matrix":[[[{"exp":[2],"re":1},'
            '{"exp":[1],"re":-3},{"exp":[0],"re":1}]]],"class":%s}' % tail)


def entry_doc(terms):
    """A 2x2 diagonal document: 1 and the terms (raw JSON) at entry [1][1]."""
    return ('{"variables":["z"],"class":{"sigma":[1]},"matrix":'
            '[[[{"exp":[0],"re":1}],[]],[[],[%s]]]}' % terms)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def quadratic_file(tmp_path):
    path = tmp_path / "quadratic.json"
    path.write_text(QUADRATIC_DOC)
    return str(path)


@pytest.fixture
def smyth_file(tmp_path):
    path = tmp_path / "smyth.json"
    path.write_text(SMYTH_DOC)
    return str(path)


class TestParsing:
    def test_minimal_document(self):
        doc = parse_input('{"variables":["z"],'
                          '"matrix":[[[{"exp":[1],"re":1,"im":0}]]],'
                          '"class":{"sigma":[1]}}')
        assert doc.matrix.size == 1 and doc.cohom.sigma == (1.0,)
        assert doc.index_divisor == 1 and doc.pairs == ()

    def test_sigma_length_mismatch(self):
        with pytest.raises(InputError) as info:
            parse_input('{"variables":["z"],'
                        '"matrix":[[[{"exp":[1],"re":1,"im":0}]]],'
                        '"class":{"sigma":[1,2]}}')
        assert info.value.kind == "dimension-mismatch"

    def test_decomposition_accepted(self):
        doc = parse_input('{"variables":["z"],'
                          '"matrix":[[[{"exp":[1],"re":1,"im":0}]]],'
                          '"class":{"sigma":[1.0],"r":[1.0],"phi":[[1]]}}')
        assert doc.cohom.has_decomposition

    def test_malformed_json_carries_position(self):
        with pytest.raises(InputError) as info:
            parse_input("{\n  broken")
        assert info.value.kind == "malformed-json"
        assert "line 2" in str(info.value)

    def test_bad_index_divisor(self):
        with pytest.raises(InputError) as info:
            parse_input('{"variables":["z"],'
                        '"matrix":[[[{"exp":[1],"re":1,"im":0}]]],'
                        '"class":{"sigma":[1]},"index_divisor":0}')
        assert info.value.kind == "bad-index-divisor"

    @pytest.mark.parametrize("text, kind", [
        ("[" * 100_000, "malformed-json"),
        ('{"variables":["z"],"matrix":[[[{"exp":[1],"re":1}]]],'
         '"class":{"sigma":[1]},"pairs":%s}' % ("[" * 900 + "]" * 900),
         "bad-pairs"),
        ('{"variables":["z"],"matrix":[[[{"exp":[1],"re":1}]]],'
         '"class":{"sigma":[1]},"index_divisor":1%s}' % ("0" * 5000),
         "malformed-json"),
    ], ids=["deep-document", "deep-pairs", "5001-digit-integer"])
    def test_beyond_the_parser_refused(self, tmp_path, capsys, text, kind):
        # nesting past the recursion limit of json.loads, or an integer
        # past int()'s digit limit; a deep pair is read as one bad pair
        with pytest.raises(InputError) as info:
            parse_input(text)
        assert info.value.kind == kind
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run_cli(["degree", "--input", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error[{kind}]:")
        assert len(err.splitlines()) == 1

    def test_index_divisor_beyond_double_range_refused(self, tmp_path, capsys):
        text = ('{"variables":["z"],"matrix":[[[{"exp":[1],"re":1}]]],'
                '"class":{"sigma":[1]},"index_divisor":%d}' % 10 ** 400)
        with pytest.raises(InputError) as info:
            parse_input(text)
        assert info.value.kind == "bad-index-divisor"
        path = tmp_path / "doc.json"
        path.write_text(text)
        for argv in (["eval", "--t-grid", "0.5:2:3"], ["degree"],
                     ["torsion", "--t-grid", "0.5:2:3"],
                     ["convexity", "--grid", "0.5:2:3"]):
            code, out, err = run_cli(argv + ["--input", str(path)], capsys)
            assert (code, out) == (1, "")
            assert err == ("error[bad-index-divisor]: index_divisor is "
                           "beyond the double range\n")

    def test_bad_pairs(self):
        with pytest.raises(InputError) as info:
            parse_input('{"variables":["z"],'
                        '"matrix":[[[{"exp":[1],"re":1,"im":0}]]],'
                        '"class":{"sigma":[1]},"pairs":[[1]]}')
        assert info.value.kind == "bad-pairs"

    @pytest.mark.parametrize("value, reason", [
        pytest.param(value, "is not a number", id=value)
        for value in ('"inf"', '"-inf"', '"nan"', '1,"im":"nan"')] + [
        pytest.param(value, "is not finite", id=value)
        for value in ("1e400", "NaN", "Infinity")] + [
        pytest.param(str(10 ** 400), "is not finite", id="re-10^400"),
        pytest.param('1,"im":-%d' % 10 ** 400, "is not finite",
                     id="im-10^400"),
        pytest.param('1.5e308,"im":1.5e308', "is not finite",
                     id="modulus-1e308")])
    def test_non_finite_coefficient_refused(self, value, reason):
        # a string such as "inf" is not a number: float() is never applied
        with pytest.raises(InputError) as info:
            parse_input(entry_doc('{"exp":[0],"re":1},{"exp":[2],"re":%s}'
                                  % value))
        assert info.value.kind == "bad-matrix"
        assert "entry [1][1]" in str(info.value)
        assert f"exponent [2] {reason}" in str(info.value)

    @pytest.mark.parametrize("exponent", ["2.7", "1e400", "NaN"])
    def test_non_integer_exponent_refused(self, exponent):
        with pytest.raises(InputError) as info:
            parse_input(entry_doc('{"exp":[%s],"re":1}' % exponent))
        assert info.value.kind == "bad-matrix"
        assert "entry [1][1]" in str(info.value)
        assert "is not a list of integers" in str(info.value)

    @pytest.mark.parametrize("text, kind", [
        (entry_doc('{"exp":["2"],"re":1}'), "bad-matrix"),
        (entry_doc('{"exp":[0],"re":"1"}'), "bad-matrix"),
        (entry_doc('{"exp":[0],"re":1,"im":"0"}'), "bad-matrix"),
        (quadratic_doc('{"sigma":["1.5"]}'), "bad-class"),
        (quadratic_doc('{"sigma":[1],"r":["0.5"],"phi":[[2]]}'), "bad-class"),
        (quadratic_doc('{"sigma":[3],"r":[1],"phi":[["3"]]}'), "bad-class"),
        (quadratic_doc('{"sigma":[1]},"pairs":[[1,"2"]]'), "bad-pairs"),
        (quadratic_doc('{"sigma":[1]},"index_divisor":"2"'),
         "bad-index-divisor")],
        ids=["exp", "re", "im", "sigma", "r", "phi", "pairs", "index_divisor"])
    def test_string_for_a_number_refused(self, text, kind):
        # float() and int() of a JSON string are never applied
        with pytest.raises(InputError) as info:
            parse_input(text)
        assert info.value.kind == kind
        assert "is not" in str(info.value)

    @pytest.mark.parametrize("text, kind", [
        (quadratic_doc('{"sigma":[2],"r":[1],"phi":[[2.5]]}'), "bad-class"),
        (quadratic_doc('{"sigma":[1]},"index_divisor":2.5'),
         "bad-index-divisor")], ids=["phi", "index_divisor"])
    def test_non_integral_refused(self, text, kind):
        # phi 2.5 used to be read as 2, which reproduces sigma = 2
        with pytest.raises(InputError) as info:
            parse_input(text)
        assert info.value.kind == kind

    def test_integral_floats_read_as_integers(self):
        doc = parse_input(
            '{"variables":["z"],"matrix":[[[{"exp":[2.0],"re":1}]]],'
            '"class":{"sigma":[2],"r":[1],"phi":[[2.0]]},'
            '"index_divisor":2.0}')
        assert doc.matrix.rows[0][0].terms == {(2,): 1}
        assert doc.cohom.phi == ((2,),)
        assert doc.index_divisor == 2 and isinstance(doc.index_divisor, int)

    def test_boolean_under_an_unknown_key_ignored(self):
        # the reader checks the numbers it reads, and no other value
        doc = parse_input(quadratic_doc('{"sigma":[1],"note":true},"x":false'))
        assert doc.cohom.sigma == (1.0,)

    @pytest.mark.parametrize("text, kind", [
        ("[]", "malformed-json"),
        ('{"variables":"z","matrix":[],"class":{"sigma":[]}}',
         "bad-variables"),
        ('{"variables":["z"],"matrix":[[[]]]}', "missing-field"),
        (quadratic_doc("[1]"), "bad-class"),
        (quadratic_doc('{"sigma":[1]},"pairs":5'), "bad-pairs"),
        (entry_doc('{"exp":[0,1],"re":1}'), "dimension-mismatch")],
        ids=["top-level-list", "variables-string", "no-class",
             "class-not-object", "pairs-not-list", "exponent-length"])
    def test_malformed_document_refused(self, tmp_path, capsys, text, kind):
        with pytest.raises(InputError) as info:
            parse_input(text)
        assert info.value.kind == kind
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run_cli(["degree", "--input", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error[{kind}]:") and err.count("\n") == 1

    def test_cancelling_terms_accepted(self):
        doc = parse_input(entry_doc(
            '{"exp":[0],"re":1},{"exp":[0],"re":-1},{"exp":[1],"re":2}'))
        assert doc.matrix.rows[1][1].terms == {(1,): 2}

    def test_full_precision_document(self):
        # every float of the document needs 17 digits, and each is kept
        sqrt2 = repr(math.sqrt(2))
        doc = parse_input(
            '{"variables": ["u", "v"],'
            ' "matrix": [[[{"exp": [1, 0], "re": 0.1, "im": %s}]]],'
            ' "class": {"sigma": [0.1, %s]},'
            ' "pairs": [[0.1, %s]], "index_divisor": 2}'
            % (sqrt2, sqrt2, sqrt2))
        assert doc.matrix.nvars == 2
        assert doc.matrix == LaurentMatrix(
            [[LaurentPoly(2, {(1, 0): complex(0.1, math.sqrt(2))})]])
        assert doc.cohom == CohomClass([0.1, math.sqrt(2)])
        assert doc.pairs == ((0.1, math.sqrt(2)),)
        assert doc.index_divisor == 2


class TestRenderJson:
    def test_float_format(self):
        assert render_json(1.11370093958034) == "1.11370093958"
        assert render_json(2.0) == "2"
        assert render_json([1.5, None, True]) == "[1.5,null,true]"

    def test_dict_order_preserved(self):
        assert render_json({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_refused(self, value):
        with pytest.raises(InputError) as info:
            render_json({"ok": 1.0, "bad": [{"deep": 2.0}, value]})
        assert info.value.kind == "overflow"
        assert str(info.value).startswith("bad is ")


class TestCommands:
    def test_degree(self, quadratic_file, capsys):
        code, out, _ = run_cli(["degree", "--input", quadratic_file], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["d_plus"] == 2 and obj["d_minus"] == 0
        assert obj["deg_b"] == 2
        assert obj["C_plus"] == 1 and obj["C_minus"] == 1
        assert obj["method"] == "exact-chief-part"

    def test_degree_with_large_pivots(self, tmp_path, capsys):
        path = tmp_path / "large_pivots.json"
        path.write_text(LARGE_PIVOTS_DOC)
        code, out, err = run_cli(["degree", "--input", str(path)], capsys)
        assert code == 0, err
        obj = json.loads(out)
        assert (obj["d_plus"], obj["d_minus"]) == (6, 2)
        assert (obj["C_plus"], obj["C_minus"]) == (124823262, 943551)

    def test_degree_leading_coefficient_root_in_log_space(self, tmp_path,
                                                          capsys):
        # index 2: the faces' measures 1.5e308 * golden and 1.5e308 leave
        # the double range, their square roots do not
        big = 1.5e308
        path = tmp_path / "huge_faces.json"
        path.write_text(json.dumps({
            "variables": ["x", "y"],
            "matrix": [[[{"exp": [1, 2], "re": big},
                         {"exp": [1, 1], "re": -big},
                         {"exp": [1, 0], "re": -big},
                         {"exp": [0, 0], "re": big}]]],
            "class": {"sigma": [1, 0]}, "index_divisor": 2}))
        code, out, err = run_cli(["degree", "--input", str(path)], capsys)
        assert code == 0, err
        obj = json.loads(out)
        assert (obj["d_plus"], obj["d_minus"]) == (0.5, 0)
        golden = (1 + math.sqrt(5)) / 2
        assert obj["C_plus"] == pytest.approx(
            math.exp((math.log(big) + math.log(golden)) / 2), rel=1e-10)
        assert obj["C_minus"] == pytest.approx(math.sqrt(big), rel=1e-10)
        assert obj["C_plus"] == pytest.approx(1.5579e154, rel=1e-4)

    def test_mahler_quadratic(self, quadratic_file, capsys):
        code, out, _ = run_cli(["mahler", "--input", quadratic_file], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["measure"] == pytest.approx(2.618033988749895, rel=1e-10)

    def test_mahler_smyth(self, smyth_file, capsys):
        code, out, _ = run_cli(
            ["mahler", "--input", smyth_file, "--tol", "1e-8"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["measure"] == pytest.approx(1.3813564445, rel=1e-6)
        assert obj["achieved_tol"] <= 1e-8

    def test_mahler_dominant_term_is_exact(self, tmp_path, capsys):
        # 3 > 1 + 1 in 3 + x + y: M = 3 from the face 3 + y, by Jensen
        path = tmp_path / "dominant.json"
        path.write_text(SMYTH_DOC.replace('"re": 1, "im": 0}, {"exp": [1',
                                          '"re": 3, "im": 0}, {"exp": [1'))
        code, out, _ = run_cli(["mahler", "--input", str(path)], capsys)
        assert code == 0
        assert out == '{"measure":3,"log_measure":1.09861228867,' \
                      '"achieved_tol":0}\n'

    def test_eval_csv(self, quadratic_file, capsys):
        code, out, _ = run_cli(
            ["eval", "--input", quadratic_file, "--t-grid", "0.5:2:5"],
            capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,value"
        assert len(lines) == 6
        t0, v0 = lines[1].split(",")
        assert float(t0) == pytest.approx(0.5)
        assert float(v0) == pytest.approx(2.618033988749895 * 0.5)

    def test_torsion_csv(self, quadratic_file, capsys):
        code, out, _ = run_cli(
            ["torsion", "--input", quadratic_file, "--t-grid", "0.5:2:3"],
            capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,value"
        assert len(lines) == 4

    def test_convexity(self, quadratic_file, capsys):
        code, out, _ = run_cli(
            ["convexity", "--input", quadratic_file,
             "--grid", "0.001:1000:21"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert obj["slope_range"] <= obj["slope_bound"] + 1e-9

    def test_scenario_single(self, capsys):
        code, out, _ = run_cli(
            ["scenario", "section9", "--phi", "1,-1,0"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["norm"] == 2 and obj["delta"] == 1
        assert obj["leading"] == pytest.approx(1.113700939580, rel=1e-9)
        assert obj["deg_b"] == 2

    def test_scenario_negative_phi_as_separate_value(self, capsys):
        code, out, _ = run_cli(
            ["scenario", "section9", "--phi", "-1,1,0"], capsys)
        assert code == 0
        _, joined, _ = run_cli(
            ["scenario", "section9", "--phi=-1,1,0"], capsys)
        assert out == joined

    def test_scenario_snaps_each_coordinate_once(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(
                ["scenario", "section9", "--phi", "1e-13,-1e-13,0"], capsys)
        assert code == 0
        assert len(caught) == 2
        assert out == ('{"phi":[1e-13,-1e-13,0],"norm":0,"delta":3,'
                       '"leading":1.38135644452,"deg_b":0}\n')

    def test_scenario_sweep(self, capsys):
        code, out, _ = run_cli(
            ["scenario", "section9", "--sweep", "6"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 6
        for row in rows:
            assert row["deg_b"] == pytest.approx(row["norm"], abs=1e-9)

    def test_input_from_stdin(self, quadratic_file, capsys, monkeypatch):
        expected = run_cli(["degree", "--input", quadratic_file], capsys)
        monkeypatch.setattr(sys, "stdin", io.StringIO(QUADRATIC_DOC))
        assert run_cli(["degree", "--input", "-"], capsys) == expected
        assert expected[0] == 0

    def test_deterministic_output(self, smyth_file, capsys):
        _, out1, _ = run_cli(["mahler", "--input", smyth_file], capsys)
        _, out2, _ = run_cli(["mahler", "--input", smyth_file], capsys)
        assert out1 == out2


class TestExitCodes:
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", [
        ["mahler"], ["eval", "--t-grid", "1:2:3"]])
    def test_bad_tol_refused(self, smyth_file, capsys, command, tol):
        # nan used to run on without end: max(nan, 1e-15) is nan, and no
        # refinement sweep ever converges
        code, out, err = run_cli(
            [command[0], "--input", smyth_file, *command[1:], "--tol", tol],
            capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error[bad-tol]:")

    @pytest.mark.parametrize("argv", [
        ["mahler", "--input", "x.json", "--tol", "abc"],
        ["eval", "--input", "x.json"],
        ["foo"],
        ["scenario", "foo"],
        ["scenario", "section9", "--sweep", "x"],
    ], ids=["tol-abc", "no-t-grid", "unknown-command", "unknown-scenario",
            "sweep-x"])
    def test_argument_error_is_one_line(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[usage]: ")

    @pytest.mark.parametrize("argv, kind", [
        (["eval", "--t-grid", "1:2"], "bad-grid"),
        (["scenario", "section9", "--phi", "a,b,c"], "bad-phi"),
        (["scenario", "section9", "--phi", "1,1,1"], "bad-phi"),
        (["scenario", "section9", "--sweep", "0"], "bad-sweep")],
        ids=["grid-form", "phi-non-numeric", "phi-off-plane", "sweep-0"])
    def test_bad_option_value_refused(self, quadratic_file, capsys, argv,
                                      kind):
        if argv[0] != "scenario":
            argv = argv + ["--input", quadratic_file]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error[{kind}]:") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        code, out, err = run_cli(["mahler", "-h"], capsys)
        assert code == 0
        assert out.startswith("usage: l2alex mahler") and err == ""

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_bad_budget_refused(self, smyth_file, capsys, budget):
        code, out, err = run_cli(
            ["mahler", "--input", smyth_file, "--max-evals", budget], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error[bad-budget]:")

    @pytest.mark.parametrize("terms", [
        {(0,): 1, (1,): 1, (2,): -1}, {(0, 0): 1, (1, 0): 1, (0, 1): 1}],
        ids=["1v", "2v"])
    def test_measure_overflow_is_refused(self, tmp_path, capsys, terms):
        # measures ~2.4e308 and ~2.1e308: no "inf" row and no traceback
        path = tmp_path / "huge.json"
        path.write_text(scaled_doc(terms, 1.5e308))
        code, out, err = run_cli(["mahler", "--input", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error[overflow]:")

    def test_ill_conditioned_roots(self, quadratic_file, capsys,
                                   monkeypatch):
        # no tolerance passes the reconstruction check of mahler.roots
        monkeypatch.setattr(l2alex.mahler, "_RECONSTRUCTION_RTOL", -1.0)
        code, out, err = run_cli(["mahler", "--input", quadratic_file],
                                 capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error[ill-conditioned]:")

    def test_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("nope")
        code, _, err = run_cli(["degree", "--input", str(path)], capsys)
        assert code == 1
        assert "malformed-json" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["degree", "--input", "/no/such/file.json"],
                               capsys)
        assert code == 1

    def test_budget_error(self, tmp_path, capsys):
        path = tmp_path / "singular.json"
        path.write_text(SINGULAR_DOC)
        code, _, err = run_cli(
            ["mahler", "--input", str(path), "--tol", "1e-13",
             "--max-evals", "600"], capsys)
        assert code == 2
        assert "quadrature-budget" in err
        assert re.search(r"best estimate \S+, achieved \S+\)$", err.strip())
        assert "np.float64" not in err

    def test_budget_error_beyond_double_range(self, tmp_path, capsys):
        # 1.7e308 (1 + x^9 + y^8): the best estimate saturates to inf
        path = tmp_path / "huge.json"
        path.write_text(scaled_doc({(0, 0): 1, (9, 0): 1, (0, 8): 1},
                                   1.7e308))
        code, out, err = run_cli(
            ["mahler", "--input", str(path), "--tol", "1e-12",
             "--max-evals", "1000"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error[quadrature-budget]:")
        assert "best estimate inf" in err

    def test_overflowing_grid_is_input_error(self, quadratic_file, capsys):
        code, out, err = run_cli(
            ["eval", "--input", quadratic_file,
             "--t-grid", "1e-300:1e300:3"], capsys)
        assert code == 1
        assert out == ""
        assert "error[bad-grid]" in err

    @pytest.mark.parametrize("command", ["eval", "torsion"])
    def test_overflowing_value_is_refused(self, tmp_path, capsys, command):
        path = tmp_path / "quartic.json"
        path.write_text(QUARTIC_DOC)
        code, out, err = run_cli(
            [command, "--input", str(path),
             "--t-grid", "1e-100:1e100:3"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error[overflow]:")
        assert "t=1e+100" in err

    def test_pruned_input_is_refused(self, tmp_path, capsys):
        path = tmp_path / "pruned.json"
        path.write_text(
            entry_doc('{"exp":[0],"re":1e300},{"exp":[40],"re":1}'))
        code, out, err = run_cli(["degree", "--input", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error[bad-matrix]:")
        assert "entry [1][1]" in err and "exponent [40] is lost" in err

    @pytest.mark.parametrize("command", ["eval", "torsion"])
    def test_underflowing_value_is_refused(self, tmp_path, capsys, command):
        path = tmp_path / "underflow.json"
        path.write_text(entry_doc('{"exp":[2],"re":1},{"exp":[3],"re":-3}'))
        code, out, err = run_cli(
            [command, "--input", str(path),
             "--t-grid", "1e-250:1e-100:3"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error[underflow]:")
        assert "t=1e-250" in err

    @pytest.mark.parametrize("command", ["eval", "torsion"])
    def test_zero_function_prints_zero_rows(self, tmp_path, capsys, command):
        path = tmp_path / "zero.json"
        path.write_text(entry_doc(""))
        code, out, _ = run_cli(
            [command, "--input", str(path),
             "--t-grid", "1e-250:1e-100:3"], capsys)
        assert code == 0
        assert out == "t,value\n1e-250,0\n1e-175,0\n1e-100,0\n"

    @pytest.mark.parametrize("tail, kind", [
        ('{"sigma":[Infinity]}', "bad-class"),
        ('{"sigma":[1],"r":[Infinity],"phi":[[0]]}', "bad-class"),
        ('{"sigma":[1],"r":[NaN],"phi":[[1]]}', "bad-class"),
        ('{"sigma":[1]},"pairs":[[NaN,1]]', "bad-pairs")],
        ids=["sigma-inf", "r-inf-phi-0", "r-nan", "pair-nan"])
    @pytest.mark.parametrize("command", [
        ["degree"], ["eval", "--t-grid", "1:2:2"],
        ["torsion", "--t-grid", "1:2:2"]])
    def test_non_finite_class_or_pair_refused(self, tmp_path, capsys,
                                              command, tail, kind):
        path = tmp_path / "doc.json"
        path.write_text(quadratic_doc(tail))
        code, out, err = run_cli(
            [command[0], "--input", str(path), *command[1:]], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error[{kind}]:")

    @pytest.mark.parametrize("doc, kind", [
        (entry_doc('{"exp":[true],"re":1}'), "bad-matrix"),
        (entry_doc('{"exp":[0],"re":true}'), "bad-matrix"),
        (quadratic_doc('{"sigma":[true]}'), "bad-class"),
        (quadratic_doc('{"sigma":[1],"r":[true],"phi":[[1]]}'), "bad-class"),
        (quadratic_doc('{"sigma":[1],"r":[1],"phi":[[true]]}'), "bad-class"),
        (quadratic_doc('{"sigma":[1]},"pairs":[[true,false]]'), "bad-pairs"),
        (quadratic_doc('{"sigma":[1]},"index_divisor":true'),
         "bad-index-divisor")],
        ids=["exp", "re", "sigma", "r", "phi", "pairs", "index_divisor"])
    def test_boolean_for_a_number_refused(self, tmp_path, capsys, doc, kind):
        # Python reads a JSON true or false as the number 1 or 0
        path = tmp_path / "doc.json"
        path.write_text(doc)
        code, out, err = run_cli(["degree", "--input", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error[{kind}]:") and "boolean" in err

    @pytest.mark.parametrize("doc", [
        quadratic_doc('{"sigma":[1e308]}'),
        json.dumps({"variables": ["x", "y"],
                    "matrix": [[[{"exp": [0, 0], "re": 1},
                                 {"exp": [2, 0], "re": 1},
                                 {"exp": [0, 1], "re": 1}]]],
                    "class": {"sigma": [1.7e308, 2 ** 0.5]}})],
        ids=["decomposed", "undecomposed"])
    def test_degree_beyond_double_range_refused(self, tmp_path, capsys, doc):
        path = tmp_path / "doc.json"
        path.write_text(doc)
        code, out, err = run_cli(["degree", "--input", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error[overflow]:") and "d_plus" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("sigma", ["1e308", "1e200"])
    def test_convexity_beyond_double_range_refused(self, tmp_path, capsys,
                                                   sigma):
        # V(2) overflows at both; the slopes are read from log V, and only
        # at 1e308 does the largest log-log slope leave the double range
        path = tmp_path / "doc.json"
        path.write_text(quadratic_doc('{"sigma":[%s]}' % sigma))
        code, out, err = run_cli(["convexity", "--input", str(path),
                                  "--grid", "0.5:2:3"], capsys)
        if sigma == "1e200":
            assert (code, err) == (0, "")
            assert out == (
                '{"passed":true,"zero_function":false,'
                '"slope_min":1.38848382726,"slope_max":2e+200,'
                '"slope_range":2e+200,"slope_bound":2e+200,'
                '"violations":[],"slope_violations":[]}\n')
        else:
            assert code == 1
            assert out == ""
            assert err.startswith("error[overflow]:") and "slope_max" in err

    def test_convexity_underflow_refused(self, tmp_path, capsys):
        # V(0.01) = 1e-800 for z^400 at sigma = [1], below the double
        # range, yet its log is finite and so are the slopes
        path = tmp_path / "z400.json"
        path.write_text(scaled_doc({(400,): 1}, 1))
        code, out, err = run_cli(["convexity", "--input", str(path),
                                  "--grid", "0.01:1:3"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "passed": True, "zero_function": False, "slope_min": 400,
            "slope_max": 400, "slope_range": 0, "slope_bound": 0,
            "violations": [], "slope_violations": []}

    def test_complex_determinant_degree(self, tmp_path, capsys):
        # a complex 5x5 determinant: deg_b at sigma = [1] is its spread
        terms = random_complex_terms(0)
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({
            "variables": ["z"],
            "matrix": [[[{"exp": list(e), "re": c.real, "im": c.imag}
                         for e, c in cell.items()] for cell in row]
                       for row in terms],
            "class": {"sigma": [1]}}))
        code, out, _ = run_cli(["degree", "--input", str(path)], capsys)
        assert code == 0
        det = LaurentMatrix([[LaurentPoly(1, t) for t in row]
                             for row in terms]).determinant()
        assert json.loads(out)["deg_b"] == det.spread(0)

    @pytest.mark.parametrize("command", [["degree"], ["mahler"],
                                         ["eval", "--t-grid", "1:2:2"]])
    def test_overflowing_determinant_ill_conditioned(self, tmp_path, capsys,
                                                     command):
        # [[c z, 1e200], [1e200, c z]] with c = 1e200 (1 + i): the
        # determinant's coefficients pass the double range
        big = {"exp": [0], "re": 1e200}
        diag = {"exp": [1], "re": 1e200, "im": 1e200}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({
            "variables": ["z"], "matrix": [[[diag], [big]], [[big], [diag]]],
            "class": {"sigma": [1]}}))
        code, out, err = run_cli(command + ["--input", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error[ill-conditioned]:")

    @pytest.mark.parametrize("command", [
        ["mahler"], ["eval", "--t-grid", "0.5:2:3"], ["degree"],
        ["convexity", "--grid", "0.5:2:3"],
        ["torsion", "--t-grid", "0.5:2:3"]])
    def test_underflowing_determinant_ill_conditioned(self, tmp_path, capsys,
                                                      command):
        # diag(1e-200 (z + 1), 1e-200) is nonsingular, and its determinant
        # 1e-400 (z + 1) is below the doubles: it used to read as zero
        tiny = {"exp": [0], "re": 1e-200}
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps({
            "variables": ["z"],
            "matrix": [[[tiny, {"exp": [1], "re": 1e-200}], []],
                       [[], [tiny]]],
            "class": {"sigma": [1]}}))
        code, out, err = run_cli(command + ["--input", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error[ill-conditioned]:")

    @pytest.mark.parametrize("terms", [
        {(1,): 1e-320, (0,): -2e-320},
        {(0, 0): 3e-320, (1, 0): 1e-320, (0, 1): 1e-320}],
        ids=["1v", "2v"])
    @pytest.mark.parametrize("command", [
        ["mahler"], ["eval", "--t-grid", "0.5:2:3"],
        ["convexity", "--grid", "0.5:2:3"],
        ["torsion", "--t-grid", "0.5:2:3"]])
    def test_subnormal_entry_refused(self, tmp_path, capsys, terms, command):
        # dividing by a subnormal leading coefficient overflowed the
        # companion matrix, and numpy's eigvals raised
        path = tmp_path / "subnormal.json"
        path.write_text(scaled_doc(terms, 1.0))
        code, out, err = run_cli(command + ["--input", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error[bad-matrix]:")
        assert "below the normal double range" in err

    @pytest.mark.parametrize("terms", [
        {(0,): 1, (10 ** 30,): 1},
        {(0, 0): 1, (10 ** 30, 0): 1, (0, 1): 1},
    ], ids=["1+z^1e30", "1+x^1e30+y"])
    @pytest.mark.parametrize("command", [
        ["mahler"], ["eval", "--t-grid", "0.5:2:3"],
        ["convexity", "--grid", "0.5:2:3"],
        ["torsion", "--t-grid", "0.5:2:3"]])
    def test_exponent_spread_beyond_the_arrays_ill_conditioned(
            self, tmp_path, capsys, terms, command):
        path = tmp_path / "spread.json"
        path.write_text(scaled_doc(terms, 1))
        code, out, err = run_cli(command + ["--input", str(path)], capsys)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error[ill-conditioned]:")

    @pytest.mark.parametrize("terms", [
        {(0,): 1, (10 ** 30,): 1},
        {(0, 0): 1, (10 ** 30, 0): 1, (0, 1): 1},
    ], ids=["1+z^1e30", "1+x^1e30+y"])
    def test_exponent_spread_beyond_the_arrays_has_a_degree(
            self, tmp_path, capsys, terms):
        path = tmp_path / "spread.json"
        path.write_text(scaled_doc(terms, 1))
        code, out, err = run_cli(["degree", "--input", str(path)], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["d_plus"] == 1e30

    @pytest.mark.parametrize("argv, code, out, err", [
        (["mahler"], 0,
         '{"measure":3,"log_measure":1.09861228867,"achieved_tol":0}\n', ""),
        (["eval", "--t-grid", "1:1:1"], 0, "t,value\n1,3\n", ""),
        (["torsion", "--t-grid", "1:1:1"], 0, "t,value\n1,3\n", ""),
        (["eval", "--t-grid", "0.5:2:3"], 1, "",
         "error[underflow]: the value at t=0.5 is below the double range\n"),
        (["torsion", "--t-grid", "0.5:2:3"], 1, "",
         "error[underflow]: the value at t=0.5 is below the double range\n"),
    ], ids=["mahler", "eval-1", "torsion-1", "eval", "torsion"])
    def test_exponents_beyond_int64(self, tmp_path, capsys, argv, code, out,
                                    err):
        path = tmp_path / "big.json"
        path.write_text(BIG_EXPONENT_DOC)
        assert run_cli(argv + ["--input", str(path)], capsys) == \
            (code, out, err)

    @pytest.mark.parametrize("grid", ["0.5:2:3", "0.5:2:9", "1e-3:1e3:9"])
    def test_convexity_beyond_int64_passes(self, tmp_path, capsys, grid):
        # the midpoint excess log 3 at t = 1 is rounding of log V = +-7e18
        path = tmp_path / "big.json"
        path.write_text(BIG_EXPONENT_DOC)
        code, out, err = run_cli(["convexity", "--input", str(path),
                                  "--grid", grid], capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["passed"] and report["violations"] == []
        assert report["slope_bound"] == 1

    @pytest.mark.parametrize("doc, argv, code, out, err", [
        ("1v", ["mahler"], 0, '{"measure":2.61803398875,'
         '"log_measure":0.962423650119,"achieved_tol":0}\n', ""),
        ("2v", ["mahler"], 0,
         '{"measure":3,"log_measure":1.09861228867,"achieved_tol":0}\n', ""),
        ("1v", ["eval", "--t-grid", "0.5:2:3"], 1, "", UNDERFLOW_AT_HALF),
        ("2v", ["eval", "--t-grid", "0.5:2:3"], 1, "", UNDERFLOW_AT_HALF),
        ("1v", ["torsion", "--t-grid", "0.5:2:3"], 1, "", UNDERFLOW_AT_HALF),
        ("2v", ["torsion", "--t-grid", "0.5:2:3"], 1, "", UNDERFLOW_AT_HALF),
        ("1v", ["convexity", "--grid", "0.5:2:3"], 1, "", SLOPE_OVERFLOW),
        ("2v", ["convexity", "--grid", "0.5:2:3"], 1, "", SLOPE_OVERFLOW),
    ], ids=["mahler-1v", "mahler-2v", "eval-1v", "eval-2v", "torsion-1v",
            "torsion-2v", "convexity-1v", "convexity-2v"])
    def test_exponents_beyond_double_range(self, tmp_path, capsys, doc, argv,
                                           code, out, err):
        path = tmp_path / "beyond.json"
        path.write_text(BEYOND_DOUBLE_DOCS[doc])
        assert run_cli(argv + ["--input", str(path)], capsys) == \
            (code, out, err)

    @pytest.mark.parametrize("doc", [
        quadratic_doc('{"sigma":[1.7e308]}'),
        json.dumps({"variables": ["x", "y"],
                    "matrix": [[[{"exp": [0, 0], "re": 1},
                                 {"exp": [1, 0], "re": 1},
                                 {"exp": [0, 1], "re": 3}]]],
                    "class": {"sigma": [1.7e308, 1]}})],
        ids=["1v", "2v"])
    @pytest.mark.parametrize("t", ["1e-300", "1e300"])
    def test_log_scale_beyond_double_range_ill_conditioned(
            self, tmp_path, capsys, doc, t):
        # sigma_1 log t is about -+1.2e311, so no double holds the twist
        path = tmp_path / "doc.json"
        path.write_text(doc)
        code, out, err = run_cli(["eval", "--input", str(path), "--t-grid",
                                  f"{t}:{t}:1"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error[ill-conditioned]:")

    def test_tie_error(self, tmp_path, capsys):
        # z1 + z2 with independent integer weights ties at <r, w> = 1
        doc = {
            "variables": ["z1", "z2"],
            "matrix": [[[{"exp": [1, 0], "re": 1, "im": 0},
                         {"exp": [0, 1], "re": 1, "im": 0}]]],
            "class": {"sigma": [1, 1], "r": [1.0, 1.0],
                      "phi": [[1, 0], [0, 1]]},
        }
        path = tmp_path / "tie.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["degree", "--input", str(path)], capsys)
        assert code == 3
        assert "degeneracy" in err
        # float weights sqrt 2 and sqrt 2 + 1e-14 agree to rounding, and no
        # decomposition settles them
        doc["class"] = {"sigma": [2 ** 0.5, 2 ** 0.5 + 1e-14]}
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["degree", "--input", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error[degeneracy]:")

    def test_zero_determinant_degree_is_degenerate(self, tmp_path, capsys):
        doc = {
            "variables": ["z"],
            "matrix": [[
                [{"exp": [1], "re": 1, "im": 0}],
                [{"exp": [1], "re": 1, "im": 0}],
            ], [
                [{"exp": [1], "re": 1, "im": 0}],
                [{"exp": [1], "re": 1, "im": 0}],
            ]],
            "class": {"sigma": [1]},
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["degree", "--input", str(path)], capsys)
        assert code == 3

    def test_zero_determinant_mahler_is_degenerate(self, tmp_path, capsys):
        # M = 0 has no log; degree refuses the zero function the same way
        path = tmp_path / "zero.json"
        path.write_text(entry_doc(""))
        code, out, err = run_cli(["mahler", "--input", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error[degeneracy]:")

    @pytest.mark.parametrize("grid", ["1:4:2", "1:4:1"])
    def test_convexity_short_grid_refused(self, quadratic_file, capsys,
                                          grid):
        code, out, err = run_cli(["convexity", "--input", quadratic_file,
                                  "--grid", grid], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error[bad-grid]:")

    @pytest.mark.parametrize("grid", ["nan:1:1", "inf:inf:1"])
    @pytest.mark.parametrize("command", ["eval", "torsion"])
    def test_non_finite_single_point_grid_refused(self, tmp_path, capsys,
                                                  command, grid):
        # also for the zero function, whose rows would print as 0
        for terms in ("", '{"exp":[1],"re":1}'):
            path = tmp_path / "doc.json"
            path.write_text(entry_doc(terms))
            code, out, err = run_cli([command, "--input", str(path),
                                      "--t-grid", grid], capsys)
            assert (code, out) == (1, "")
            assert err.startswith("error[bad-grid]:")

    @pytest.mark.parametrize("phi", ["nan,nan,nan", "1e308,1e308,-2e308"])
    def test_scenario_non_finite_phi_refused(self, capsys, phi):
        # -2e308 parses as -inf
        code, out, err = run_cli(["scenario", "section9", "--phi", phi],
                                 capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error[bad-phi]:")


class TestExtremeT:
    @pytest.mark.parametrize("doc", sorted(STEEP_DOCS))
    @pytest.mark.parametrize("command", ["eval", "torsion"])
    def test_tiny_t_gives_ones(self, tmp_path, capsys, command, doc):
        path = tmp_path / "steep.json"
        path.write_text(STEEP_DOCS[doc])
        code, out, err = run_cli(
            [command, "--input", str(path), "--t-grid", "1e-120:1e-100:3"],
            capsys)
        assert code == 0, err
        assert out == "t,value\n1e-120,1\n1e-110,1\n1e-100,1\n"

    @pytest.mark.parametrize("doc", sorted(STEEP_DOCS))
    @pytest.mark.parametrize("command", ["eval", "torsion"])
    def test_huge_t_overflows(self, tmp_path, capsys, command, doc):
        path = tmp_path / "steep.json"
        path.write_text(STEEP_DOCS[doc])
        code, out, err = run_cli(
            [command, "--input", str(path), "--t-grid", "1e100:1e120:3"],
            capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error[overflow]:")


def test_import_leaves_fft_unloaded():
    # the toric breakpoints import numpy.fft on first use, so CLI start-up
    # does not pay for it
    src = os.path.dirname(os.path.dirname(os.path.abspath(l2alex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, l2alex.cli; print('numpy.fft' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_huge_coefficients_print_only_the_error(tmp_path):
    # root finding must not overflow numpy (a RuntimeWarning on stderr)
    # when the coefficients are near the top of the double range
    path = tmp_path / "huge.json"
    path.write_text(scaled_doc({(0,): 1, (1,): 1, (2,): -1}, 1.5e308))
    src = os.path.dirname(os.path.dirname(os.path.abspath(l2alex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "l2alex.cli", "mahler", "--input", str(path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error[overflow]:")
