"""The README's library quick start runs and its commented results hold."""

import pathlib

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start():
    code = quick_start()
    namespace = {}
    exec(code, namespace)

    def result(expr):
        assert expr in code
        return eval(expr, namespace)

    assert result("v.eval(5.0)") == pytest.approx(25.0, rel=1e-12)
    report = result("v.asymptote().to_obj()")
    assert (report["d_plus"], report["d_minus"]) == (2, 0)
    assert (report["C_plus"], report["C_minus"]) == (1, 1)
    assert result("torsion_degree(tau).deg_b") == 0
