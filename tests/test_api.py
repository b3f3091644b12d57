import ast
import pathlib
import re

import l2alex

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    missing = [name for name in l2alex.__all__
               if not hasattr(l2alex, name)]
    assert missing == []


def test_exports_are_unique():
    names = l2alex.__all__
    assert len(names) == len(set(names))


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def _texts_outside_definition(name):
    """The library modules with the name's own definition blanked out,
    the benchmark's modules and the README."""
    for path in sorted((ROOT / "src" / "l2alex").glob("*.py")):
        if path.name == "__init__.py":   # imports and __all__ are no use
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if name in _defined_names(node):
                lines[node.lineno - 1:node.end_lineno] = \
                    [""] * (node.end_lineno - node.lineno + 1)
        yield "\n".join(lines)
    for path in sorted((ROOT / "l2bench").glob("*.py")):
        yield path.read_text(encoding="utf-8")
    yield (ROOT / "README.md").read_text(encoding="utf-8")


def test_every_export_has_a_use():
    # an export that only tests reach belongs with the tests
    unused = [name for name in l2alex.__all__
              if not any(re.search(rf"\b{re.escape(name)}\b", text)
                         for text in _texts_outside_definition(name))]
    assert unused == []
