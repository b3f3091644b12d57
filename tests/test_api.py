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


def _code(tree):
    """The module's source without comments and docstrings."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                node.body = body[1:] or [ast.Pass()]
    return ast.unparse(tree)


def _texts_outside_definition(name):
    """The code of the library modules with the name's own definition
    removed, the code of the benchmark's modules and the README."""
    for path in sorted((ROOT / "src" / "l2alex").glob("*.py")):
        if path.name == "__init__.py":   # imports and __all__ are no use
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tree.body = [node for node in tree.body
                     if name not in _defined_names(node)]
        yield _code(tree)
    for path in sorted((ROOT / "l2bench").glob("*.py")):
        yield _code(ast.parse(path.read_text(encoding="utf-8")))
    yield (ROOT / "README.md").read_text(encoding="utf-8")


def test_every_export_has_a_use():
    # an export that only tests reach belongs with the tests
    unused = [name for name in l2alex.__all__
              if not any(re.search(rf"\b{re.escape(name)}\b", text)
                         for text in _texts_outside_definition(name))]
    assert unused == []
