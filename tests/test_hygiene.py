"""Static checks of the library's modules.

Every name a library module imports is used in that module
(``__init__.py`` is skipped: its imports are the package's re-exports).
Every ``functools`` cache states an integer literal as ``maxsize``: an
unbounded cache grows with every distinct argument a long-running process
passes.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "angelesco"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_scan_sees_an_unused_import():
    tree = ast.parse("import cmath\nimport math\nfrom numpy import pi, e\nx = math.pi + e\n")
    assert _unused_imports(tree) == [(1, "cmath"), (3, "pi")]


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _int_maxsize(call):
    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return (
        len(sizes) == 1
        and isinstance(sizes[0], ast.Constant)
        and type(sizes[0].value) is int
    )


def _unbounded_caches(tree):
    """Lines of every ``cache`` and of every ``lru_cache`` whose ``maxsize``
    is not an integer literal (a bare ``@lru_cache`` counts: its bound is
    implicit)."""
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            if not _int_maxsize(node):
                bad.append(node.lineno)
        elif isinstance(node, ast.Call) and _name(node.func) == "cache":
            bad.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bad.extend(
                d.lineno
                for d in node.decorator_list
                if _name(d) in ("cache", "lru_cache")
            )
    return sorted(bad)


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_caches_are_bounded(path):
    assert _unbounded_caches(ast.parse(path.read_text())) == []


def test_scan_sees_an_unbounded_cache():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\ndef a(x): return x\n"
        "@functools.lru_cache(16)\ndef b(x): return x\n"
        "@lru_cache(maxsize=None)\ndef c(x): return x\n"
        "@functools.cache\ndef d(x): return x\n"
        "@lru_cache\ndef e(x): return x\n"
        "f = lru_cache(maxsize=2 ** 8)(a)\n"
        "g = cache(a)\n"
    )
    assert _unbounded_caches(tree) == [7, 9, 11, 13, 14]
