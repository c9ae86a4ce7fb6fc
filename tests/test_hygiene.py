"""Static checks of the library's modules.

Every name a library module, a test module or a demo script imports is
used in that file (the package's ``__init__.py`` is skipped: its imports
are the package's re-exports).
Every name of a module's ``__all__`` is bound in that module, and every
name the package's ``__init__.py`` imports is in its module's ``__all__``:
a deleted name left behind in either would go unnoticed, since nothing
star-imports.
Every ``functools`` cache states an integer literal as ``maxsize``: an
unbounded cache grows with every distinct argument a long-running process
passes.  No module but ``numerics.py`` uses a double-precision gamma
function: ``gamma_ratio`` is the one double kernel (mpmath's gamma is the
extended-precision one).  In ``polynomials.py`` only ``_chain``,
``leading_coefficient`` and the three public normalizers name
``gamma_ratio``, and no function nested in them does: every chain head
takes its arguments from one formula.  ``operators.py`` and
``recurrence.py`` call no numpy division and pass no ``where=`` mask:
per-index residual arithmetic lives in ``poly.identity_residual``, the
one kernel that divides a sum of terms by its largest term and lets a
NaN term through.  Every ``@`` product in ``orthogonality.py`` runs in a
function decorated with ``numerics.overflow_trap``: a moment form that
overflows raises ``DoubleRangeError``, not a RuntimeWarning and an inf.
``asymptotics.py`` calls no numpy transcendental and hands numpy to no
function, except where the last bits do not matter (``_certified_steps``,
which certifies each sign it takes, and the log-log fits of
``endpoint_exponents``): the limit density is
bitwise what the one-sample libm code gives.  ``cli.py`` catches the
library's documented exceptions only in ``main``, its one map from exception
to exit code, and in ``verify``'s zeros suite, which counts a
``ZeroFindingError`` as a failed level.  Importing the CLI loads no
scipy module and no mpmath module: scipy's import alone costs a few
hundred milliseconds, and mpmath's would add about 13 ms to the 88 ms a
one-shot command takes on a 2-vCPU VM (README, performance notes).  Only
``stieltjes_limit`` needs scipy, and only the coefficient kernel
``polynomials._base_coeffs_raw``, its wrapper ``base_coeffs_mp`` and the
zero finder's ``_fixed_coeffs`` and ``_certify_at`` need mpmath, each
through an import inside the function; a fresh ``zeros`` and ``verify
--suite zeros`` run load mpmath on demand and print their pinned bytes.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "angelesco"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))
# the library's modules, then every test module and demo script
IMPORTING = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize(
    "path", IMPORTING, ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}"
)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_scan_sees_an_unused_import():
    tree = ast.parse("import cmath\nimport math\nfrom numpy import pi, e\nx = math.pi + e\n")
    assert _unused_imports(tree) == [(1, "cmath"), (3, "pi")]


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _bound_names(tree):
    # the names a module binds at its top level
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _exports(tree):
    # the names of a module's __all__, none without one
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(_name(t) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _stale_exports(tree):
    """The names of ``__all__`` that the module does not bind."""
    return sorted(set(_exports(tree)) - _bound_names(tree))


def _unexported_imports(init, exports):
    """(module, name) of every name the package's ``__init__`` imports from
    one of its modules and that module's ``__all__`` lacks; ``exports`` maps
    a module's name to its ``__all__``."""
    return sorted(
        (node.module, alias.name)
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in exports.get(node.module, ())
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_exists(path):
    assert _stale_exports(ast.parse(path.read_text())) == []


def test_package_imports_only_exported_names():
    exports = {p.stem: _exports(ast.parse(p.read_text())) for p in MODULES}
    init = ast.parse((SRC / "__init__.py").read_text())
    assert _unexported_imports(init, exports) == []


def test_scan_sees_a_stale_export():
    tree = ast.parse(
        "import numpy as np\n"
        "from math import pi\n"
        "__all__ = ['Gone', 'np', 'pi', 'f', 'C', 'X', 'Y', 'Z']\n"
        "def f():\n    Gone = 1\n"
        "class C:\n    Gone = 2\n"
        "X = Y = 1\n"
        "Z: int = 3\n"
    )
    assert _stale_exports(tree) == ["Gone"]
    init = ast.parse("from .m import f, Gone\nfrom .n import h\nfrom math import tau\n")
    assert _unexported_imports(init, {"m": ["f"]}) == [("m", "Gone"), ("n", "h")]


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


_GAMMA = {
    "math": {"lgamma", "gamma"},
    "scipy.special": {"gamma", "gammaln", "loggamma", "gammasgn", "beta", "poch"},
}


def _dotted(node, modules):
    # the module a Name or an attribute chain refers to, if it is one
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, modules)
        return base and f"{base}.{node.attr}"
    return None


def _imports(tree):
    # local name -> the module, or module attribute, an import binds it to
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    modules[top] = top
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return modules


def _imported_from(tree, module, names):
    # lines of the `from module import ...` statements that import one of names
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == module
        and any(alias.name in names for alias in node.names)
    ]


def _gamma_uses(tree):
    """Lines that import or name a double-precision gamma function."""
    modules = _imports(tree)
    bad = [line for module, names in _GAMMA.items() for line in _imported_from(tree, module, names)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _GAMMA.get(
            _dotted(node.value, modules), ()
        ):
            bad.append(node.lineno)
    return sorted(bad)


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "numerics.py"], ids=lambda p: p.name
)
def test_one_double_gamma_kernel(path):
    assert _gamma_uses(ast.parse(path.read_text())) == []


def test_scan_sees_a_gamma_call():
    tree = ast.parse(
        "import math\n"
        "import math as m\n"
        "import scipy.special as sc\n"
        "from scipy.special import gammaln, roots_jacobi\n"
        "from scipy import special\n"
        "import mpmath as mp\n"
        "import scipy\n"
        "a = math.lgamma(2.0) + math.log(2.0)\n"
        "b = m.gamma(2.0)\n"
        "c = sc.beta(1.0, 2.0) + sc.roots_jacobi\n"
        "d = special.poch(1.0, 2)\n"
        "e = mp.gamma(2) + mp.loggamma(2) + roots_jacobi\n"
        "f = scipy.special.gammasgn(-0.5)\n"
    )
    assert _gamma_uses(tree) == [4, 8, 9, 10, 11, 13]


# the functions of polynomials.py that may name gamma_ratio: the chain, whose
# head forms q_t's arguments, the leading coefficient, which reads them at
# t = N, and the three public normalizers
_GAMMA_RATIO_CALLERS = {
    "_chain", "leading_coefficient", "diagonal_normalizer", "up_normalizer", "down_normalizer"
}
# the one function that may name log_gamma_factor: the chain, which sums its
# factor's log-gammas once for all of its heads
_FACTOR_CALLERS = {"_chain"}


def _stray_names(tree, name, callers):
    """Lines that name ``name`` outside the module-level functions
    ``callers`` lists, or in a function or lambda nested in one."""
    allowed = set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in callers:
            nested = [
                node for node in ast.walk(fn)
                if node is not fn and isinstance(node, (ast.FunctionDef, ast.Lambda))
            ]
            allowed.update(set(ast.walk(fn)).difference(*map(ast.walk, nested)))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if _name(node) == name and node not in allowed
    )


def _stray_gamma_ratios(tree):
    return _stray_names(tree, "gamma_ratio", _GAMMA_RATIO_CALLERS)


def _stray_factors(tree):
    return _stray_names(tree, "log_gamma_factor", _FACTOR_CALLERS)


def test_one_head_formula():
    assert _stray_gamma_ratios(ast.parse((SRC / "polynomials.py").read_text())) == []


def test_one_factor_per_chain():
    assert _stray_factors(ast.parse((SRC / "polynomials.py").read_text())) == []


def test_scan_sees_a_gamma_ratio_outside_the_head():
    tree = ast.parse(
        "from .numerics import gamma_ratio\n"
        "def _chain(N):\n"
        "    x = gamma_ratio([N], [])\n"
        "    def head(t):\n"
        "        return gamma_ratio([t], [])\n"
        "    return x + (lambda t: numerics.gamma_ratio([t], []))(N)\n"
        "def up_normalizer(n):\n"
        "    return numerics.gamma_ratio([n], [])\n"
        "def _up_combos(n):\n"
        "    return partial(gamma_ratio, [n])\n"
        "class K:\n"
        "    def leading_coefficient(self, n):\n"
        "        return gamma_ratio([n], [])\n"
        "y = gamma_ratio([1.0], [])\n"
    )
    assert _stray_gamma_ratios(tree) == [5, 6, 10, 13, 14]


def test_scan_sees_a_log_gamma_factor_outside_the_chain():
    tree = ast.parse(
        "from .numerics import gamma_ratio, log_gamma_factor\n"
        "def _chain(N, factor):\n"
        "    f = log_gamma_factor(*factor)\n"
        "    def head(t):\n"
        "        return log_gamma_factor([t], [])\n"
        "    return gamma_ratio([N], [], f)\n"
        "def _up_combos(n):\n"
        "    return numerics.log_gamma_factor([n], [])\n"
        "def leading_coefficient(n):\n"
        "    return gamma_ratio([n], [], log_gamma_factor([n], []))\n"
        "z = log_gamma_factor([1.0], [])\n"
    )
    assert _stray_factors(tree) == [5, 8, 10, 11]


_MASKED_DIVISIONS = {"divide", "true_divide", "where"}


def _residual_arithmetic(tree):
    """Lines of every call of a numpy division or ``where``, and of every
    call that passes a ``where=`` mask."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            _name(node.func) in _MASKED_DIVISIONS
            or any(k.arg == "where" for k in node.keywords)
        )
    )


@pytest.mark.parametrize("name", ["operators.py", "recurrence.py"])
def test_one_residual_kernel(name):
    assert _residual_arithmetic(ast.parse((SRC / name).read_text())) == []


def test_scan_sees_residual_arithmetic_outside_the_kernel():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy import divide\n"
        "a = np.divide(x, y, out=z, where=y > 0)\n"
        "b = divide(x, y) + x / y\n"
        "c = np.abs(x).max(axis=0, where=m, initial=0.0)\n"
        "d = np.true_divide(x, y) + np.where(y > 0, x, 0.0)\n"
        "e = identity_residual(terms).max(axis=(1, 2))\n"
    )
    assert _residual_arithmetic(tree) == [3, 4, 5, 6, 6]


def _is_trap(decorator):
    return _name(getattr(decorator, "func", decorator)) == "overflow_trap"


def _untrapped_products(tree):
    """Lines of every ``@`` product outside a function decorated with
    ``overflow_trap(...)``: at module level, in a lambda, or in a function
    without the decorator, nested ones included (they may run after the
    trap is left)."""
    bad = []

    def visit(node, trapped):
        for child in ast.iter_child_nodes(node):
            inner = trapped
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = any(map(_is_trap, child.decorator_list))
            elif isinstance(child, ast.Lambda):
                inner = False
            elif isinstance(getattr(child, "op", None), ast.MatMult) and not trapped:
                bad.append(child.lineno)
            visit(child, inner)

    visit(tree, False)
    return sorted(bad)


def test_oracle_products_are_trapped():
    assert _untrapped_products(ast.parse((SRC / "orthogonality.py").read_text())) == []


def test_scan_sees_an_untrapped_product():
    tree = ast.parse(
        "from .numerics import overflow_trap\n"
        "@overflow_trap('a term')\n"
        "def a(h, c):\n"
        "    return h @ c\n"
        "def b(h, c):\n"
        "    return (h @ c).sum()\n"
        "@numerics.overflow_trap('a term')\n"
        "def c(h, c):\n"
        "    def d(x):\n"
        "        return x @ c\n"
        "    h @= c\n"
        "    return d, h * c\n"
        "@lru_cache(maxsize=4)\n"
        "def e(h):\n"
        "    return (lambda x: x @ x)(h)\n"
        "f = g @ g\n"
    )
    assert _untrapped_products(tree) == [6, 10, 15, 16]


_NP_TRANSCENDENTALS = {"sin", "cos", "tan", "log", "exp", "hypot", "power"}


def _exempt_from_libm(tree):
    # the nodes of _certified_steps and of the polyfit arguments in
    # endpoint_exponents
    exempt = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "_certified_steps":
            exempt.update(ast.walk(fn))
        elif isinstance(fn, ast.FunctionDef) and fn.name == "endpoint_exponents":
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and _name(call.func) == "polyfit":
                    for arg in call.args:
                        exempt.update(ast.walk(arg))
    return exempt


def _numpy_transcendentals(tree):
    """Lines that import or name a numpy transcendental, or pass numpy to a
    function (as ``lib``), outside the nodes ``_exempt_from_libm`` allows."""
    modules, exempt = _imports(tree), _exempt_from_libm(tree)
    bad = _imported_from(tree, "numpy", _NP_TRANSCENDENTALS)
    for node in ast.walk(tree):
        if node in exempt:
            continue
        if isinstance(node, ast.Attribute) and node.attr in _NP_TRANSCENDENTALS:
            if _dotted(node.value, modules) == "numpy":
                bad.append(node.lineno)
        elif isinstance(node, ast.Call):
            args = [*node.args, *(k.value for k in node.keywords)]
            if any(_dotted(arg, modules) == "numpy" for arg in args):
                bad.append(node.lineno)
    return sorted(bad)


def test_limit_density_takes_transcendentals_from_libm():
    assert _numpy_transcendentals(ast.parse((SRC / "asymptotics.py").read_text())) == []


def test_scan_sees_a_numpy_transcendental():
    tree = ast.parse(
        "import math\n"
        "import numpy as np\n"
        "import numpy\n"
        "from numpy import hypot, where\n"
        "a = np.sin(x) + math.sin(y) + np.where(x, 1, 2)\n"
        "b = numpy.power(x, 2) + np.abs(x)\n"
        "c = f(x, r, np) + f(x, r, lib=np) + f(x, r, lib=math)\n"
        "def _certified_steps(x):\n"
        "    return np.log(x) + f(x, np)\n"
        "def endpoint_exponents(x):\n"
        "    s = np.polyfit(np.log(x), np.log(u), 1)\n"
        "    return s + np.exp(x)\n"
        "d = np.polyfit(np.log(x), np.tan(x), 1) + np.random.random()\n"
    )
    assert _numpy_transcendentals(tree) == [4, 5, 6, 7, 7, 12, 13, 13]


_LIBRARY_ERRORS = {"DegenerateParameters", "DoubleRangeError", "DegreeCapError", "ZeroFindingError"}


def _caught(handler):
    # the names of the exceptions an except clause catches
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {_name(t) for t in types if t is not None}


def _stray_library_handlers(tree):
    """Lines of the except clauses that catch a library exception outside
    ``main``, other than a clause of ``_cmd_verify`` that catches only
    ``ZeroFindingError``."""
    allowed = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "main":
            allowed.update(ast.walk(fn))
        elif isinstance(fn, ast.FunctionDef) and fn.name == "_cmd_verify":
            allowed.update(
                h for h in ast.walk(fn)
                if isinstance(h, ast.ExceptHandler) and _caught(h) == {"ZeroFindingError"}
            )
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and node not in allowed
        and _caught(node) & _LIBRARY_ERRORS
    )


def test_cli_maps_library_exceptions_in_main_only():
    assert _stray_library_handlers(ast.parse((SRC / "cli.py").read_text())) == []


def test_scan_sees_a_library_exception_caught_outside_main():
    tree = ast.parse(
        "def _cmd_zeros(args):\n"
        "    try:\n"
        "        pass\n"
        "    except DegreeCapError:\n"
        "        pass\n"
        "    except (OSError, zeros.ZeroFindingError):\n"
        "        pass\n"
        "    except ValueError:\n"
        "        pass\n"
        "def _cmd_verify(args):\n"
        "    def residual_for(n):\n"
        "        try:\n"
        "            pass\n"
        "        except ZeroFindingError:\n"
        "            pass\n"
        "        except (ZeroFindingError, DoubleRangeError):\n"
        "            pass\n"
        "def main(argv=None):\n"
        "    try:\n"
        "        pass\n"
        "    except DegenerateParameters:\n"
        "        pass\n"
        "    except (DoubleRangeError, DegreeCapError, ZeroFindingError):\n"
        "        pass\n"
        "try:\n"
        "    pass\n"
        "except DegenerateParameters:\n"
        "    pass\n"
    )
    assert _stray_library_handlers(tree) == [4, 6, 16, 27]


def _fresh(code, *args):
    # run code in a new interpreter that imports the library from src/
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )


def test_cli_import_loads_no_scipy():
    done = _fresh(
        "import sys, angelesco.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
    )
    assert done.stdout.splitlines() == ["[]", "[]"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("zeros --r 2 --n 13", "4571d0cd436feb49"),
        ("verify --suite zeros --r 2 --n-max 2", "064820a75c3eef16"),
    ],
)
def test_zeros_load_mpmath_on_demand(argv, digest):
    # the commands that run extended precision import mpmath when they run
    # it, and print the bytes they printed with mpmath loaded up front
    done = _fresh(
        "import sys\n"
        "from angelesco.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(*(m for m in ('mpmath', 'scipy') if m in sys.modules), file=sys.stderr)\n"
        "sys.exit(code)",
        *argv.split(),
    )
    assert done.stderr == "mpmath\n"
    assert hashlib.sha256(done.stdout.encode()).hexdigest()[:16] == digest
