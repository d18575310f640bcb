"""No isurf module uses a private (``_``-prefixed) name of another isurf module
or imports anything outside the standard library, only ``poly`` and
``series`` build polynomials from raw terms, every defaulted parameter of
a package function is passed by some caller and omitted by another, each
exception class is one that some code reads, and each function is named
outside its own body."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import isurf

MODULES = sorted(Path(isurf.__file__).resolve().parent.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str) -> list[str]:
    """``line: module.name`` for each private name of an isurf module that the
    source imports, or reads as an attribute of an isurf module it imported or
    of a name it imported from one (such as a class)."""
    tree = ast.parse(source)
    modules: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source_module = node.module or ""
            if node.level == 0 and source_module.split(".")[0] != "isurf":
                continue
            target = source_module.split(".")[-1]
            for alias in node.names:
                if target in ("", "isurf"):
                    # ``from . import rings``: names bound from the package
                    modules.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    found.append(f"{node.lineno}: {target}.{alias.name}")
                else:
                    # ``from .poly import ExactPolynomial``
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "isurf":
                    modules.add(alias.asname or "isurf")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr) \
                and isinstance(node.value, ast.Name) and node.value.id in modules:
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_across_modules(path):
    assert private_uses(path.read_text()) == []


def test_checker_sees_both_kinds_of_use():
    source = ("from . import rings as r\n"
              "from .lattice import _det, gale_rays\n"
              "x = r._binary_form_at\n"
              "y = r.relative_sextic\n"
              "from .poly import ExactPolynomial as P\n"
              "z = P._closed(ring, {}) + P.unchecked(ring, {})\n")
    assert private_uses(source) == ["2: lattice._det", "3: r._binary_form_at", "6: P._closed"]


def polynomial_constructions(source: str) -> list[str]:
    """``line: call`` for each call of ``ExactPolynomial(...)``, which stores
    raw terms unchecked."""
    return sorted(f"{node.lineno}: ExactPolynomial" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "ExactPolynomial")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in ("poly.py", "series.py")],
                         ids=lambda p: p.name)
def test_only_poly_and_series_build_polynomials_from_raw_terms(path):
    """Other modules read and build polynomials through ``poly``'s operations
    (``coefficients_in``, ``exact_divide``, ``PolyRing.monomial`` ...)."""
    assert polynomial_constructions(path.read_text()) == []


def test_construction_checker_sees_direct_constructor_calls():
    source = ("from .poly import ExactPolynomial, PolyRing\n"
              "a = ExactPolynomial(ring, {(1,): 2})\n"
              "c = PolyRing.of('x').monomial({'x': 1}) + ring.from_terms({})\n"
              "d = isinstance(a, ExactPolynomial) and other.ExactPolynomial(ring, {})\n")
    assert polynomial_constructions(source) == ["2: ExactPolynomial"]


ERRORS = Path(isurf.__file__).resolve().parent / "errors.py"

# Outcomes on valid input that no package code catches yet; each is kept so
# that a caller can tell it from bad input.
OUTCOMES = {
    "NotSolvable": "solve_system meets a system its chord sweeps cannot solve: an outcome, not bad input",
    "CertificateFailed": "an exact certificate does not verify: an outcome, not bad input",
}


def unread_error_classes(errors_source: str, sources: list[str]) -> list[str]:
    """The classes of ``errors_source`` that no ``except`` in ``sources``
    names and that define no ``__init__`` (carry no data), other than the
    two bases and the ``OUTCOMES``."""
    caught = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None)
                              for t in types)
    return sorted(node.name for node in ast.parse(errors_source).body
                  if isinstance(node, ast.ClassDef)
                  and node.name not in {"IsurfError", "InvalidInput", *caught, *OUTCOMES}
                  and not any(isinstance(f, ast.FunctionDef) and f.name == "__init__"
                              for f in node.body))


def value_error_raises(source: str) -> list[int]:
    """The lines that raise ``ValueError`` itself."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise) and node.exc is not None
                  and getattr(getattr(node.exc, "func", node.exc), "id", None) == "ValueError")


def test_bad_input_is_one_exception_and_every_error_class_is_read():
    package = {p.name: p.read_text() for p in MODULES}
    assert unread_error_classes(ERRORS.read_text(), list(package.values())) == []
    assert {name: lines for name, source in package.items() if name != "cli.py"
            for lines in [value_error_raises(source)] if lines} == {}


def test_taxonomy_checkers_see_excepts_data_outcomes_and_raises():
    errors = ("class IsurfError(Exception): pass\n"
              "class InvalidInput(IsurfError, ValueError): pass\n"
              "class Caught(InvalidInput): pass\n"
              "class AlsoCaught(IsurfError): pass\n"
              "class Carries(InvalidInput):\n"
              "    def __init__(self, message, position):\n"
              "        super().__init__(message)\n"
              "class NotSolvable(IsurfError): pass\n"
              "class Unread(InvalidInput): pass\n"
              "class OnlyRaised(IsurfError): pass\n")
    sources = ["try:\n    f()\nexcept Caught:\n    pass\n"
               "except (errors.AlsoCaught, KeyError) as exc:\n    pass\n",
               "raise OnlyRaised('x')\n"]
    assert unread_error_classes(errors, sources) == ["OnlyRaised", "Unread"]
    assert value_error_raises("raise ValueError('a')\nraise ValueError\n"
                              "raise InvalidInput('b')\nraise\n"
                              "raise errors.ValueError('c')\n") == [1, 2]


def imported_roots(source: str) -> set[str]:
    """The top-level names of the modules the source imports by absolute name."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library(path):
    # sympy is a test oracle (tests/test_sympy_oracle.py), not a dependency
    assert imported_roots(path.read_text()) - {"isurf"} <= sys.stdlib_module_names


def test_import_checker_sees_plain_dotted_and_from_imports():
    source = ("import sympy.polys as sp\n"
              "def f():\n"
              "    from sympy import QQ\n"
              "import fractions, os.path\n"
              "from . import poly\n"
              "from .errors import ParseError\n")
    assert imported_roots(source) == {"sympy", "fractions", "os"}


PERFBENCH = sorted(p for p in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")
                   if not p.name.startswith("test_"))


def _defaulted_parameters(tree: ast.Module, module: str):
    """(callee name, label, positional index or None, name) per parameter with
    a default; a method's index skips ``self``/``cls``, and ``__init__`` is
    called by its class's name."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls and not static else 0
                callee = cls if cls and child.name == "__init__" else child.name
                label = f"{module}.{cls + '.' if cls else ''}{child.name}"
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    out.append((callee, label, i - skip, arg.arg))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((callee, label, None, arg.arg))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _calls(sources: list[str]) -> dict[str, list[tuple[int, set[str], bool, bool]]]:
    """Per called name, each call's number of positional arguments, its
    keywords, and whether it passes ``*`` and ``**`` arguments."""
    calls: dict[str, list[tuple[int, set[str], bool, bool]]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is not None:
                calls.setdefault(name, []).append((
                    len(node.args), {k.arg for k in node.keywords},
                    any(isinstance(a, ast.Starred) for a in node.args),
                    any(k.arg is None for k in node.keywords)))
    return calls


def _defaults_flagged(package: dict[str, str], callers: list[str], flag) -> list[str]:
    """``module.function(parameter)`` for each defaulted parameter of a package
    function for which ``flag`` holds of the list, over the calls in the
    package and in ``callers``, of whether each call may pass it: by position
    or keyword, through ``**``, or through ``*`` if it is positional.  Calls
    match by the called name."""
    calls = _calls([*package.values(), *callers])
    found = []
    for module, source in package.items():
        for callee, label, index, param in _defaulted_parameters(ast.parse(source), module):
            passes = [double_star or param in keywords
                      or index is not None and (star or count > index)
                      for count, keywords, star, double_star in calls.get(callee, ())]
            if flag(passes):
                found.append(f"{label}({param})")
    return sorted(found)


def unused_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """The defaulted parameters that no call passes."""
    return _defaults_flagged(package, callers, lambda passes: not any(passes))


def defaults_no_call_omits(package: dict[str, str], callers: list[str]) -> list[str]:
    """The defaulted parameters that every call passes, so that nothing but
    tests relies on the default."""
    return _defaults_flagged(package, callers, all)


def test_every_defaulted_parameter_is_passed_somewhere():
    package = {p.stem: p.read_text() for p in MODULES}
    assert unused_defaults(package, [p.read_text() for p in PERFBENCH]) == []


def test_checker_sees_positional_keyword_and_star_passes():
    package = {"m": ("def f(a, b=1, c=2, *, d=3):\n"
                     "    g(1)\n"
                     "def g(x, y=0):\n"
                     "    return h(*x)\n"
                     "def h(z=0):\n"
                     "    return z\n"
                     "class K:\n"
                     "    def __init__(self, p=0, q=1):\n"
                     "        f(1, 2, d=4)\n"
                     "    def m(self, r=0):\n"
                     "        K(5)\n"),
               "n": "f(0)\nK().m(**{})\n"}
    assert unused_defaults(package, []) == ["m.K.__init__(q)", "m.f(c)", "m.g(y)"]
    assert unused_defaults(package, ["g(1, 2)\nf(1, c=3)\nK(q=1)\n"]) == []


def test_every_defaulted_parameter_is_omitted_somewhere():
    """Calls match by name, so this cannot see ``wps.TwoSingularityFamily.of`` (other
    ``of`` methods share the name) or ``scenarios.run`` (``subprocess.run``
    shares it); both take their arguments without defaults, checked by
    reading."""
    package = {p.stem: p.read_text() for p in MODULES}
    assert defaults_no_call_omits(package, [p.read_text() for p in PERFBENCH]) == []


def test_checker_sees_omitted_keyword_and_star_calls():
    package = {"m": ("def f(a, b=1, c=2, *, d=3):\n"
                     "    g(1, 2)\n"
                     "def g(x, y=0):\n"
                     "    return h(*x)\n"
                     "def h(z=0, *, w=1):\n"
                     "    return z\n"
                     "class K:\n"
                     "    def __init__(self, p=0, q=1):\n"
                     "        f(1, 2, d=4)\n"
                     "    def m(self, r=0):\n"
                     "        K(5, q=2)\n"),
               "n": "f(0, c=1, d=2)\nK(1, 2).m(**{})\n"}
    assert defaults_no_call_omits(package, []) == \
        ["m.K.__init__(p)", "m.K.__init__(q)", "m.K.m(r)", "m.f(d)", "m.g(y)", "m.h(z)"]
    assert defaults_no_call_omits(package, ["f(1)\ng(1)\nh(w=0)\nK(q=1)\nK().m()\n"]) == []


# Functions that nothing in the package names, kept because ``perfbench`` pins
# them (ROADMAP item 2 frees them).
PINNED_BY_THE_BENCHMARK = {
    "lattice.LatticeCone.nonnegative_solutions": "perfbench/workloads.py builds its cones with it",
    "series.TruncatedSeries.inverse": "perfbench/tracer.py times it",
}


def unnamed_definitions(package: dict[str, str]) -> list[str]:
    """``module.Class.function`` for each function or method of the package
    that no name, attribute or import names outside its own body, other than
    dunders and the ``@scenario`` runners (the registry runs them).  Names
    match by spelling alone, so this cannot see a method whose name another
    one shares, such as ``IntegerMatrix.of`` beside ``PolyRing.of``."""
    uses = []
    for module, source in package.items():
        for node in ast.walk(ast.parse(source)):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else \
                node.name if isinstance(node, ast.alias) else None
            if name is not None:
                uses.append((module, name, node.lineno))
    found = []

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                runner = any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "scenario"
                             for d in child.decorator_list)
                named = any(n == name and (m != module or not child.lineno <= line <= child.end_lineno)
                            for m, n, line in uses)
                if not (name.startswith("__") and name.endswith("__") or runner or named):
                    found.append(f"{module}.{prefix}{name}")
                visit(child, module, f"{prefix}{name}.")
            else:
                visit(child, module, prefix)

    for module, source in package.items():
        visit(ast.parse(source), module, "")
    return sorted(found)


def test_every_function_is_named_outside_its_own_body():
    package = {p.stem: p.read_text() for p in MODULES}
    assert unnamed_definitions(package) == sorted(PINNED_BY_THE_BENCHMARK)


def test_unnamed_definition_checker_sees_calls_attributes_imports_and_recursion():
    package = {"m": ("from .n import imported\n"
                     "def called():\n"
                     "    def inner():\n"
                     "        return 1\n"
                     "    return inner()\n"
                     "def only_recursive(k):\n"
                     "    return only_recursive(k - 1)\n"
                     "def unused():\n"
                     "    return called()\n"
                     "@scenario('x', (), '', ())\n"
                     "def _runner(params):\n"
                     "    return []\n"
                     "class K:\n"
                     "    def __eq__(self, other):\n"
                     "        return self.method() is other\n"
                     "    def method(self):\n"
                     "        return 0\n"
                     "    def dead(self):\n"
                     "        return 0\n"),
               "n": "def imported():\n    return K.elsewhere\nclass L:\n    def elsewhere(self):\n"
                    "        return 0\n"}
    assert unnamed_definitions(package) == ["m.K.dead", "m.only_recursive", "m.unused"]


def test_a_fresh_cli_import_loads_no_dataclasses_inspect_or_traceback():
    """Each ``isurf --all`` run is a fresh process that pays for every module
    it imports; the package needs none of these three."""
    code = ("import sys, isurf.cli\n"
            "print(*(m for m in ('dataclasses', 'inspect', 'traceback') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def test_a_fresh_cli_import_without_site_loads_no_importlib_resources_or_zipfile():
    """Fixtures are read by path: on a host whose ``site`` does not preload
    them (here ``python -S``), these modules would cost each fresh process."""
    src = Path(isurf.__file__).resolve().parents[1]
    code = (f"import sys\nsys.path.insert(0, {str(src)!r})\nimport isurf.cli\n"
            "print(*(m for m in ('importlib.resources', 'zipfile') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
