"""No isurf module uses a private (``_``-prefixed) name of another isurf module."""

import ast
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
