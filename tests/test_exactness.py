"""Arithmetic stays exact: no float division in the polynomial layers, no float
in a report, and no verification that ``python -O`` could strip."""

import ast
import io
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import isurf
from isurf import cli
from isurf.poly import PolyRing

from oracles import evaluate

PACKAGE = Path(isurf.__file__).resolve().parent
# coefficients are ints until a division, and int / int is a float
POLYNOMIAL_LAYERS = ("poly", "series", "rings", "toric", "wps", "skew")


def float_divisions(source: str) -> list[int]:
    """Lines of each ``/`` outside the one function allowed to divide,
    ``exact_quotient``."""
    tree = ast.parse(source)
    allowed = {id(node)
               for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name == "exact_quotient"
               for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div) and id(node) not in allowed)


@pytest.mark.parametrize("module", POLYNOMIAL_LAYERS)
def test_no_division_outside_exact_quotient(module):
    assert float_divisions((PACKAGE / f"{module}.py").read_text()) == []


def test_division_checker_sees_every_kind_of_division():
    source = ("def exact_quotient(a, b):\n"
              "    return a / b\n"
              "x = 1 / c\n"
              "y //= 2\n"
              "y /= c\n")
    assert float_divisions(source) == [3, 5]


def test_evaluate_at_a_negative_power_stays_a_fraction():
    ring = PolyRing.of("x", "t").with_invertible("t")
    value = evaluate(ring.parse("x*t^-2 + 1"), {"x": 3, "t": 2})
    assert type(value) is Fraction and value == Fraction(7, 4)


def _no_float(literal):
    raise AssertionError(f"float {literal} in the report")


def test_no_float_reaches_a_report():
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["--all", "--seed", "0", "--format", "json"]) == 0
    report = json.loads(out.getvalue(), parse_float=_no_float, parse_constant=_no_float)
    # checks hold their values as text, so a float would show as its repr
    texts = [str(c[k]) for r in report["scenarios"] for c in r["checks"]
             for k in ("expected", "actual")]
    assert texts and not [t for t in texts if re.search(r"\d\.\d|\d[eE]-?\d|\b(inf|nan)\b", t)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_in_the_package(path):
    tree = ast.parse(path.read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []
