"""Every number a caller hands the exact path converts through one gate.

``rational._as_fraction`` takes ints and Fractions and refuses floats.  A
bare ``Fraction(value)`` on a caller's value elsewhere in the package would
turn a float into its binary fraction instead, so outside ``rational.py``
no one-argument ``Fraction`` call takes a name or an attribute.  Calls on
literals and on arithmetic the package does itself (``Fraction(1)``,
``Fraction(p, q)``) stay allowed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "circuitdual"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "rational.py")


def bare_conversions(source: str) -> list:
    """Line of each ``Fraction(<name or attribute>)`` call."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
        and len(node.args) == 1
        and not node.keywords
        and isinstance(node.args[0], (ast.Name, ast.Attribute))
    ]


def test_the_check_sees_each_bare_conversion():
    source = (
        "a = Fraction(v)\n"
        "b = Fraction(self.value)\n"
        "c = [Fraction(1), Fraction(p, q), Fraction(x * 2), _as_fraction(v)]\n"
        "d = tuple([Fraction(v) for v in head])\n"
    )
    assert sorted(bare_conversions(source)) == [1, 2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_caller_values_go_through_the_gate(path):
    assert bare_conversions(path.read_text(encoding="utf-8")) == [], path.name
