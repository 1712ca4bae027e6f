"""No module of the package asks which tail class a weight sequence has,
except where that is the question.

Every tail is one linear-fractional rule sq(n) = (u0 + u1 n) / (v0 + v1 n)
past the head.  ``SquaredWeights.__post_init__`` builds the rule from the
tail class, and ``dual_weights`` maps each class to its dual's class; every
other query reads the rule, so an ``isinstance`` against a tail class
anywhere else is a second copy of a per-kind answer.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "circuitdual"
MODULES = sorted(PACKAGE.glob("*.py"))
TAIL_CLASSES = {"ConstantTail", "XiTail", "ReciprocalXiTail"}
ALLOWED = {"SquaredWeights.__post_init__", "dual_weights"}


def _names(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def tail_class_checks(source: str) -> list:
    """(enclosing definition, line) of each ``isinstance`` against a tail class."""
    found = []

    def visit(node: ast.AST, scope: tuple):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and len(child.args) == 2
                and _names(child.args[1]) & TAIL_CLASSES
            ):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_check_sees_each_site_in_its_definition():
    source = (
        "class W:\n"
        "    def f(self):\n"
        "        return isinstance(self.tail, (XiTail, ops.ReciprocalXiTail))\n"
        "def g(t):\n"
        "    ok = isinstance(t, int)\n"
        "    return [isinstance(t, ConstantTail) for _ in ok]\n"
        "isinstance(t, XiTail)\n"
    )
    assert tail_class_checks(source) == [("W.f", 3), ("g", 6), ("", 7)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_tail_class_is_read_once(path):
    sites = tail_class_checks(path.read_text(encoding="utf-8"))
    assert [site for site in sites if site[0] not in ALLOWED] == [], path.name
