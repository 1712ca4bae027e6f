"""No module of the package builds a tuple from a generator expression.

In CPython 3.11, ``tuple(<generator>)`` starts a tuple of 10 slots and
resizes it as items arrive, so a result of 11 to 19 items is never taken
from the free list of its size; yet when it is freed it goes onto that
list, which keeps up to 2,000 tuples per size and empties only at a full
collection.  A process that runs many commands without a full collection
(one argparse tree for every ``main`` call makes little cyclic garbage)
then holds those tuples as resident memory: 792 KiB of them from one
``oracle`` line over 120 in-process passes of the moment checks.
``tuple(<list>)`` allocates at the final size and reuses the free list.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "circuitdual"
MODULES = sorted(PACKAGE.glob("*.py"))


def tuple_generator_calls(source: str) -> list:
    """Line numbers of ``tuple(<generator expression>)`` calls in source."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and len(node.args) == 1
        and not node.keywords
        and isinstance(node.args[0], ast.GeneratorExp)
    ]


def test_the_check_sees_a_generator_and_passes_a_list():
    assert tuple_generator_calls("t = tuple(\n    x for x in y\n)\n") == [1]
    assert tuple_generator_calls("t = tuple([x for x in y])\nu = tuple(y)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tuple_from_a_generator(path):
    assert tuple_generator_calls(path.read_text(encoding="utf-8")) == [], path.name
