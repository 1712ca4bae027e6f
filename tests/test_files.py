import re
from fractions import Fraction as F

import pytest

from circuitdual.files import load_weight_spec, parse_weight_spec
from circuitdual.operators import ConstantTail, XiTail
from circuitdual.rational import MAX_LITERAL
from ref_oracle import prefix


def test_parse_explicit_with_ones_tail():
    w = parse_weight_spec("kind = explicit\nsq = [1/2, 1, 5/4]\n")
    assert w.head == (F(1, 2), F(1), F(5, 4))
    assert w.tail == ConstantTail(F(1))
    assert w.sq(7) == 1


def test_parse_explicit_with_xi_tail():
    w = parse_weight_spec(
        "# family head, spelled out\n"
        "kind = explicit\n"
        "sq = [1/2, 1, 5/4]\n"
        "tail = xi(w2sq=5/4)\n"
    )
    assert w.tail == XiTail(F(5, 4))
    assert w.sq(3) == F(6, 5)


def test_parse_family_delegates():
    w = parse_weight_spec("kind = family\nx = 1/2\n")
    assert prefix(w, 3) == (F(1, 2), F(1), F(5, 4))


@pytest.mark.parametrize(
    "text",
    [
        "sq = [1]\n",                                   # missing kind
        "kind = banana\n",
        "kind = family\n",                              # missing x
        "kind = family\nx = 1/2\nsq = [1]\n",
        "kind = explicit\n",                            # missing sq
        "kind = explicit\nsq = 1, 2\n",                 # not bracketed
        "kind = explicit\nsq = []\n",
        "kind = explicit\nsq = [1]\ntail = xi(5/4)\n",  # bad tail syntax
        "kind = explicit\nsq = [1]\nsq = [2]\n",        # duplicate key
        "kind = explicit\nsq = [1, 1]\ncolour = red\n",
        "kind = explicit\nsq = [1, 1, 3]\ntail = xi(w2sq=2)\n",  # rule conflict
        "no equals sign",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_weight_spec(text)


@pytest.mark.parametrize("text, name", [
    ("kind = family\nx = {}\n", "x"),
    ("kind = explicit\nsq = [1, {}]\n", "sq[1]"),
    ("kind = explicit\nsq = [1, 1]\ntail = xi(w2sq={})\n", "w2sq"),
])
def test_parse_caps_literals(text, name):
    # MAX_LITERAL characters as p/q are accepted, one more is refused
    parse_weight_spec(text.format(10 ** (MAX_LITERAL - 1)))
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be at most "
                       rf"{MAX_LITERAL} characters, got {MAX_LITERAL + 1}$"):
        parse_weight_spec(text.format(10 ** MAX_LITERAL))


def test_load_from_disk(tmp_path):
    path = tmp_path / "w.cdl"
    path.write_text("kind = explicit\nsq = [1, 1]\ntail = ones\n")
    assert load_weight_spec(path).alpha == 2
