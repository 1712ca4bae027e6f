"""Key-value weight-spec files.

Two kinds:

    kind = explicit
    sq = [1/2, 1, 5/4]
    tail = ones | xi(w2sq=5/4)

    kind = family
    x = 1/10

Rationals use the 'p/q' syntax everywhere, read by ``parse_literal`` (a
plain p/q by int(), see ``parse_rat``); '#' starts a comment.  The tail
defaults to ones when omitted.  Every rational is capped at MAX_LITERAL
characters written as p/q, as the CLI's --x is, and a file at
MAX_SPEC_CHARS characters: the cost of reading one grows with its length.
"""

from __future__ import annotations

import re

from .family import FamilyParam, family_weights
from .operators import ConstantTail, SquaredWeights, XiTail
from .rational import parse_literal

_XI_RE = re.compile(r"^xi\(\s*w2sq\s*=\s*([^)]+)\)$")
MAX_SPEC_CHARS = 65536


def parse_weight_spec(text: str) -> SquaredWeights:
    pairs = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise ValueError(f"duplicate key {key!r}")
        pairs[key] = value.strip()

    kind = pairs.pop("kind", None)
    if kind == "family":
        if set(pairs) != {"x"}:
            raise ValueError("family specs take exactly one key: x")
        return family_weights(FamilyParam(parse_literal("x", pairs["x"])))
    if kind != "explicit":
        raise ValueError(f"kind must be 'explicit' or 'family', got {kind!r}")

    if "sq" not in pairs:
        raise ValueError("explicit specs require sq = [ ... ]")
    sq_text = pairs.pop("sq")
    if not (sq_text.startswith("[") and sq_text.endswith("]")):
        raise ValueError("sq must be a bracketed list, e.g. sq = [1/2, 1]")
    body = sq_text[1:-1].strip()
    tokens = body.split(",") if body else ()
    head = tuple([parse_literal(f"sq[{n}]", t) for n, t in enumerate(tokens)])
    if not head:
        raise ValueError("sq needs at least one entry")

    tail_text = pairs.pop("tail", "ones")
    if pairs:
        raise ValueError(f"unknown keys: {sorted(pairs)}")
    if tail_text == "ones":
        tail = ConstantTail(1)
    else:
        match = _XI_RE.match(tail_text)
        if not match:
            raise ValueError(f"tail must be 'ones' or 'xi(w2sq=p/q)', got {tail_text!r}")
        tail = XiTail(parse_literal("w2sq", match.group(1)))
    return SquaredWeights(head, tail)


def load_weight_spec(path) -> SquaredWeights:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read(MAX_SPEC_CHARS + 1)
    if len(text) > MAX_SPEC_CHARS:
        raise ValueError(f"a weight-spec file must hold at most {MAX_SPEC_CHARS} "
                         f"characters, got more than {MAX_SPEC_CHARS}")
    return parse_weight_spec(text)
