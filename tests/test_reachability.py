"""Every ``def`` in src/circuitdual is reached by a ``cdl`` run or kept for a
stated reason, so dead code cannot grow back unnoticed.

A fresh interpreter installs a profile function, then imports
``circuitdual.cli``, so what runs at import time counts (``cli._node``,
``Record.__init_subclass__``).  It runs in-process every argument list of
``tests/test_cli_golden.py``'s ``CASES`` on their fixtures, and one list for
each argparse fallback that ``cli._fast_parse``'s docstring names, and
reports the first line of every code object of the package that started.
Each ``def`` in src/, read from the AST, that none of them reached needs an
entry in ``KEPT``, and every entry must name a ``def`` that exists and was
not reached.  Each entry's reason is one of four, and is checked:

- ``acceptance gate``: tests/test_acceptance.py imports it, or it is a
  helper of such a name, whose body names it;
- ``tracer``: perfbench/tracing.py wraps it by name (``POINTS``) or reads
  it in ``_coeff_bits``, or it is a helper of such a point or of another
  tracer entry, whose body names it;
- ``README API``: README's library sketch names it;
- ``value semantics``: it is a dunder of ``Record``, ``Poly`` or ``RatFn``.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from test_cli_golden import CASES, SEQUENCES, SPECS
from test_trace_points import POINTS, tracing

from circuitdual.rational import format_rat

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "circuitdual"

ACCEPTANCE, TRACER, README, VALUE = (
    "acceptance gate", "tracer", "README API", "value semantics")

# a reason "kind: owner" keeps a helper of ``owner``, an entry of the same
# kind (or the tracer's ``_coeff_bits``) whose body names it
KEPT = {
    "family.omega_eval": ACCEPTANCE,
    "family.s_derivatives_at_zero": ACCEPTANCE,
    "family._s_series": f"{ACCEPTANCE}: family.s_derivatives_at_zero",
    "family.s_closed_form": ACCEPTANCE,
    "family.figure_rows": ACCEPTANCE,
    "moments.diff_transform": ACCEPTANCE,
    "operators.h_of": ACCEPTANCE,
    "operators.dual_moment_fiber0": ACCEPTANCE,
    "oracle.gram_diagonal": ACCEPTANCE,
    "rational.poly_gcd": TRACER,
    "rational._int_primitive": f"{TRACER}: rational.poly_gcd",
    "rational._int_pseudo_rem": f"{TRACER}: rational.poly_gcd",
    "rational.Poly.__init__": f"{TRACER}: rational.poly_gcd",
    "rational.Poly.is_zero": f"{TRACER}: rational.poly_gcd",
    "rational.Poly.monic": f"{TRACER}: rational.poly_gcd",
    "rational.Poly.leading": f"{TRACER}: rational.Poly.monic",
    "rational.RatFn.num": f"{TRACER}: _coeff_bits",
    "rational.RatFn.den": f"{TRACER}: _coeff_bits",
    "rational.RatFn.eval": TRACER,
    "rational.RatFn.taylor_at_zero": TRACER,
    "operators.is_two_isometric": README,
    "_record.Record.__eq__": VALUE,
    "_record.Record.__hash__": VALUE,
    "_record.Record._values": f"{VALUE}: _record.Record.__eq__",
    "_record.Record.__repr__": VALUE,
    "_record.Record.__setattr__": VALUE,
    "_record.Record.__delattr__": VALUE,
    "rational.Poly.__eq__": VALUE,
    "rational.Poly.__hash__": VALUE,
    "rational.Poly.__repr__": VALUE,
    "rational.Poly.__setattr__": VALUE,
    "rational.RatFn.__eq__": VALUE,
    "rational.RatFn.__hash__": VALUE,
    "rational.RatFn.__repr__": VALUE,
    "rational.RatFn.__setattr__": VALUE,
}

# one list per argparse fallback of ``cli._fast_parse``: help, a usage
# error, an abbreviation, --flag=value, --, a negative number, a repeated
# option
FALLBACKS = [
    ["--help"],
    ["family", "taylor", "--order", "4"],
    ["family", "taylor", "--m", "5", "--ord", "4"],
    ["family", "taylor", "--m=5"],
    ["moments", "check", "--", "@uniform"],
    ["family", "taylor", "--m", "-1"],
    ["family", "taylor", "--m", "5", "--m", "6"],
]

# the profile function sees every Python frame that starts; -B keeps
# bytecode out of src/, as in tests/test_trace_points.py
PROFILED_RUN = """
import contextlib, io, json, sys
package = sys.argv[1]
started = set()

def profile(frame, event, arg):
    if event == "call":
        started.add(frame.f_code)

sys.setprofile(profile)
from circuitdual import cli
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:  # argparse's help and usage errors
            pass
sys.setprofile(None)
print(json.dumps(sorted({(code.co_filename[len(package) + 1:-3], code.co_firstlineno)
                         for code in started if code.co_filename.startswith(package)})))
"""


def def_nodes(source: str, module: str) -> dict:
    """``{module.qualname: node}`` of every ``def`` in ``source``."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[f"{module}.{prefix}{child.name}"] = child
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def first_line(node) -> int:
    """The first line of a ``def``'s code object: its first decorator's."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


NODES = {name: node for path in sorted(PACKAGE.glob("*.py"))
         for name, node in def_nodes(path.read_text(encoding="utf-8"), path.stem).items()}


def unlicensed(nodes: dict, reached: set, kept: dict) -> tuple:
    """(defs neither reached nor kept, kept entries that are no ``def`` or
    were reached); ``reached`` holds (module, first line) pairs."""
    idle = {name for name, node in nodes.items()
            if (name.split(".")[0], first_line(node)) not in reached}
    return sorted(idle - kept.keys()), sorted(kept.keys() - idle)


def reached_by(lists: list) -> set:
    """(module, first line) of each package code object the lists started."""
    done = subprocess.run(
        [sys.executable, "-B", "-c", PROFILED_RUN, str(PACKAGE), json.dumps(lists)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    return {tuple(pair) for pair in json.loads(done.stdout)}


def golden_lists(tmp_path) -> list:
    """Every golden and fallback argument list, '@name' as a fixture path."""
    for name, values in SEQUENCES.items():
        (tmp_path / name).write_text("".join(format_rat(v) + "\n" for v in values))
    for name, text in SPECS.items():
        (tmp_path / name).write_text(text)
    lists = [command.split() for command, _, _ in CASES] + FALLBACKS
    return [[str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
            for argv in lists]


def test_every_def_in_src_is_reached_or_kept(tmp_path):
    idle, stale = unlicensed(NODES, reached_by(golden_lists(tmp_path)), KEPT)
    assert not idle, f"no cdl run reaches {idle}: delete them, or keep them in KEPT"
    assert not stale, f"KEPT names what is gone or now reached: {stale}"


def test_every_kept_entry_gives_a_checked_reason():
    gate = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {f"{node.module.split('.')[-1]}.{alias.name}" for node in ast.walk(gate)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    points = {f"{module}.{path}" for module, path in POINTS}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("## Library sketch", 1)[1].split("\n## ", 1)[0]

    def names(owner):
        if owner == "_coeff_bits":
            return set(tracing["_coeff_bits"].__code__.co_names)
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(NODES[owner])
                if isinstance(n, (ast.Name, ast.Attribute))}

    for name, reason in KEPT.items():
        kind, _, owner = reason.partition(": ")
        *_, cls, short = name.split(".")
        if owner:
            assert (KEPT[owner].partition(": ")[0] == kind if owner in KEPT
                    else owner == "_coeff_bits" and kind == TRACER), f"{name}: {reason}"
            assert (cls if short == "__init__" else short) in names(owner), \
                f"{owner} does not call {name}"
        elif kind == ACCEPTANCE:
            assert name in imported, f"tests/test_acceptance.py does not import {name}"
        elif kind == TRACER:
            assert name in points, f"perfbench/tracing.py does not trace {name}"
        elif kind == README:
            assert re.search(rf"\b{short}\b", sketch), f"README's sketch does not name {name}"
        else:
            assert kind == VALUE and re.fullmatch(r"__\w+__", short), f"{name}: {reason}"
            assert cls in ("Record", "Poly", "RatFn"), f"{name}: {reason}"


def test_the_gate_flags_an_unreached_def():
    nodes = def_nodes("def used():\n    pass\n\n\ndef helper():\n    pass\n", "m")
    assert unlicensed(nodes, {("m", 1)}, {}) == (["m.helper"], [])
    assert unlicensed(nodes, {("m", 1)}, {"m.helper": VALUE}) == ([], [])


def test_the_gate_flags_a_stale_kept_entry():
    # the code object of a decorated def starts at its decorator, line 2
    nodes = def_nodes("class C:\n    @property\n    def value(self):\n        pass\n", "m")
    assert unlicensed(nodes, set(), {"m.C.value": VALUE, "m.gone": VALUE}) == ([], ["m.gone"])
    assert unlicensed(nodes, {("m", 2)}, {"m.C.value": VALUE}) == ([], ["m.C.value"])
