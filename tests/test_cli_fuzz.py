"""Random ``cdl`` argument lists drawn from the parser's own grammar.

Whatever the input, ``main`` returns (or argparse exits with) 0, 1 or 2,
and no traceback reaches stderr.  Sizes are drawn small (at most 20),
nonpositive (down to -2, below the floor of --count and --fiber) or beyond
every cap of their flag, so each example stays cheap.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitdual.cli import (
    MAX_COUNT,
    MAX_DEPTH,
    MAX_FIBER,
    MAX_HANKEL_ORDER,
    MAX_HORIZON,
    MAX_LITERAL,
    MAX_M,
    MAX_ORDER,
    MAX_RESIDUAL_DEPTH,
    MAX_STEPS,
    _build_parser,
    main,
)

# the largest cap of each size flag, whatever the subcommand
OVER_CAP = {
    "--m": MAX_M,
    "--order": max(MAX_ORDER, MAX_HANKEL_ORDER),
    "--steps": MAX_STEPS,
    "--depth": max(MAX_DEPTH, MAX_RESIDUAL_DEPTH),
    "--horizon": MAX_HORIZON,
    "--residual-depth": MAX_RESIDUAL_DEPTH,
    "--count": MAX_COUNT,
    "--fiber": MAX_FIBER,
}
# invalid literals include ones whose p/q form is beyond MAX_LITERAL
RATIONALS = (
    ["1/10", "1/500", "3/5", "1/7", "2"],
    ["0", "-1/20", "-1", "1e-3", "abc", "1/0", "", "1/" + "9" * MAX_LITERAL, "1e99",
     "1e999999999"],
)
TOLERANCES = (["1e-10", "0.5"], ["0", "-1", "nan", "inf", "abc"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "family.cdl": "kind = family\nx = 1/10\n",
        "explicit.cdl": "kind = explicit\nsq = [1/2, 1, 5/4]\ntail = ones\n",
        "seq.txt": "".join(f"1/{n + 1}\n" for n in range(13)),
        "bad.cdl": "kind = banana\n",
        "bad.txt": "1\nabc\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    paths = [str(root / name) for name in texts]
    return {
        "spec": (paths[:2], paths[2:] + [str(root / "missing")]),
        "sequence": (paths[2:3], paths[:2] + paths[3:] + [str(root / "missing")]),
        "out": (["-", str(root / "fig.csv")], [str(root / "missing" / "fig.csv")]),
        "x": RATIONALS,
    }


def _value(draw, action, pools):
    """A valid value three times in four, else an invalid or over-cap one."""
    valid = draw(st.integers(0, 3)) > 0
    flag = action.option_strings[0] if action.option_strings else None
    if action.type is int:
        if valid:
            return str(draw(st.integers(1, 20)))
        if flag in OVER_CAP and draw(st.booleans()):
            return str(OVER_CAP[flag] + draw(st.integers(1, 10 ** 6)))
        return str(draw(st.integers(-2, 0)))
    if action.choices is not None:
        good, bad = list(action.choices), ["bogus"]
    elif action.type is float:
        good, bad = TOLERANCES
    else:
        key = {"from_dual": "spec", "xmax": "x"}.get(action.dest, action.dest)
        good, bad = pools[key]
    return draw(st.sampled_from(good if valid else bad))


def _argv(draw, parser, pools):
    options, positionals, tail = [], [], []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            name = draw(st.sampled_from(sorted(action.choices)))
            tail = [name] + _argv(draw, action.choices[name], pools)
            continue
        # required arguments are left out now and then; optional ones often
        if draw(st.integers(0, 9)) >= (9 if action.required else 5):
            continue
        if not action.option_strings:
            positionals.append(_value(draw, action, pools))
        elif action.nargs == 0:
            options.append([action.option_strings[0]])
        else:
            options.append([action.option_strings[0], _value(draw, action, pools)])
    options = draw(st.permutations(options))
    return [token for option in options for token in option] + positionals + tail


@st.composite
def argvs(draw, pools):
    return _argv(draw, _build_parser(), pools)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_never_escapes_its_exit_codes(files, data):
    argv = data.draw(argvs(files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
