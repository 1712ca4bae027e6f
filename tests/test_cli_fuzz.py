"""Random ``cdl`` argument lists drawn from the parser's own grammar.

Whatever the input, ``main`` returns (or argparse exits with) 0, 1 or 2,
and no traceback reaches stderr; an invalid tolerance on the float backend
always exits 2.  Each argument list runs twice, with the parser that every
``main`` call shares and with a freshly built one, which must agree on the
exit code, stdout and stderr.  Sizes are drawn small (at most 20),
nonpositive (down to -2, below the floor of --count and --fiber) or beyond
the cap that their own subcommand declares, so each example stays cheap.
A second test draws only ``moments check`` on the float backend in
Stieltjes mode, where the whole grammar rarely reaches the overflow file.
"""

import argparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitdual.cli import MAX_LITERAL, _build_parser
from test_cli_parser_once import run_alone, run_in_process

# invalid literals include ones whose p/q form is beyond MAX_LITERAL
RATIONALS = (
    ["1/10", "1/500", "3/5", "1/7", "2"],
    ["0", "-1/20", "-1", "1e-3", "abc", "1/0", "", "1/" + "9" * MAX_LITERAL, "1e99",
     "1e999999999"],
)
TOLERANCES = (["1e-10", "0.5"], ["0", "-1", "nan", "inf", "-inf", "abc"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "family.cdl": "kind = family\nx = 1/10\n",
        "explicit.cdl": "kind = explicit\nsq = [1/2, 1, 5/4]\ntail = ones\n",
        "seq.txt": "".join(f"1/{n + 1}\n" for n in range(13)),
        # a zero Hankel diagonal at every order: the float test squares 1e200
        "overflow.txt": "0\n1e200\n" + "0\n" * 39,
        "bad.cdl": "kind = banana\n",
        "long.cdl": "kind = family\nx = 1/" + "9" * 4000 + "\n",  # beyond MAX_LITERAL
        "bad.txt": "1\nabc\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    path = {name: str(root / name) for name in texts}
    specs = [path["family.cdl"], path["explicit.cdl"]]
    sequences = [path["seq.txt"], path["overflow.txt"]]
    broken = [path["bad.cdl"], path["long.cdl"], path["bad.txt"], str(root / "missing")]
    return {
        "spec": (specs, sequences + broken),
        "sequence": (sequences, specs + broken),
        "out": (["-", str(root / "fig.csv")], [str(root / "missing" / "fig.csv")]),
        "x": RATIONALS,
    }


def _value(draw, action, pools, caps):
    """A valid value three times in four, else an invalid or over-cap one;
    ``caps`` maps each size flag of the subcommand to its cap."""
    valid = draw(st.integers(0, 3)) > 0
    if action.type is int:
        if valid:
            return str(draw(st.integers(1, 20)))
        if draw(st.booleans()):
            return str(caps[action.option_strings[0]] + draw(st.integers(1, 10 ** 6)))
        return str(draw(st.integers(-2, 0)))
    if action.choices is not None:
        good, bad = list(action.choices), ["bogus"]
    elif action.type is float:
        good, bad = TOLERANCES
    else:
        key = {"from_dual": "spec", "xmax": "x"}.get(action.dest, action.dest)
        good, bad = pools[key]
    return draw(st.sampled_from(good if valid else bad))


def _argv(draw, parser, pools, keep=(), drop=()):
    """Arguments of ``parser``; those whose dest is in ``keep`` are kept as
    often as required ones, those in ``drop`` never drawn."""
    options, positionals, tail = [], [], []
    caps = {flag: cap for flag, _, cap in parser.get_default("sizes") or ()}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction) or action.dest in drop:
            continue
        if isinstance(action, argparse._SubParsersAction):
            name = draw(st.sampled_from(sorted(action.choices)))
            tail = [name] + _argv(draw, action.choices[name], pools)
            continue
        # required arguments are left out now and then; optional ones often
        if draw(st.integers(0, 9)) >= (9 if action.required or action.dest in keep else 5):
            continue
        if not action.option_strings:
            positionals.append(_value(draw, action, pools, caps))
        elif action.nargs == 0:
            options.append([action.option_strings[0]])
        else:
            options.append([action.option_strings[0], _value(draw, action, pools, caps)])
    options = draw(st.permutations(options))
    return [token for option in options for token in option] + positionals + tail


@st.composite
def argvs(draw, pools):
    return _argv(draw, _build_parser(), pools)


def _check_exit(argv):
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2), (argv, code)
    options = dict(zip(argv, argv[1:]))
    if options.get("--backend") == "float" and options.get("--tol") in TOLERANCES[1]:
        assert code == 2, argv
    assert "Traceback" not in err, argv
    assert run_alone(argv) == (code, out, err), argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_never_escapes_its_exit_codes(files, data):
    _check_exit(data.draw(argvs(files)))


@st.composite
def float_hankel_argvs(draw, pools):
    """``moments check`` on the float backend in Stieltjes mode, nearly always
    on a sequence file, the overflow file being the only valid one."""
    check = _build_parser()
    for name in ("moments", "check"):
        sub = next(a for a in check._actions if isinstance(a, argparse._SubParsersAction))
        check = sub.choices[name]
    valid, invalid = pools["sequence"]
    overflow = [path for path in valid if path.endswith("overflow.txt")]
    pools = dict(pools, sequence=(overflow, invalid))
    drawn = _argv(draw, check, pools, keep={"sequence"}, drop={"from_dual", "mode"})
    return ["--backend", "float", "moments", "check", "--mode", "stieltjes"] + drawn


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_float_hankel_overflow_never_escapes(files, data):
    # the overflow input of the float Hankel test needs four choices at
    # once, which the whole grammar draws about once in 1,800 examples
    _check_exit(data.draw(float_hankel_argvs(files)))
