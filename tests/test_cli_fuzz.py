"""Random ``cdl`` argument lists drawn from the CLI's own grammar table.

Whatever the input, ``main`` returns (or argparse exits with) 0, 1 or 2,
and no traceback reaches stderr; an invalid tolerance on the float backend
always exits 2.  Each argument list runs twice, as ``main`` reads it and
with ``cli._fast_parse`` patched to return None, so that argparse reads it:
both routes must agree on the exit code, stdout and stderr.  Sizes are drawn small (at most 20),
nonpositive (down to -2, below the floor of --count and --fiber) or beyond
the cap that their own subcommand declares, so each example stays cheap.
A second test draws only ``moments check`` on the float backend in
Stieltjes mode, where the whole grammar rarely reaches the overflow file.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitdual import cli
from circuitdual.cli import _COMMANDS, MAX_LITERAL
from test_cli_parser_once import run_in_process

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


def _value(draw, name, spec, pools):
    """A valid value three times in four, else an invalid or over-cap one."""
    valid = draw(st.integers(0, 3)) > 0
    if spec.get("type") is int:
        if valid:
            return str(draw(st.integers(1, 20)))
        if draw(st.booleans()):
            return str(spec["cap"] + draw(st.integers(1, 10 ** 6)))
        return str(draw(st.integers(-2, 0)))
    if spec.get("choices") is not None:
        good, bad = list(spec["choices"]), ["bogus"]
    elif spec.get("type") is float:
        good, bad = TOLERANCES
    else:
        key = {"--from-dual": "spec", "--xmax": "x"}.get(name, name.lstrip("-"))
        good, bad = pools[key]
    return draw(st.sampled_from(good if valid else bad))


def _argv(draw, path, pools, keep=(), drop=()):
    """Arguments of the command at ``path`` of ``cli._COMMANDS``, then those
    of a drawn subcommand; names in ``keep`` are kept as often as required
    ones, those in ``drop`` never drawn."""
    options, positionals, tail = [], [], []
    _, arguments, run = _COMMANDS[path]
    for name, spec in arguments.items():
        # required arguments are left out now and then; optional ones often
        if name in drop or draw(st.integers(0, 9)) >= (
                9 if spec.get("required") or name in keep else 5):
            continue
        if name[0] != "-":
            positionals.append(_value(draw, name, spec, pools))
        elif spec.get("action") == "store_true":
            options.append([name])
        else:
            options.append([name, _value(draw, name, spec, pools)])
    if run is None:
        name = draw(st.sampled_from([p[-1] for p in _COMMANDS if p and p[:-1] == path]))
        tail = [name] + _argv(draw, path + (name,), pools)
    options = draw(st.permutations(options))
    return [token for option in options for token in option] + positionals + tail


@st.composite
def argvs(draw, pools):
    return _argv(draw, (), pools)


def run_by_argparse(argv):
    """``run_in_process`` with ``_fast_parse`` leaving every list to argparse."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_fast_parse", lambda argv: None)
        return run_in_process(argv)


def _check_exit(argv):
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2), (argv, code)
    options = dict(zip(argv, argv[1:]))
    if options.get("--backend") == "float" and options.get("--tol") in TOLERANCES[1]:
        assert code == 2, argv
    assert "Traceback" not in err, argv
    assert run_by_argparse(argv) == (code, out, err), argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_never_escapes_its_exit_codes(files, data):
    _check_exit(data.draw(argvs(files)))


@st.composite
def float_hankel_argvs(draw, pools):
    """``moments check`` on the float backend in Stieltjes mode, nearly always
    on a sequence file, the overflow file being the only valid one."""
    valid, invalid = pools["sequence"]
    overflow = [path for path in valid if path.endswith("overflow.txt")]
    pools = dict(pools, sequence=(overflow, invalid))
    drawn = _argv(draw, ("moments", "check"), pools, keep={"sequence"},
                  drop={"--from-dual", "--mode"})
    return ["--backend", "float", "moments", "check", "--mode", "stieltjes"] + drawn


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_float_hankel_overflow_never_escapes(files, data):
    # the overflow input of the float Hankel test needs four choices at
    # once, which the whole grammar draws about once in 1,800 examples
    _check_exit(data.draw(float_hankel_argvs(files)))
