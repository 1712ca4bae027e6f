"""``cli._fast_parse`` reads plain argument lists from the grammar table
``cli._COMMANDS`` and leaves every other list to argparse.

For any argument list it returns None or the values that the argparse tree
built from the table returns, ``vars(_build_parser().parse_args(argv))``,
and None wherever argparse exits.  Every argument list of the four
benchmark workloads takes the fast path, so a plain ``cdl`` command runs
without argparse.
"""

import contextlib
import io
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circuitdual import cli
from test_cli_fuzz import RATIONALS, _argv
from test_cli_golden import refuse_argparse
from test_cli_parser_once import run_module

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"

# file names only: no value is opened while parsing; '-' is a lone-dash value
POOLS = {
    "spec": (["family.cdl", "-"], ["missing.cdl"]),
    "sequence": (["seq.txt", "-"], ["missing.txt"]),
    "out": (["-", "fig.csv"], ["missing/fig.csv"]),
    "x": RATIONALS,
}
# help, abbreviations, --flag=value, --, negative numbers, a dash with a
# space (a positional to argparse), the lone dash and extra positionals
ODD = ["-h", "--help", "--", "-", "-1", "-0.5", "-1/20", "- 1", "--ord", "--ex",
       "--m=5", "--backend=float", "--tol=1e-3", "extra", "bogus"]
# every option string and subcommand name, so that drawn lists repeat
# options, misplace them and name unknown or missing subcommands
NAMES = sorted({name for path in cli._COMMANDS for name in path}
               | {name for _, arguments, _ in cli._COMMANDS.values()
                  for name in arguments if name.startswith("-")})


def argparse_values(argv):
    """``vars(_build_parser().parse_args(argv))``, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def plain(values):
    """The values, a NaN tolerance by its text (NaN != NaN)."""
    return {key: repr(value) if value != value else value for key, value in values.items()}


@st.composite
def edited_argvs(draw):
    """A list from the fuzz test's grammar with up to three edits: a token
    from ODD or NAMES inserted, a pair of tokens repeated, or one deleted."""
    argv = _argv(draw, (), POOLS)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "repeat", "delete")))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(ODD + NAMES)))
        elif edit == "repeat":
            argv[at:at] = argv[at:at + 2]
        else:
            del argv[at:at + 1]
    return argv


@settings(max_examples=200, deadline=None)
@given(edited_argvs())
def test_fast_parse_is_argparse_or_none(argv):
    fast, slow = cli._fast_parse(argv), argparse_values(argv)
    assert fast is None or slow is not None and plain(fast) == plain(slow), argv


@pytest.mark.parametrize("argv", [
    ["family", "taylor", "--m", "5", "--order", "4", "--m", "6"],  # repeated
    ["family", "taylor", "--order", "4"],                          # --m missing
    ["family", "taylor", "--m", "-1"],                             # negative number
    ["family", "taylor", "--m=5"],
    ["family", "taylor", "--m", "5", "--ord", "4"],                # abbreviation
    ["family", "taylor", "--m", "x"],                              # type
    ["family", "taylor", "--m", "5", "extra"],                     # extra positional
    ["family", "taylor", "--m", "5", "--", "--order", "4"],
    ["family", "taylor", "--m", "5", "-h"],
    ["family", "taylor", "--m"],
    ["family"],                                                    # subcommand missing
    ["family", "bogus", "--m", "5"],                               # unknown subcommand
    ["--backend", "fast", "family", "taylor", "--m", "5"],         # choices
    ["family", "--backend", "float", "taylor", "--m", "5"],        # option of another parser
    ["moments", "check", "a.txt", "b.txt"],                        # extra positional
    [],
])
def test_fast_parse_leaves_these_to_argparse(argv):
    assert cli._fast_parse(argv) is None


def test_fast_parse_reads_the_lone_dash_as_a_value():
    for argv in (["family", "figure", "--out", "-", "--exact"], ["moments", "check", "-"]):
        assert cli._fast_parse(argv) == vars(cli._build_parser().parse_args(argv))


@pytest.fixture(scope="module")
def workloads():
    """perfbench's job lists, run from the source text so that nothing is
    written next to it; dataclasses looks the module up while it runs."""
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"),
             vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_workload_argv_takes_the_fast_path(workloads, tmp_path):
    parser = cli._build_parser()
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for job in workloads.make_jobs(name, seed, tmp_path):
                argv = job["argv"]
                assert cli._fast_parse(argv) == vars(parser.parse_args(argv)), argv


def test_workload_commands_run_without_argparse(workloads, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_build_parser", refuse_argparse)
    for name in workloads.WORKLOADS:
        jobs = workloads.make_jobs(name, 1, tmp_path, smoke=True)
        for shape in {tuple(a for a in job["argv"] if a.startswith("--")): job for job in jobs}.values():
            assert cli.main(shape["argv"]) in (0, 1), shape["argv"]
            out, err = capsys.readouterr()
            assert out and not err, shape["argv"]


CONSOLE = [
    ("family taylor --m 5 --order 4", 0, "0 0 0 0 -9\n", ""),
    ("family taylor --m", 2, "",
     "usage: cdl family taylor [-h] --m M [--order ORDER]\n"
     "cdl family taylor: error: argument --m: expected one argument\n"),
]


@pytest.mark.parametrize("command, code, out, err", CONSOLE, ids=[c[0] for c in CONSOLE])
def test_console_entry_reads_sys_argv(command, code, out, err):
    run = run_module(command.split())
    assert (run.returncode, run.stdout, run.stderr) == (code, out, err)


def test_console_help_exits_0():
    run = run_module(["family", "--help"])
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("usage: cdl family [-h] {taylor,scan,verdict,figure} ...\n")

