"""``main`` parses every call with the one argparse tree built at import.

No call may build another parser, and no call may leave state in the shared
one that changes what a later call prints or returns.
"""

import argparse
import contextlib
import io

import pytest

from circuitdual import cli


def run_in_process(argv):
    """(exit code, stdout, stderr) of one ``main`` call, SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_alone(argv):
    """What the call gives with a parser of its own, as in a one-shot ``cdl``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_PARSER", cli._build_parser())
        return run_in_process(argv)


@pytest.fixture
def files(tmp_path):
    spec = tmp_path / "family.cdl"
    spec.write_text("kind = family\nx = 1/10\n")
    seq = tmp_path / "doubling.txt"
    seq.write_text("1\n2\n4\n8\n16\n")
    return str(spec), str(seq)


def test_main_builds_no_parser(files, monkeypatch):
    spec, seq = files

    def refuse(self, *args, **kwargs):
        raise AssertionError("main built an argparse parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert run_in_process(["wco", "dual", "--spec", spec, "--count", "2"]) == (
        0, "alpha=10/11\nnorm_sq=1\nlower_sq=10/11\nsq'(0)=50/121\nsq'(1)=60/121\n", "",
    )
    assert run_in_process(["moments", "check", seq, "--depth", "3"]) == (
        1, "FAIL m=1 j=0 value=-1\n", "",
    )
    assert run_in_process(["family", "taylor", "--m", "5", "--order", "4"]) == (
        0, "0 0 0 0 -9\n", "",
    )


def test_calls_in_one_process_print_what_they_print_alone(files):
    _, seq = files
    sequence = [
        ["--backend", "float", "--tol", "1e-6", "moments", "check", seq, "--depth", "3"],
        ["moments", "check", seq, "--depth", "3"],
        ["family", "taylor", "--m"],  # a usage error
        ["family", "--help"],
        ["family", "taylor", "--m", "11", "--order", "6"],
    ]
    results = [run_in_process(argv) for argv in sequence]
    assert [code for code, _, _ in results] == [1, 1, 2, 0, 0]
    assert results == [run_alone(argv) for argv in sequence]
