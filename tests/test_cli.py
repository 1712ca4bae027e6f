import sys

import pytest

from circuitdual import moments
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
    _COMMANDS,
    main,
)
from circuitdual.files import MAX_SPEC_CHARS
from circuitdual.rational import parse_rat

FAMILY_HALF = "kind = family\nx = 1/2\n"
ALL_ONES = "kind = explicit\nsq = [1, 1]\ntail = ones\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spec_file(tmp_path, text, name="weights.cdl"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_describe_family(tmp_path, capsys):
    path = spec_file(tmp_path, FAMILY_HALF)
    code, out, _ = run(capsys, "wco", "describe", "--spec", path)
    assert code == 0
    assert "norm_sq=3/2" in out
    assert "lower_sq=1" in out
    assert "cyclic_sufficient=true" in out
    assert "residuals: all zero (depth 10)" in out


def test_describe_all_ones(tmp_path, capsys):
    path = spec_file(tmp_path, ALL_ONES)
    code, out, _ = run(capsys, "wco", "describe", "--spec", path)
    assert code == 0
    assert "norm_sq=2" in out
    assert "lower_sq=1" in out
    assert "cyclic_sufficient=true" in out


def test_describe_reports_nonzero_residual(tmp_path, capsys):
    path = spec_file(tmp_path, "kind = explicit\nsq = [2, 0]\ntail = ones\n")
    code, out, _ = run(capsys, "wco", "describe", "--spec", path)
    assert code == 0
    assert "first nonzero at n=0 value=1" in out


def test_describe_malformed_spec(tmp_path, capsys):
    path = spec_file(tmp_path, "kind = banana\n")
    code, _, err = run(capsys, "wco", "describe", "--spec", path)
    assert code == 2
    assert "error:" in err


def test_dual_prints_weights(tmp_path, capsys):
    path = spec_file(tmp_path, ALL_ONES)
    code, out, _ = run(capsys, "wco", "dual", "--spec", path, "--count", "4")
    assert code == 0
    assert "alpha=1/2" in out
    assert "sq'(0)=1/4" in out
    assert "sq'(2)=1" in out


def test_dual_of_degenerate_operator_is_input_error(tmp_path, capsys):
    path = spec_file(tmp_path, "kind = explicit\nsq = [1, 1, 0]\ntail = ones\n")
    code, _, err = run(capsys, "wco", "dual", "--spec", path)
    assert code == 2
    assert "bounded from below" in err


def test_moments_constant_file_passes(tmp_path, capsys):
    seq = tmp_path / "ones.txt"
    seq.write_text("1\n" * 8)
    code, out, _ = run(capsys, "moments", "check", str(seq), "--depth", "6")
    assert code == 0
    assert out.strip() == "PASS depth=6 n=7"


def test_moments_from_dual_inside_window_fails(tmp_path, capsys):
    path = spec_file(tmp_path, "kind = family\nx = 1/500\n")
    code, out, _ = run(
        capsys, "moments", "check", "--from-dual", path, "--fiber", "0",
        "--depth", "5",
    )
    assert code == 1
    assert out.startswith("FAIL m=5 j=0 value=-")


def test_moments_from_dual_at_one_tenth_passes_shallow(tmp_path, capsys):
    # at x = 1/10 the first Hausdorff violation is (m, j) = (9, 0)
    path = spec_file(tmp_path, "kind = family\nx = 1/10\n")
    code, out, _ = run(
        capsys, "moments", "check", "--from-dual", path, "--depth", "5",
    )
    assert code == 0
    code, out, _ = run(
        capsys, "moments", "check", "--from-dual", path, "--depth", "9",
    )
    assert code == 1
    assert out.startswith("FAIL m=9 j=0")


def test_moments_stieltjes_fiber_one(tmp_path, capsys):
    path = spec_file(tmp_path, FAMILY_HALF)
    code, out, _ = run(
        capsys, "moments", "check", "--from-dual", path, "--fiber", "1",
        "--mode", "stieltjes", "--order", "5",
    )
    assert code == 0
    assert out.strip() == "PASS order=5 n=12"


def test_moments_requires_exactly_one_source(tmp_path, capsys):
    seq = tmp_path / "ones.txt"
    seq.write_text("1\n")
    path = spec_file(tmp_path, FAMILY_HALF)
    code, _, err = run(
        capsys, "moments", "check", str(seq), "--from-dual", path,
    )
    assert code == 2
    code, _, err = run(capsys, "moments", "check")
    assert code == 2


def test_moments_float_backend(tmp_path, capsys):
    seq = tmp_path / "geo.txt"
    seq.write_text("".join(f"{0.5 ** n}\n" for n in range(9)))
    code, out, _ = run(
        capsys, "--backend", "float", "moments", "check", str(seq),
        "--depth", "4",
    )
    assert code == 0


# its first difference, 1 - 3/2, is negative
NEGATIVE_STEP = "1\n3/2\n1/2\n1/4\n1/8\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
@pytest.mark.parametrize("mode", ["hausdorff", "stieltjes"])
def test_float_tolerance_must_be_positive_and_finite(tmp_path, capsys, tol, mode):
    seq = tmp_path / "seq.txt"
    seq.write_text(NEGATIVE_STEP)
    code, out, err = run(
        capsys, "--backend", "float", f"--tol={tol}", "moments", "check",
        str(seq), "--mode", mode, "--order", "2",
    )
    assert (code, out) == (2, "")
    assert err == f"error: --tol must be positive and finite, got {float(tol)!r}\n"


def test_float_tolerance_sets_the_threshold(tmp_path, capsys):
    # first difference -1/2**21: within a tolerance of 2**-20, beyond 2**-22
    seq = tmp_path / "seq.txt"
    seq.write_text(f"1\n{2 ** 21 + 1}/{2 ** 21}\n")
    for tol, want in ((2 ** -20, (0, "PASS depth=1 n=1\n")),
                      (2 ** -22, (1, f"FAIL m=1 j=0 value={-2 ** -21!r}\n"))):
        code, out, _ = run(capsys, "--backend", "float", "--tol", repr(tol),
                           "moments", "check", str(seq), "--depth", "1")
        assert (code, out) == want
    code, out, _ = run(capsys, "--tol", repr(2 ** -20), "moments", "check",
                       str(seq), "--depth", "1")
    assert (code, out) == (1, "FAIL m=1 j=0 value=-1/2097152\n")


def test_float_overflow_is_an_input_error(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("1e400\n1\n")
    code, out, err = run(capsys, "--backend", "float", "moments", "check",
                         str(seq), "--depth", "1")
    assert (code, out, err) == (2, "", "error: entry 0 is beyond the float range\n")
    # twenty weights of about 1e-17 make the dual moments grow past 1e308
    tiny = ", ".join(["1/99999999999999999"] * 20)
    spec = spec_file(tmp_path, f"kind = explicit\nsq = [1, 1, {tiny}]\ntail = ones\n")
    code, out, err = run(capsys, "--backend", "float", "moments", "check",
                         "--from-dual", spec, "--fiber", "1", "--horizon", "20")
    assert (code, out, err) == (2, "", "error: entry 19 is beyond the float range\n")
    code, out, _ = run(capsys, "moments", "check", "--from-dual", spec,
                       "--fiber", "1", "--horizon", "20")
    assert code == 1 and out.startswith("FAIL m=1 j=0 ")


def test_float_hankel_square_overflows_to_inf(tmp_path, capsys):
    # the zero diagonal forces the off-diagonal test, whose square 1e400 is
    # beyond a double
    seq = tmp_path / "seq.txt"
    seq.write_text("0\n1e200\n0\n")
    code, out, err = run(capsys, "--backend", "float", "moments", "check",
                         str(seq), "--mode", "stieltjes", "--order", "1")
    assert (code, out, err) == (1, "FAIL hankel=0 order=2 value=-inf\n", "")
    code, out, err = run(capsys, "moments", "check", str(seq), "--mode",
                         "stieltjes", "--order", "1")
    assert (code, out, err) == (1, f"FAIL hankel=0 order=2 value=-{10 ** 400}\n", "")


def test_family_taylor_output(capsys):
    code, out, _ = run(capsys, "family", "taylor", "--m", "5", "--order", "4")
    assert code == 0
    assert out.strip() == "0 0 0 0 -9"


def test_family_scan_output(capsys):
    code, out, _ = run(
        capsys, "family", "scan", "--m", "5", "--xmax", "1/10", "--steps", "100",
    )
    assert code == 0
    assert "negative_prefix=3" in out
    assert "first crossing in [" in out
    assert "signs: ---+" in out


def test_family_verdict_exit_codes(capsys):
    code, out, _ = run(capsys, "family", "verdict", "--x", "1/500")
    assert code == 0
    assert "counterexample confirmed" in out

    code, out, _ = run(capsys, "family", "verdict", "--x", "1/10")
    assert code == 1
    assert "not confirmed" in out

    code, out, _ = run(
        capsys, "family", "verdict", "--x", "1/10", "--depth", "9",
    )
    assert code == 0

    code, _, err = run(capsys, "family", "verdict", "--x", "0")
    assert code == 2
    assert "isometry" in err

    # a prefix with top index 3 tests differences up to m = 3 only
    code, out, _ = run(
        capsys, "family", "verdict", "--x", "1/10", "--horizon", "3", "--depth", "5",
    )
    assert code == 1
    assert "hausdorff: PASS depth=3 n=3" in out


def test_family_figure_csv(tmp_path, capsys):
    out_path = tmp_path / "fig.csv"
    code, _, _ = run(
        capsys, "family", "figure", "--xmax", "1/25", "--steps", "20",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,D4,D5,D6"
    assert len(lines) == 21
    first = out_path.read_text()

    code, _, _ = run(
        capsys, "family", "figure", "--xmax", "1/25", "--steps", "20",
        "--out", str(out_path),
    )
    assert out_path.read_text() == first  # byte-identical reruns

    code, out, _ = run(
        capsys, "family", "figure", "--xmax", "1/25", "--steps", "5",
        "--out", "-", "--exact",
    )
    assert code == 0
    assert out.splitlines()[1].startswith("1/125,")


def test_bad_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["family", "taylor"])  # --m is required
    assert err.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["taylor", "--m", str(MAX_M + 1)], "--m"),
    (["taylor", "--m", "5", "--order", str(MAX_ORDER + 1)], "--order"),
    (["scan", "--m", str(MAX_M + 1)], "--m"),
    (["scan", "--m", "5", "--steps", str(MAX_STEPS + 1)], "--steps"),
    (["figure", "--steps", str(MAX_STEPS + 1), "--out", "-"], "--steps"),
])
def test_family_size_caps_exit_two(capsys, argv, flag):
    code, out, err = run(capsys, "family", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be at most ")
    assert "Traceback" not in err


def test_family_caps_admit_the_limits(capsys):
    code, out, _ = run(capsys, "family", "taylor", "--m", str(MAX_M), "--order", "4")
    assert code == 0
    assert out.split()[4] == f"-9/{2 ** (MAX_M - 5)}"
    code, out, _ = run(capsys, "family", "taylor", "--m", "5", "--order", str(MAX_ORDER))
    assert code == 0
    assert len(out.split()) == MAX_ORDER + 1


@pytest.mark.parametrize("argv, flag, cap", [
    (["family", "verdict", "--x", "1/10", "--horizon"], "--horizon", MAX_HORIZON),
    (["family", "verdict", "--x", "1/10", "--depth"], "--depth", MAX_DEPTH),
    (["family", "verdict", "--x", "1/10", "--residual-depth"], "--residual-depth",
     MAX_RESIDUAL_DEPTH),
    (["moments", "check", "@seq", "--depth"], "--depth", MAX_DEPTH),
    (["moments", "check", "@seq", "--mode", "stieltjes", "--order"], "--order",
     MAX_HANKEL_ORDER),
    (["moments", "check", "--from-dual", "@spec", "--horizon"], "--horizon", MAX_HORIZON),
    (["wco", "describe", "--spec", "@spec", "--depth"], "--depth", MAX_RESIDUAL_DEPTH),
    (["wco", "dual", "--spec", "@spec", "--count"], "--count", MAX_COUNT),
    (["moments", "check", "--from-dual", "@spec", "--fiber"], "--fiber", MAX_FIBER),
])
def test_size_caps_exit_two(tmp_path, capsys, argv, flag, cap):
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n" * 8)
    files = {"@seq": str(seq), "@spec": spec_file(tmp_path, FAMILY_HALF)}
    code, out, err = run(capsys, *[files.get(a, a) for a in argv], str(cap + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be at most {cap}, got {cap + 1}\n"


@pytest.mark.parametrize("argv, flag, floor", [
    (["family", "taylor", "--m"], "--m", 0),
    (["family", "scan", "--m"], "--m", 0),
    (["family", "taylor", "--m", "5", "--order"], "--order", 0),
    (["moments", "check", "@seq", "--mode", "stieltjes", "--order"], "--order", 1),
    (["family", "verdict", "--x", "1/10", "--depth"], "--depth", 1),
    (["moments", "check", "@seq", "--depth"], "--depth", 1),
    (["wco", "describe", "--spec", "@spec", "--depth"], "--depth", 2),
    (["family", "verdict", "--x", "1/10", "--residual-depth"], "--residual-depth", 2),
    (["family", "verdict", "--x", "1/10", "--horizon"], "--horizon", 0),
    (["moments", "check", "--from-dual", "@spec", "--horizon"], "--horizon", 0),
    (["family", "scan", "--m", "5", "--steps"], "--steps", 1),
    (["family", "figure", "--out", "-", "--steps"], "--steps", 1),
])
def test_size_floors_name_the_flag(tmp_path, capsys, argv, flag, floor):
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n" * 8)
    files = {"@seq": str(seq), "@spec": spec_file(tmp_path, FAMILY_HALF)}
    argv = [files.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv, str(floor - 1))
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be at least {floor}, got {floor - 1}\n"
    code, out, err = run(capsys, *argv, str(floor))
    assert code in (0, 1) and out and err == ""


@pytest.mark.parametrize("argv, message", [
    (["family", "verdict", "--x", "1/10", "--depth", "101", "--horizon", "101"],
     "error: --horizon must be at most 100, got 101"),
    (["moments", "check", "@seq", "--fiber", "1001", "--depth", "101"],
     "error: --depth must be at most 100, got 101"),
    (["family", "taylor", "--m", "-1", "--order", "101"],
     "error: --order must be at most 100, got 101"),
    (["moments", "check", "@seq", "--fiber", "-1", "--order", "51"],
     "error: --order must be at most 50, got 51"),
    # the file loads before the floor of the mode's flag is checked
    (["moments", "check", "@missing", "--depth", "0"], "error: [Errno 2]"),
])
def test_which_size_error_wins(tmp_path, capsys, argv, message):
    # every cap before any floor, in the order the command checks its flags
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n" * 8)
    files = {"@seq": str(seq), "@missing": str(tmp_path / "missing.txt")}
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(message)


def test_every_integer_flag_has_a_cap():
    # and a floor, None where the command checks it itself
    for path, (_, arguments, _) in _COMMANDS.items():
        for flag, spec in arguments.items():
            if spec.get("type") is int:
                assert type(spec.get("cap")) is int, (path, flag)
                assert "floor" in spec and type(spec["floor"]) in (int, type(None)), (path, flag)


def test_floors_skip_unused_flags(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("1\n" * 8)
    code, out, _ = run(capsys, "moments", "check", str(seq), "--order", "0",
                       "--horizon", "-1")
    assert (code, out) == (0, "PASS depth=6 n=7\n")
    code, out, _ = run(capsys, "moments", "check", str(seq), "--mode", "stieltjes",
                       "--order", "3", "--depth", "0", "--horizon", "-1")
    assert (code, out) == (0, "PASS order=3 n=7\n")


def test_caps_admit_the_limits(tmp_path, capsys):
    path = spec_file(tmp_path, FAMILY_HALF)
    code, out, _ = run(capsys, "wco", "dual", "--spec", path, "--count", str(MAX_COUNT))
    assert code == 0
    assert out.splitlines()[-1].startswith(f"sq'({MAX_COUNT - 1})=")
    code, out, _ = run(capsys, "wco", "dual", "--spec", path, "--count", "1")
    assert code == 0
    assert out.splitlines()[-1] == "sq'(0)=2/9"
    for count in ("0", "-1"):
        code, out, err = run(capsys, "wco", "dual", "--spec", path, "--count", count)
        assert (code, out) == (2, "")
        assert err == f"error: --count must be at least 1, got {count}\n"
    code, out, _ = run(capsys, "moments", "check", "--from-dual", path,
                       "--fiber", str(MAX_FIBER))
    assert (code, out) == (0, "PASS depth=6 n=12\n")
    code, out, _ = run(capsys, "moments", "check", "--from-dual", path, "--fiber", "0")
    assert (code, out) == (0, "PASS depth=6 n=12\n")
    code, out, err = run(capsys, "moments", "check", "--from-dual", path, "--fiber", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --fiber must be at least 0, got -1\n"
    code, out, _ = run(capsys, "wco", "describe", "--spec", path,
                       "--depth", str(MAX_RESIDUAL_DEPTH))
    assert code == 0
    assert f"residuals: all zero (depth {MAX_RESIDUAL_DEPTH})" in out
    seq = tmp_path / "ones.txt"
    seq.write_text("1\n" * 8)
    code, out, _ = run(capsys, "moments", "check", str(seq), "--depth", str(MAX_DEPTH))
    assert (code, out) == (0, "PASS depth=7 n=7\n")
    code, _, err = run(capsys, "moments", "check", str(seq), "--mode", "stieltjes",
                       "--order", str(MAX_HANKEL_ORDER))
    assert code == 2
    assert err.startswith("error: prefix too short")


def test_sequence_file_length_cap(tmp_path, capsys):
    # a file may be as long as the longest --from-dual prefix; a longer one
    # once ran the difference table at a cost that grew without bound
    seq = tmp_path / "seq.txt"
    seq.write_text("# comments are not values\n" + "".join(f"1/{k + 1}\n" for k in range(MAX_HORIZON + 1)))
    code, out, _ = run(capsys, "moments", "check", str(seq), "--depth", str(MAX_DEPTH))
    assert (code, out) == (0, f"PASS depth={MAX_DEPTH} n={MAX_HORIZON}\n")
    seq.write_text("".join(f"1/{k + 1}\n" for k in range(MAX_HORIZON + 2)))
    for mode in ("hausdorff", "stieltjes"):
        code, out, err = run(capsys, "moments", "check", str(seq), "--mode", mode)
        assert (code, out) == (2, "")
        assert err == (f"error: a sequence file must hold at most {MAX_HORIZON + 1} "
                       f"values, got more than {MAX_HORIZON + 1}\n")


def test_sequence_file_read_only_up_to_its_cap(tmp_path, capsys, monkeypatch):
    # a file far past the cap is refused at its first value past the cap:
    # the values beyond it are never parsed
    parsed = 0

    def counting_parse(text):
        nonlocal parsed
        parsed += 1
        return parse_rat(text)

    monkeypatch.setattr(moments, "parse_rat", counting_parse)
    seq = tmp_path / "seq.txt"
    seq.write_text("1/2\n" * 100_000)
    code, out, err = run(capsys, "moments", "check", str(seq))
    assert (code, out) == (2, "")
    assert err.startswith("error: a sequence file must hold at most")
    assert parsed == MAX_HORIZON + 1


def test_weight_spec_file_length_cap(tmp_path, capsys):
    # reading and parsing a spec costs time linear in its length: a spec of
    # MAX_SPEC_CHARS characters loads, one character more is refused by
    # every command that reads a spec
    path = spec_file(tmp_path, ALL_ONES + "#" * (MAX_SPEC_CHARS - len(ALL_ONES)))
    assert run(capsys, "wco", "describe", "--spec", path)[0] == 0
    path = spec_file(tmp_path, ALL_ONES + "#" * (MAX_SPEC_CHARS + 1 - len(ALL_ONES)))
    for argv in (["wco", "describe", "--spec", path], ["wco", "dual", "--spec", path],
                 ["moments", "check", "--from-dual", path]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"error: a weight-spec file must hold at most {MAX_SPEC_CHARS} "
                       f"characters, got more than {MAX_SPEC_CHARS}\n")


@pytest.mark.parametrize("argv, flag", [
    (["family", "verdict", "--x"], "--x"),
    (["family", "scan", "--m", "5", "--xmax"], "--xmax"),
    (["family", "figure", "--out", "-", "--xmax"], "--xmax"),
])
def test_literal_cap_exit_two(capsys, argv, flag):
    # the cap is on the value written as p/q: short exponent and decimal
    # forms are held to the same length
    over = "1/" + "9" * (MAX_LITERAL - 1)
    for literal, written in ((over, MAX_LITERAL + 1),
                             (f"1e{MAX_LITERAL}", MAX_LITERAL + 1),
                             ("0." + "9" * (MAX_LITERAL - 3), 2 * MAX_LITERAL - 4)):
        code, out, err = run(capsys, *argv, literal)
        assert (code, out) == (2, "")
        assert err == (f"error: {flag} must be at most {MAX_LITERAL} characters, "
                       f"got {written}\n")
    code, out, err = run(capsys, *argv, "1e999999999")
    assert (code, out) == (2, "")
    assert err == "error: exponent beyond 4300 in '1e999999999'\n"


def test_literal_cap_admits_the_limit(capsys):
    # a value of exactly MAX_LITERAL characters as p/q passes, however typed
    limit = "1/" + "9" * (MAX_LITERAL - 3) + "7"
    assert len(limit) == MAX_LITERAL
    code, out, _ = run(capsys, "family", "verdict", "--x", limit)
    assert code == 0
    assert out.startswith(f"x = {limit}\n")
    code, out, _ = run(capsys, "family", "verdict", "--x", f"1e{MAX_LITERAL - 1}",
                       "--horizon", "3")
    assert code == 1
    assert out.startswith(f"x = 1{'0' * (MAX_LITERAL - 1)}\n")
    code, out, _ = run(capsys, "family", "scan", "--m", "5", "--xmax", limit,
                       "--steps", "2")
    assert code == 0
    assert out.startswith("m=5 samples=2 negative=2 ")


@pytest.mark.parametrize("text, key", [
    ("kind = family\nx = 1/{}\n", "x"),
    ("kind = explicit\nsq = [1, 1, 1/{}]\n", "sq[2]"),
    ("kind = explicit\nsq = [1, 1]\ntail = xi(w2sq=1/{})\n", "w2sq"),
])
def test_spec_literal_cap_exit_two(tmp_path, capsys, text, key):
    # a spec file's rationals share the flags' cap; 4,000 digits once ran
    # without bound through the exact pipeline
    spec = spec_file(tmp_path, text.format("9" * 4000))
    for argv in (["moments", "check", "--from-dual", spec, "--horizon", "30",
                  "--depth", "30"],
                 ["wco", "describe", "--spec", spec]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {key} must be at most {MAX_LITERAL} characters, got 4002\n"


def test_witness_beyond_the_int_digit_limit_prints(tmp_path, capsys):
    # the file's integers are within the parser's 4300-digit limit; the
    # witness's denominator 3^6000 2^9000 (5,573 digits) is not
    seq = tmp_path / "big.txt"
    seq.write_text(f"1/{3 ** 6000}\n1/{2 ** 9000}\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "moments", "check", str(seq), "--depth", "1")
        assert (code, err) == (1, "")
        assert sys.get_int_max_str_digits() == 4300  # printing left the limit alone
        sys.set_int_max_str_digits(0)
        expected = f"-{3 ** 6000 - 2 ** 9000}/{3 ** 6000 * 2 ** 9000}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == f"FAIL m=1 j=0 value={expected}\n"
