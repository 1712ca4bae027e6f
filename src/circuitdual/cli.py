"""Command-line surface.

    cdl wco describe --spec FILE [--depth N]
    cdl wco dual --spec FILE [--count N]
    cdl moments check [SEQFILE | --from-dual FILE --fiber K] [options]
    cdl family taylor|scan|verdict|figure [options]

Exit codes: 0 success or pass, 1 a mathematical check failed, 2 input
error.  All exact output renders rationals as 'p/q'; CSV output is decimal
unless --exact is given.  Each size flag declares its floor and its cap
(the MAX_* constants below) where it is added, and ``main`` checks every
cap, then every floor, before the command runs; only ``moments check``
checks three floors itself, where its mode or source uses the flag
(--depth, --order, --horizon).  A sequence file (MAX_HORIZON + 1 values)
and every input rational written as p/q, in --x/--xmax and in weight-spec
files (MAX_LITERAL characters), have caps too.  Each message names the flag.
"""

from __future__ import annotations

import argparse
import math
import sys

from .family import (
    FamilyParam,
    FIGURE_MS,
    FIGURE_STEPS,
    FIGURE_X_MAX,
    counterexample_verdict,
    d_taylor,
    figure_rows,
    sign_scan,
)
from .files import load_weight_spec
from .moments import (
    DEFAULT_FLOAT_TOL,
    EXACT,
    FLOAT,
    MomentSeq,
    hausdorff_test,
    stieltjes_test,
)
from .operators import dual_weights, operator_report
from .oracle import hsequence
from .rational import MAX_LITERAL, decimal_str, format_rat, parse_literal

MAX_M = 100                # family taylor|scan --m
MAX_ORDER = 100            # family taylor --order
MAX_STEPS = 10000          # family scan|figure --steps
MAX_DEPTH = 100            # family verdict --depth, moments check --depth
MAX_HORIZON = 100          # family verdict --horizon, moments check --horizon
MAX_HANKEL_ORDER = 50      # moments check --order
MAX_RESIDUAL_DEPTH = 1000  # family verdict --residual-depth, wco describe --depth
MAX_COUNT = 1000           # wco dual --count
MAX_FIBER = 1000           # moments check --fiber


def _check_floor(flag: str, value: int, floor: int):
    if value < floor:
        raise ValueError(f"{flag} must be at least {floor}, got {value}")


def _size(parser, flag: str, floor: int | None, cap: int, **kwargs):
    """Add the integer flag ``flag`` and record its limits in the parser's
    ``sizes`` default; a floor of None is left to the command."""
    parser.add_argument(flag, type=int, **kwargs)
    sizes = parser.get_default("sizes") or ()
    parser.set_defaults(sizes=sizes + ((flag, floor, cap),))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdl",
        description="Exact analysis of weighted composition operators on the "
        "one-circuit graph: 2-isometry checks, Cauchy duals, moment tests.",
    )
    parser.add_argument(
        "--backend",
        choices=(EXACT, FLOAT),
        default=EXACT,
        help="numeric backend for moment checks (default: exact)",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_FLOAT_TOL,
        help="absolute tolerance on the float backend, positive and finite "
        "(ignored on exact)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    wco = sub.add_parser("wco", help="operator inspection")
    wco_sub = wco.add_subparsers(dest="subcommand", required=True)
    describe = wco_sub.add_parser("describe", help="norms, cyclicity, residuals")
    describe.add_argument("--spec", required=True, help="weight-spec file")
    _size(describe, "--depth", 2, MAX_RESIDUAL_DEPTH, default=10)
    describe.set_defaults(run=_cmd_wco_describe)
    dual = wco_sub.add_parser("dual", help="Cauchy dual weights")
    dual.add_argument("--spec", required=True, help="weight-spec file")
    _size(dual, "--count", 1, MAX_COUNT, default=10, help="entries to print")
    dual.set_defaults(run=_cmd_wco_dual)

    moments = sub.add_parser("moments", help="moment-sequence testing")
    moments_sub = moments.add_subparsers(dest="subcommand", required=True)
    check = moments_sub.add_parser("check", help="necessary-conditions test")
    check.add_argument("sequence", nargs="?", help="sequence file, one value per line")
    check.add_argument("--from-dual", metavar="SPEC", help="weight-spec file; "
                       "test the dual moment sequence instead of a file")
    check.add_argument("--mode", choices=("hausdorff", "stieltjes"), default="hausdorff")
    _size(check, "--depth", None, MAX_DEPTH, default=6,
          help="max difference order (hausdorff)")
    _size(check, "--order", None, MAX_HANKEL_ORDER, default=4,
          help="Hankel order (stieltjes)")
    _size(check, "--horizon", None, MAX_HORIZON, default=12,
          help="prefix length for --from-dual")
    _size(check, "--fiber", 0, MAX_FIBER, default=0, help="fiber index for --from-dual")
    check.set_defaults(run=_cmd_moments_check)

    family = sub.add_parser("family", help="the parametric counterexample family")
    family_sub = family.add_subparsers(dest="subcommand", required=True)
    taylor = family_sub.add_parser("taylor", help="derivatives of D_m at 0")
    _size(taylor, "--m", 0, MAX_M, required=True)
    _size(taylor, "--order", 0, MAX_ORDER, default=4)
    taylor.set_defaults(run=_cmd_family_taylor)
    scan = family_sub.add_parser("scan", help="exact sign scan of D_m")
    _size(scan, "--m", 0, MAX_M, required=True)
    scan.add_argument("--xmax", default=str(FIGURE_X_MAX))
    _size(scan, "--steps", 1, MAX_STEPS, default=FIGURE_STEPS)
    scan.set_defaults(run=_cmd_family_scan)
    verdict = family_sub.add_parser("verdict", help="full counterexample pipeline")
    verdict.add_argument("--x", required=True)
    _size(verdict, "--horizon", 0, MAX_HORIZON, default=12)
    _size(verdict, "--depth", 1, MAX_DEPTH, default=5)
    _size(verdict, "--residual-depth", 2, MAX_RESIDUAL_DEPTH, default=50)
    verdict.set_defaults(run=_cmd_family_verdict)
    figure = family_sub.add_parser("figure", help="CSV of D_4, D_5, D_6 samples")
    figure.add_argument("--xmax", default=str(FIGURE_X_MAX))
    _size(figure, "--steps", 1, MAX_STEPS, default=FIGURE_STEPS)
    figure.add_argument("--out", required=True, help="output path, or - for stdout")
    figure.add_argument("--exact", action="store_true", help="write p/q instead of decimals")
    figure.set_defaults(run=_cmd_family_figure)
    return parser


def _cmd_wco_describe(args) -> int:
    w = load_weight_spec(args.spec)
    report = operator_report(w, probe_depth=args.depth)
    print(f"norm_sq={format_rat(report.norm_sq)}")
    print(f"lower_sq={format_rat(report.lower_bound_sq)}")
    print(f"bounded={str(report.bounded).lower()}")
    print(f"cyclic_sufficient={str(report.cyclic_sufficient).lower()}")
    residuals = report.two_isometry_residuals
    bad = next(((n, r) for n, r in enumerate(residuals) if r != 0), None)
    if bad is None:
        print(f"residuals: all zero (depth {args.depth})")
    else:
        n, r = bad
        print(f"residuals: first nonzero at n={n} value={format_rat(r)} "
              f"(depth {args.depth})")
    return 0


def _cmd_wco_dual(args) -> int:
    w = load_weight_spec(args.spec)
    dual = dual_weights(w)
    report = operator_report(dual, probe_depth=2)  # the norms ignore the depth
    print(f"alpha={format_rat(dual.alpha)}")
    print(f"norm_sq={format_rat(report.norm_sq)}")
    print(f"lower_sq={format_rat(report.lower_bound_sq)}")
    for n in range(args.count):
        print(f"sq'({n})={format_rat(dual.sq(n))}")
    return 0


def _cmd_moments_check(args) -> int:
    if (args.sequence is None) == (args.from_dual is None):
        raise ValueError("give a sequence file or --from-dual, not both")
    if args.sequence is not None:
        # at most as long as the longest --from-dual prefix
        seq = MomentSeq.from_file(args.sequence, cap=MAX_HORIZON + 1)
    else:
        w = load_weight_spec(args.from_dual)
        _check_floor("--horizon", args.horizon, 0)
        seq = hsequence(dual_weights(w), args.fiber, args.horizon)
    if args.backend == FLOAT:
        seq = seq.to_floats()
    if args.mode == "hausdorff":
        _check_floor("--depth", args.depth, 1)
        verdict = hausdorff_test(seq, args.depth, tol=args.tol)
    else:
        _check_floor("--order", args.order, 1)
        verdict = stieltjes_test(seq, args.order, tol=args.tol)
    print(verdict.render())
    return 0 if verdict.passed else 1


def _cmd_family_taylor(args) -> int:
    values = d_taylor(args.m, args.order)
    print(" ".join(format_rat(v) for v in values))
    return 0


def _cmd_family_scan(args) -> int:
    report = sign_scan(args.m, parse_literal("--xmax", args.xmax), args.steps)
    print(report.summary())
    glyphs = {-1: "-", 0: "0", 1: "+"}
    print("signs: " + "".join(glyphs[s] for s in report.signs))
    if report.first_nonnegative is None:
        print("no nonnegative sample")
    else:
        print(f"first nonnegative sample at x={format_rat(report.first_nonnegative)}")
    return 0


def _cmd_family_verdict(args) -> int:
    verdict = counterexample_verdict(
        FamilyParam(parse_literal("--x", args.x)),
        depth=args.depth,
        horizon=args.horizon,
        residual_depth=args.residual_depth,
    )
    print(verdict.render())
    return 0 if verdict.confirmed else 1


def _cmd_family_figure(args) -> int:
    rows = figure_rows(parse_literal("--xmax", args.xmax), args.steps)
    render = format_rat if args.exact else decimal_str
    lines = ["x," + ",".join(f"D{m}" for m in FIGURE_MS)]
    for x, values in rows:
        lines.append(",".join([render(x)] + [render(v) for v in values]))
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# holds no per-call state; built at import so that forked workers inherit it
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.backend == FLOAT and not 0 < args.tol < math.inf:
            raise ValueError(
                f"--tol must be positive and finite, got {args.tol!r}"
            )
        # every cap of the command, then every floor, in declaration order
        values = [getattr(args, flag[2:].replace("-", "_")) for flag, _, _ in args.sizes]
        for (flag, _, cap), value in zip(args.sizes, values):
            if value > cap:
                raise ValueError(f"{flag} must be at most {cap}, got {value}")
        for (flag, floor, _), value in zip(args.sizes, values):
            if floor is not None:
                _check_floor(flag, value, floor)
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
