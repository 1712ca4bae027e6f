"""Command-line surface.

    cdl wco describe --spec FILE [--depth N]
    cdl wco dual --spec FILE [--count N]
    cdl moments check [SEQFILE | --from-dual FILE --fiber K] [options]
    cdl family taylor|scan|verdict|figure [options]

Exit codes: 0 success or pass, 1 a mathematical check failed, 2 input
error.  All exact output renders rationals as 'p/q'; CSV output is decimal
unless --exact is given.  CDL_BACKEND=exact|float presets the backend for
moment checks (flag wins over the environment).  Every size flag, and the
length of the --x/--xmax values written as p/q, has a cap (the MAX_*
constants below); a larger request is an input error.
"""

from __future__ import annotations

import argparse
import os
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
from .rational import decimal_str, format_rat, parse_rat

MAX_M = 100                # family taylor|scan --m
MAX_ORDER = 100            # family taylor --order
MAX_STEPS = 10000          # family scan|figure --steps
MAX_DEPTH = 100            # family verdict --depth, moments check --depth
MAX_HORIZON = 100          # family verdict --horizon, moments check --horizon
MAX_HANKEL_ORDER = 50      # moments check --order
MAX_RESIDUAL_DEPTH = 1000  # family verdict --residual-depth, wco describe --depth
MAX_COUNT = 1000           # wco dual --count
MAX_FIBER = 1000           # moments check --fiber
MAX_LITERAL = 21           # characters of --x, --xmax, written as p/q


def _check_cap(flag: str, value: int, cap: int):
    if value > cap:
        raise ValueError(f"{flag} must be at most {cap}, got {value}")


def _check_floor(flag: str, value: int, floor: int):
    if value < floor:
        raise ValueError(f"{flag} must be at least {floor}, got {value}")


def _parse_literal(flag: str, text: str):
    """A rational flag value.  The cost of the exact work grows with its
    size, so its p/q form is capped: '1e99' is short but has 100 digits."""
    value = parse_rat(text)
    written = len(format_rat(value))
    if written > MAX_LITERAL:
        raise ValueError(
            f"{flag} must be at most {MAX_LITERAL} characters, got {written}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdl",
        description="Exact analysis of weighted composition operators on the "
        "one-circuit graph: 2-isometry checks, Cauchy duals, moment tests.",
    )
    parser.add_argument(
        "--backend",
        choices=(EXACT, FLOAT),
        default=None,
        help="numeric backend for moment checks (default: CDL_BACKEND or exact)",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_FLOAT_TOL,
        help="absolute tolerance on the float backend (ignored on exact)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    wco = sub.add_parser("wco", help="operator inspection")
    wco_sub = wco.add_subparsers(dest="subcommand", required=True)
    describe = wco_sub.add_parser("describe", help="norms, cyclicity, residuals")
    describe.add_argument("--spec", required=True, help="weight-spec file")
    describe.add_argument("--depth", type=int, default=10)
    dual = wco_sub.add_parser("dual", help="Cauchy dual weights")
    dual.add_argument("--spec", required=True, help="weight-spec file")
    dual.add_argument("--count", type=int, default=10, help="entries to print")

    moments = sub.add_parser("moments", help="moment-sequence testing")
    moments_sub = moments.add_subparsers(dest="subcommand", required=True)
    check = moments_sub.add_parser("check", help="necessary-conditions test")
    check.add_argument("sequence", nargs="?", help="sequence file, one value per line")
    check.add_argument("--from-dual", metavar="SPEC", help="weight-spec file; "
                       "test the dual moment sequence instead of a file")
    check.add_argument("--fiber", type=int, default=0, help="fiber index for --from-dual")
    check.add_argument("--mode", choices=("hausdorff", "stieltjes"), default="hausdorff")
    check.add_argument("--depth", type=int, default=6, help="max difference order (hausdorff)")
    check.add_argument("--order", type=int, default=4, help="Hankel order (stieltjes)")
    check.add_argument("--horizon", type=int, default=12, help="prefix length for --from-dual")

    family = sub.add_parser("family", help="the parametric counterexample family")
    family_sub = family.add_subparsers(dest="subcommand", required=True)
    taylor = family_sub.add_parser("taylor", help="derivatives of D_m at 0")
    taylor.add_argument("--m", type=int, required=True)
    taylor.add_argument("--order", type=int, default=4)
    scan = family_sub.add_parser("scan", help="exact sign scan of D_m")
    scan.add_argument("--m", type=int, required=True)
    scan.add_argument("--xmax", default=str(FIGURE_X_MAX))
    scan.add_argument("--steps", type=int, default=FIGURE_STEPS)
    verdict = family_sub.add_parser("verdict", help="full counterexample pipeline")
    verdict.add_argument("--x", required=True)
    verdict.add_argument("--depth", type=int, default=5)
    verdict.add_argument("--horizon", type=int, default=12)
    verdict.add_argument("--residual-depth", type=int, default=50)
    figure = family_sub.add_parser("figure", help="CSV of D_4, D_5, D_6 samples")
    figure.add_argument("--xmax", default=str(FIGURE_X_MAX))
    figure.add_argument("--steps", type=int, default=FIGURE_STEPS)
    figure.add_argument("--out", required=True, help="output path, or - for stdout")
    figure.add_argument("--exact", action="store_true", help="write p/q instead of decimals")
    return parser


def _resolve_backend(args) -> str:
    if args.backend is not None:
        return args.backend
    env = os.environ.get("CDL_BACKEND", EXACT)
    if env not in (EXACT, FLOAT):
        raise ValueError(f"CDL_BACKEND must be 'exact' or 'float', got {env!r}")
    return env


def _cmd_wco_describe(args) -> int:
    _check_cap("--depth", args.depth, MAX_RESIDUAL_DEPTH)
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
    _check_cap("--count", args.count, MAX_COUNT)
    _check_floor("--count", args.count, 1)
    w = load_weight_spec(args.spec)
    dual = dual_weights(w)
    report = operator_report(dual, probe_depth=max(args.count, 2))
    print(f"alpha={format_rat(dual.alpha)}")
    print(f"norm_sq={format_rat(report.norm_sq)}")
    print(f"lower_sq={format_rat(report.lower_bound_sq)}")
    for n in range(args.count):
        print(f"sq'({n})={format_rat(dual.sq(n))}")
    return 0


def _cmd_moments_check(args, backend: str, tol: float) -> int:
    _check_cap("--depth", args.depth, MAX_DEPTH)
    _check_cap("--order", args.order, MAX_HANKEL_ORDER)
    _check_cap("--horizon", args.horizon, MAX_HORIZON)
    _check_cap("--fiber", args.fiber, MAX_FIBER)
    _check_floor("--fiber", args.fiber, 0)
    if (args.sequence is None) == (args.from_dual is None):
        raise ValueError("give a sequence file or --from-dual, not both")
    if args.sequence is not None:
        seq = MomentSeq.from_file(args.sequence, backend)
    else:
        w = load_weight_spec(args.from_dual)
        seq = hsequence(dual_weights(w), args.fiber, args.horizon)
        if backend == FLOAT:
            seq = seq.to_floats()
    if args.mode == "hausdorff":
        verdict = hausdorff_test(seq, args.depth, tol=tol)
    else:
        verdict = stieltjes_test(seq, args.order, tol=tol)
    print(verdict.render())
    return 0 if verdict.passed else 1


def _cmd_family_taylor(args) -> int:
    _check_cap("--m", args.m, MAX_M)
    _check_cap("--order", args.order, MAX_ORDER)
    values = d_taylor(args.m, args.order)
    print(" ".join(format_rat(v) for v in values))
    return 0


def _cmd_family_scan(args) -> int:
    _check_cap("--m", args.m, MAX_M)
    _check_cap("--steps", args.steps, MAX_STEPS)
    report = sign_scan(args.m, _parse_literal("--xmax", args.xmax), args.steps)
    print(report.summary())
    glyphs = {-1: "-", 0: "0", 1: "+"}
    print("signs: " + "".join(glyphs[s] for s in report.signs))
    if report.first_nonnegative is None:
        print("no nonnegative sample")
    else:
        print(f"first nonnegative sample at x={format_rat(report.first_nonnegative)}")
    return 0


def _cmd_family_verdict(args) -> int:
    _check_cap("--horizon", args.horizon, MAX_HORIZON)
    _check_cap("--depth", args.depth, MAX_DEPTH)
    _check_cap("--residual-depth", args.residual_depth, MAX_RESIDUAL_DEPTH)
    verdict = counterexample_verdict(
        FamilyParam(_parse_literal("--x", args.x)),
        depth=args.depth,
        horizon=args.horizon,
        residual_depth=args.residual_depth,
    )
    print(verdict.render())
    return 0 if verdict.confirmed else 1


def _cmd_family_figure(args) -> int:
    _check_cap("--steps", args.steps, MAX_STEPS)
    rows = figure_rows(_parse_literal("--xmax", args.xmax), args.steps)
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        backend = _resolve_backend(args)
        if args.tol <= 0 and backend == FLOAT:
            raise ValueError("float tolerance must be positive")
        if args.command == "wco":
            if args.subcommand == "describe":
                return _cmd_wco_describe(args)
            return _cmd_wco_dual(args)
        if args.command == "moments":
            return _cmd_moments_check(args, backend, args.tol)
        if args.subcommand == "taylor":
            return _cmd_family_taylor(args)
        if args.subcommand == "scan":
            return _cmd_family_scan(args)
        if args.subcommand == "verdict":
            return _cmd_family_verdict(args)
        return _cmd_family_figure(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
