"""Command-line surface.

    cdl wco describe --spec FILE [--depth N]
    cdl wco dual --spec FILE [--count N]
    cdl moments check [SEQFILE | --from-dual FILE --fiber K] [options]
    cdl family taylor|scan|verdict|figure [options]

Exit codes: 0 success or pass, 1 a mathematical check failed, 2 input
error.  All exact output renders rationals as 'p/q'; CSV output is decimal
unless --exact is given.  Each size flag declares its floor and its cap
(the MAX_* constants below) in ``_COMMANDS``, and ``main`` checks every
cap, then every floor, before the command runs; only ``moments check``
checks three floors itself, where its mode or source uses the flag
(--depth, --order, --horizon).  A sequence file (MAX_HORIZON + 1 values),
a weight-spec file (MAX_SPEC_CHARS characters) and every input rational
written as p/q, in --x/--xmax and in weight-spec files (MAX_LITERAL
characters), have caps too.  Each message names the flag.

``_COMMANDS`` declares the grammar once, as a plain table.  ``main`` reads
a plain argument list from it with ``_fast_parse`` and builds an argparse
tree from it, importing argparse, only where the table cannot vouch for its
result: help, a usage error, an abbreviation, --flag=value, --, a negative
number or a repeated option.  argparse stays the one source of help, usage
and error text, and a plain command never imports it.
"""

from __future__ import annotations

import math
import sys
import types

from .family import (
    FamilyParam,
    FIGURE_MS,
    FIGURE_STEPS,
    FIGURE_X_MAX,
    counterexample_verdict,
    d_taylor,
    figure_pairs,
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
from .rational import MAX_LITERAL, decimal_pair, format_pair, format_rat, parse_literal

MAX_M = 100                # family taylor|scan --m
MAX_ORDER = 100            # family taylor --order
MAX_STEPS = 10000          # family scan|figure --steps
MAX_DEPTH = 100            # family verdict --depth, moments check --depth
MAX_HORIZON = 100          # family verdict --horizon, moments check --horizon
MAX_HANKEL_ORDER = 50      # moments check --order
MAX_RESIDUAL_DEPTH = 1000  # family verdict --residual-depth (a label), wco describe --depth
                           # (the printed scope): sizes no work, every report stops at L + 1
MAX_COUNT = 1000           # wco dual --count
MAX_FIBER = 1000           # moments check --fiber


def _check_floor(flag: str, value: int, floor: int):
    if value < floor:
        raise ValueError(f"{flag} must be at least {floor}, got {value}")


def _cmd_wco_describe(args) -> int:
    w = load_weight_spec(args.spec)
    report = operator_report(w)
    print(f"norm_sq={format_rat(report.norm_sq)}")
    print(f"lower_sq={format_rat(report.lower_bound_sq)}")
    print(f"bounded={str(report.bounded).lower()}")
    print(f"cyclic_sufficient={str(report.cyclic_sufficient).lower()}")
    residuals = report.two_isometry_residuals[:args.depth + 1]
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
    report = operator_report(dual)
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
    rows = figure_pairs(parse_literal("--xmax", args.xmax), args.steps)
    render = format_pair if args.exact else decimal_pair
    lines = ["x," + ",".join(f"D{m}" for m in FIGURE_MS)]
    for x, values in rows:
        lines.append(",".join([render(*x)] + [render(*v) for v in values]))
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# Each command path, a group before its subcommands, maps to (help text,
# arguments, handler or None for a group).  Each argument, in declaration
# order, maps to the keyword arguments of argparse's add_argument; a size
# flag also carries its floor (None: the command checks it) and its cap.
_COMMANDS = {
    (): ("Exact analysis of weighted composition operators on the one-circuit graph: "
         "2-isometry checks, Cauchy duals, moment tests.", {
        "--backend": dict(choices=(EXACT, FLOAT), default=EXACT,
                          help="numeric backend for moment checks (default: exact)"),
        "--tol": dict(type=float, default=DEFAULT_FLOAT_TOL, help="absolute tolerance on "
                      "the float backend, positive and finite (ignored on exact)"),
    }, None),
    ("wco",): ("operator inspection", {}, None),
    ("wco", "describe"): ("norms, cyclicity, residuals", {
        "--spec": dict(required=True, help="weight-spec file"),
        "--depth": dict(type=int, default=10, floor=2, cap=MAX_RESIDUAL_DEPTH),
    }, _cmd_wco_describe),
    ("wco", "dual"): ("Cauchy dual weights", {
        "--spec": dict(required=True, help="weight-spec file"),
        "--count": dict(type=int, default=10, help="entries to print", floor=1, cap=MAX_COUNT),
    }, _cmd_wco_dual),
    ("moments",): ("moment-sequence testing", {}, None),
    ("moments", "check"): ("necessary-conditions test", {
        "sequence": dict(nargs="?", help="sequence file, one value per line"),
        "--from-dual": dict(metavar="SPEC", help="weight-spec file; test the dual "
                            "moment sequence instead of a file"),
        "--mode": dict(choices=("hausdorff", "stieltjes"), default="hausdorff"),
        "--depth": dict(type=int, default=6, help="max difference order (hausdorff)",
                        floor=None, cap=MAX_DEPTH),
        "--order": dict(type=int, default=4, help="Hankel order (stieltjes)",
                        floor=None, cap=MAX_HANKEL_ORDER),
        "--horizon": dict(type=int, default=12, help="prefix length for --from-dual",
                          floor=None, cap=MAX_HORIZON),
        "--fiber": dict(type=int, default=0, help="fiber index for --from-dual",
                        floor=0, cap=MAX_FIBER),
    }, _cmd_moments_check),
    ("family",): ("the parametric counterexample family", {}, None),
    ("family", "taylor"): ("derivatives of D_m at 0", {
        "--m": dict(type=int, required=True, floor=0, cap=MAX_M),
        "--order": dict(type=int, default=4, floor=0, cap=MAX_ORDER),
    }, _cmd_family_taylor),
    ("family", "scan"): ("exact sign scan of D_m", {
        "--m": dict(type=int, required=True, floor=0, cap=MAX_M),
        "--xmax": dict(default=str(FIGURE_X_MAX)),
        "--steps": dict(type=int, default=FIGURE_STEPS, floor=1, cap=MAX_STEPS),
    }, _cmd_family_scan),
    ("family", "verdict"): ("full counterexample pipeline", {
        "--x": dict(required=True),
        "--horizon": dict(type=int, default=12, floor=0, cap=MAX_HORIZON),
        "--depth": dict(type=int, default=5, floor=1, cap=MAX_DEPTH),
        "--residual-depth": dict(type=int, default=50, floor=2, cap=MAX_RESIDUAL_DEPTH),
    }, _cmd_family_verdict),
    ("family", "figure"): ("CSV of D_4, D_5, D_6 samples", {
        "--xmax": dict(default=str(FIGURE_X_MAX)),
        "--steps": dict(type=int, default=FIGURE_STEPS, floor=1, cap=MAX_STEPS),
        "--out": dict(required=True, help="output path, or - for stdout"),
        "--exact": dict(action="store_true", help="write p/q instead of decimals"),
    }, _cmd_family_figure),
}
_DESTS = ("command", "subcommand")  # the dest of the subcommand at each depth


def _build_parser():
    """The argparse tree of ``_COMMANDS``, the one source of help, usage and
    error text; ``main`` builds it only for a list ``_fast_parse`` leaves."""
    import argparse

    root, groups = argparse.ArgumentParser(prog="cdl", description=_COMMANDS[()][0]), {}
    for path, (text, arguments, run) in _COMMANDS.items():
        parser = groups[path[:-1]].add_parser(path[-1], help=text) if path else root
        for name, spec in arguments.items():
            parser.add_argument(name, **{key: value for key, value in spec.items()
                                         if key not in ("floor", "cap")})
        if run is None:
            groups[path] = parser.add_subparsers(dest=_DESTS[len(path)], required=True)
    return root


def _node(path, arguments, run) -> tuple:
    """What ``_fast_parse`` and ``main`` read of one command: (options,
    positionals, defaults, required dests, subcommand dest, sizes), each
    option string and positional as (dest, type, choices, store_true) and
    each size flag as (flag, dest, floor, cap).  It knows only the kinds of
    argument the table uses: one value, a positional with nargs '?',
    store_true; tests/test_cli_fast_parse.py checks it against argparse."""
    options, positionals, defaults, required, sizes = {}, [], {}, set(), []
    for name, spec in arguments.items():
        dest = name.lstrip("-").replace("-", "_")
        if "cap" in spec:
            sizes.append((name, dest, spec["floor"], spec["cap"]))
        store_true = spec.get("action") == "store_true"
        entry = (dest, spec.get("type"), spec.get("choices"), store_true)
        if name[0] == "-":
            options[name] = entry
        else:
            positionals.append(entry)
        defaults[dest] = spec.get("default", False if store_true else None)
        if spec.get("required"):
            required.add(dest)
    sub = None if run else _DESTS[len(path)]
    if sub:
        required.add(sub)
    return options, positionals, defaults, required, sub, sizes


_NODES = {path: _node(path, arguments, run) for path, (_, arguments, run) in _COMMANDS.items()}


def _is_option(token: str) -> bool:
    return token[:1] == "-" and token != "-"


def _fast_parse(argv):
    """``vars(_build_parser().parse_args(argv))``, read from ``_NODES``, or
    None wherever argparse might act otherwise: a token starting with '-'
    that is not an option string of its command (help, an abbreviation,
    --flag=value, --, a negative number), a repeated option, an unknown or
    missing subcommand, a missing required option, an extra positional, or
    a value that its type or choices refuse.  Only the lone '-' is a value."""
    namespace, path, tokens = {}, (), iter(argv)
    while True:
        node = _NODES.get(path)
        if node is None:
            return None
        options, positionals, defaults, required, sub, _ = node
        values, positionals = {}, iter(positionals)
        for token in tokens:
            if _is_option(token):
                dest, kind, choices, store_true = options.get(token, (None,) * 4)
                if dest is None or dest in values:
                    return None
                if store_true:
                    values[dest] = True
                    continue
                token = next(tokens, None)
                if token is None or _is_option(token):
                    return None
            elif sub is not None:
                values[sub] = token
                path += (token,)
                break
            else:
                dest, kind, choices, _ = next(positionals, (None,) * 4)
                if dest is None:
                    return None
            try:
                values[dest] = token if kind is None else kind(token)
            except (TypeError, ValueError):
                return None
            if choices is not None and values[dest] not in choices:
                return None
        if not required <= values.keys():
            return None
        # a subcommand's values, defaults included, replace its parent's
        namespace |= defaults
        namespace |= values
        if sub not in values:
            return namespace


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)  # both parsers may read it
    values = _fast_parse(argv) or vars(_build_parser().parse_args(argv))
    path = tuple([values[dest] for dest in _DESTS])
    run, sizes = _COMMANDS[path][2], _NODES[path][-1]
    try:
        if values["backend"] == FLOAT and not 0 < values["tol"] < math.inf:
            raise ValueError(
                f"--tol must be positive and finite, got {values['tol']!r}"
            )
        # every cap of the command, then every floor, in declaration order
        for flag, dest, _, cap in sizes:
            if values[dest] > cap:
                raise ValueError(f"{flag} must be at most {cap}, got {values[dest]}")
        for flag, dest, floor, _ in sizes:
            if floor is not None:
                _check_floor(flag, values[dest], floor)
        return run(types.SimpleNamespace(**values))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
