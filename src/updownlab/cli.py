"""Command-line front end: verification runs, single-value queries, and
reconstruction of the three CM-point tables.

Exit codes: 0 success, 1 verification failure, 2 usage error (an unknown
option prints the top-level usage line), 3 corpus error. Decimal output
carries exactly ``digits`` significant figures, rounded half-even, so
repeated runs are byte-identical; ``epstein --gamma0`` prints fewer when its
lattice tail bound certifies fewer.
"""

from __future__ import annotations

import argparse
import decimal
import glob
import json
import math
import os
import sys

import mpmath
from mpmath import mpf

from .numerics import DomainError, PrecisionContext
from .lfunctions import dirichlet_l2
from .epstein import epstein_gamma0, epstein_sl2
from .modular import _LEVELS, CMPoint, alpha_n, series_constants_from_cm
from . import identities as ident
from .identities import check_table, load_tables  # noqa: F401 (re-exported)

ENV_DIGITS = "UPDOWNLAB_DIGITS"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CORPUS = 3


def format_ap(value, digits: int) -> str:
    """Fixed-notation decimal string with exactly ``digits`` significant
    figures, round-half-even. A complex value whose imaginary part is at most
    10^-digits of its modulus prints as real, and one whose real part is
    that small prints as imaginary: those digits are rounding noise."""
    if hasattr(value, "imag"):
        noise = abs(value) * mpf(10) ** -digits
        if abs(value.imag) <= noise:
            value = value.real
        elif abs(value.real) <= noise:
            return f"{format_ap(value.imag, digits)}*i"
        else:
            return (f"{format_ap(value.real, digits)} + "
                    f"{format_ap(value.imag, digits)}*i")
    if not isinstance(value, mpf):
        # Convert at enough precision; mpf() rounds to the ambient context.
        with mpmath.workdps(digits + 10):
            value = mpf(value)
    raw = mpmath.nstr(value, digits + 10, strip_zeros=False)
    with decimal.localcontext() as dctx:
        dctx.prec = digits
        dctx.rounding = decimal.ROUND_HALF_EVEN
        # A subnormal result would keep fewer than ``digits`` figures.
        dctx.traps[decimal.Subnormal] = True
        try:
            d = +decimal.Decimal(raw)
        except (decimal.InvalidOperation, decimal.Overflow, decimal.Subnormal):
            # An exponent of 10 or more digits is named to 3 significant
            # figures, so the message stays one short line.
            exp = int(raw.partition('e')[2] or 0)
            shown = exp if abs(exp) < 10**9 else mpmath.nstr(mpf(exp), 3)
            raise DomainError(f"decimal exponent {shown} "
                              f"is beyond the printable range +-{dctx.Emax}") from None
    return format(d, "f")


def _report_dict(r: ident.VerificationReport, timings: bool) -> dict:
    out = {
        "id": r.id,
        "digits": r.digits,
        "lhs_value": format_ap(r.lhs_value, r.digits),
        "rhs_value": format_ap(r.rhs_value, r.digits),
        "abs_residual": mpmath.nstr(r.abs_residual, 3),
        "pass": r.passed,
        "terms_used": r.terms_used,
    }
    if timings:
        out["elapsed_ms"] = round(r.elapsed_ms, 1)
    return out


def _emit(args, payload: dict, lines) -> None:
    """``payload`` as indented JSON under --json, else the text ``lines``."""
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(*lines, sep="\n")


def _emit_reports(reports, args) -> int:
    passed = sum(r.passed for r in reports)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.id:<20} residual "
             f"{mpmath.nstr(r.abs_residual, 3):>10} terms {r.terms_used}"
             + (f" ({r.elapsed_ms:.0f} ms)" if args.timings else "") for r in reports]
    _emit(args, {
        "reports": [_report_dict(r, args.timings) for r in reports],
        "summary": {"total": len(reports), "passed": passed,
                    "failed": len(reports) - passed, "digits": args.digits},
    }, lines + [f"{passed}/{len(reports)} passed at {args.digits} digits"])
    return EXIT_OK if passed == len(reports) else EXIT_VERIFY_FAILED


def cmd_verify(args, ctx: PrecisionContext) -> int:
    try:
        corpus = ident.load_corpus(args.corpus)
    except (ident.CorpusError, OSError) as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return EXIT_CORPUS
    # An --id is matched literally; no --id and no --filter selects everything.
    pattern = args.filter if args.id is None else glob.escape(args.id)
    reports = ident.verify_all(ctx, pattern, corpus)
    if pattern is not None and not reports:
        print(f"unknown id: {args.id}" if args.id is not None
              else f"filter matched nothing: {pattern}", file=sys.stderr)
        return EXIT_USAGE
    return _emit_reports(reports, args)


def cmd_lvalue(args, ctx: PrecisionContext) -> int:
    value = dirichlet_l2(args.d, ctx)
    _print_value(f"L_{args.d}(2)", value, args)
    return EXIT_OK


def cmd_epstein(args, ctx: PrecisionContext) -> int:
    z = CMPoint.from_string(args.z)
    if not args.gamma0:
        _print_value(f"E({args.z}, 2)", epstein_sl2(z, ctx), args)
        return EXIT_OK
    value, tail = epstein_gamma0(z, args.gamma0, ctx)
    label = f"E_gamma0({args.gamma0})({args.z}, 2)"
    # The float lattice sum is good to its tail bound: print only the
    # significant digits that bound certifies.
    digits = min(args.digits, math.floor(math.log10(float(abs(value) / tail))))
    if digits < 1:
        raise DomainError(f"{label}: tail bound {mpmath.nstr(tail, 3)} "
                          "leaves no certified digit")
    _print_value(label, value, args, digits, tail)
    return EXIT_OK


def cmd_alpha(args, ctx: PrecisionContext) -> int:
    z = CMPoint.from_string(args.z)
    value = alpha_n(z, args.N, ctx)
    _print_value(f"alpha_{args.N}({args.z})", value, args)
    return EXIT_OK


def cmd_constants(args, ctx: PrecisionContext) -> int:
    z = CMPoint.from_string(args.z)
    texts = {name: format_ap(value, args.digits) for name, value
             in zip(("c1", "c2", "m"), series_constants_from_cm(z, args.N, ctx))}
    _emit(args, {"z": args.z, "N": args.N, "digits": args.digits, **texts},
          [f"{name:<2} = {text}" for name, text in texts.items()])
    return EXIT_OK


def _print_value(label, value, args, digits=None, tail=None) -> None:
    """One value at ``digits`` significant figures (default --digits), with
    the tail bound of a truncated sum if one is given."""
    digits = digits or args.digits
    out = {"label": label, "digits": digits, "value": format_ap(value, digits)}
    note = ""
    if tail is not None:
        out["tail"] = mpmath.nstr(tail, 3)
        note = f" (tail bound {out['tail']})"
    _emit(args, out, [f"{label} = {out['value']}{note}"])


def cmd_tables(args, ctx: PrecisionContext) -> int:
    cells = [{"row": r, "cell": c, "residual": mpmath.nstr(res, 3),
              "pass": bool(res < ctx.verdict_tol)}
             for r, c, res in check_table(args.table, ctx)]
    passed = sum(cell["pass"] for cell in cells)
    lines = [f"{'PASS' if cell['pass'] else 'FAIL'} table {args.table} "
             f"{cell['row']:<24} {cell['cell']}: residual {cell['residual']}"
             for cell in cells]
    _emit(args, {"table": args.table, "digits": args.digits, "cells": cells,
                 "pass": passed == len(cells)},
          lines + [f"table {args.table}: {passed}/{len(cells)} cells match"])
    return EXIT_OK if passed == len(cells) else EXIT_VERIFY_FAILED


# -- argument parsing ------------------------------------------------------

def _default_digits() -> int:
    """$UPDOWNLAB_DIGITS, or 40 when it is unset; PrecisionContext applies
    the floor of 10."""
    raw = os.environ.get(ENV_DIGITS, "40")
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{ENV_DIGITS} must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    # argparse prints the usage line and "updownlab <command>: error: ..."
    # to stderr and exits 2, which is EXIT_USAGE.
    parser = argparse.ArgumentParser(
        prog="updownlab",
        description="High-precision verification of fast converging irrational series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--digits", type=int, default=None,
                       help="significant digits (default 40, or $%s)" % ENV_DIGITS)
        p.add_argument("--json", action="store_true", help="JSON output")
        p.set_defaults(func=func)
        return p

    p = command("verify", cmd_verify, "verify corpus identities")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="verify everything")
    group.add_argument("--id", help="verify a single record")
    group.add_argument("--filter", help="glob over record ids")
    p.add_argument("--corpus", default=None, help="corpus JSON path")
    p.add_argument("--timings", action="store_true",
                   help="include elapsed milliseconds in reports")

    p = command("lvalue", cmd_lvalue, "Dirichlet L-value L_d(2)")
    p.add_argument("--d", type=int, required=True)

    p = command("epstein", cmd_epstein, "Epstein zeta value at s = 2")
    p.add_argument("--z", required=True, help="CM point, e.g. \"i\" or "
                   "\"1/2+1/7*sqrt(7)*i\"")
    p.add_argument("--gamma0", type=int, choices=_LEVELS, default=None,
                   help="level-N coset sum instead of the full sum, as a "
                        "float lattice sum printed to the digits its tail "
                        "bound certifies")

    for name, func, summary in (("alpha", cmd_alpha, "modular invariant alpha_N(z)"),
                                ("constants", cmd_constants,
                                 "series constants (c1, c2, m) at z")):
        p = command(name, func, summary)
        p.add_argument("--z", required=True)
        p.add_argument("--N", type=int, choices=_LEVELS, required=True)

    p = command("tables", cmd_tables, "reconstruct one of the three tables")
    p.add_argument("--table", type=int, choices=(1, 2, 3), required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # The environment is read only when --digits is not given.
        if args.digits is None:
            args.digits = _default_digits()
        return args.func(args, PrecisionContext(digits=args.digits))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
