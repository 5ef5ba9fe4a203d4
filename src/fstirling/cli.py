"""Batch command line front end.

    fstirling triangle  --kind s1|s2 --f <dsl> --t <t> --rows N [--format json|csv]
    fstirling harmonic  --f <dsl> --t <t> --p P --n N [--method direct|ftilde|roots]
                        [--decimal K]
    fstirling harmonic  --f <dsl> --p P --n N --method subst [--decimal K]
    fstirling convpoly  --f <dsl> --t <t> --variant sigma|sigma~ --n-max N --x-max X
                        [--format csv [--decimal K] | --format json]
    fstirling eulersum  --f <dsl> --r R --N TERMS --mode harmonic_over_f|fzeta|fzeta2r [--decimal K]
    fstirling verify    --suite <name>|all --f <dsl> --t <t> [--max-n N]

Exit codes: 0 success with all checks passing, 1 identity-check failure
(reports still written), 2 usage or configuration error, 141 (128 + SIGPIPE)
when the reader of standard output closes it early.  Bad input is rejected
here, at the boundary; an error inside the library is a program fault and
exits with its traceback, never with 2.

Only argument parsing is imported up front; each command imports the
modules it runs, so a cheap command does not load the verification suites.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .fspec import FSpecError, parse_fspec

SUITES = [
    "s1-oracle",
    "s2-geom",
    "s2star-ogf",
    "s2star-egf",
    "harmonic-routes",
    "wf",
    "corollary",
    "prop1",
    "prop2",
    "euler-identity",
    "convpoly-rec",
    "gf-special",
    "eulerian2",
    "conv-shift",
    "experimental-fit",
    "euler-sum-numeric",
]


class UsageError(Exception):
    pass


def _parse_t(text: str):
    if text in ("sym", "symbolic", "t"):
        return "t"
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad t value {text!r}: {exc}") from exc
    if not value:
        raise UsageError("t must be nonzero")
    return value


def _fixed_str(whole: int, digits: int) -> str:
    """Render whole / 10^digits with exactly ``digits`` decimals."""
    sign = "-" if whole < 0 else ""
    intpart, frac = divmod(abs(whole), 10 ** digits)
    return f"{sign}{intpart}.{str(frac).zfill(digits)}"


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _render_scalar(value, decimal: int | None) -> str:
    from .laurent import LaurentPoly

    if isinstance(value, LaurentPoly) and value.is_constant():
        value = value.constant_value()
    if decimal is not None and isinstance(value, Fraction):
        return _fixed_str(value.numerator * 10 ** decimal // value.denominator, decimal)
    return str(value)


def cmd_triangle(args) -> int:
    from . import stirling
    from .factorial import check_config
    from .report import digits_unlimited, json_text

    spec = parse_fspec(args.f)
    t = _parse_t(args.t)
    if args.kind == "s1":
        tri = stirling.s1_triangle(spec, t, args.rows)
    else:
        tp = check_config(spec, t)
        entries = tuple(stirling.s2_row(spec, tp, n, n + 1) for n in range(args.rows + 1))
        tri = stirling.Triangle(spec, tp, args.rows, entries)
    with digits_unlimited():
        text = json_text(tri.to_json()) if args.format == "json" else tri.to_csv()
    _emit(text, args.output)
    return 0


def cmd_harmonic(args) -> int:
    from . import fharmonic
    from .cyclotomic import is_prime
    from .factorial import check_config
    from .report import digits_unlimited

    if args.method == "subst" and args.t is not None:
        raise UsageError("--t does not apply to --method subst, which works at t = u^p")
    spec = parse_fspec(args.f)
    t = _parse_t("1" if args.t is None else args.t)
    tp = check_config(spec, t)
    if args.method == "roots" and not is_prime(args.p):
        raise UsageError(f"root-of-unity route requires prime p, got {args.p}")
    if args.p < 1:
        raise UsageError("order p must be >= 1")
    if args.method == "direct":
        value = fharmonic.fharmonic_direct(spec, args.p, args.n, tp ** args.p)
    elif args.method == "ftilde":
        value = fharmonic.harmonic_via_ftilde(spec, tp, args.p, args.n)
    elif args.method == "roots":
        value = fharmonic.harmonic_via_roots(spec, tp, args.p, args.n)
    else:
        value = fharmonic.harmonic_via_subst(spec, args.p, args.n)
    with digits_unlimited():
        text = _render_scalar(value, args.decimal)
    _emit(text, args.output)
    return 0


def cmd_convpoly(args) -> int:
    from . import convpoly, stirling
    from .factorial import check_config
    from .report import digits_unlimited, json_text, render_t, render_value

    if args.format == "json" and args.decimal is not None:
        raise UsageError("--decimal applies only to --format csv")
    spec = parse_fspec(args.f)
    t = _parse_t(args.t)
    tp = check_config(spec, t)
    tri = stirling.s1_triangle(spec, tp, args.x_max)
    rows = []
    for n in range(args.n_max + 1):
        for x in range(n + 1, args.x_max + 1):
            value = convpoly.sigma_eval(spec, tp, args.variant, n, x, triangle=tri)
            rows.append((n, x, value))
    with digits_unlimited():
        if args.format == "json":
            payload = {
                "f": spec.render(),
                "t": render_t(tp),
                "variant": args.variant,
                "values": [
                    {"n": n, "x": x, "value": render_value(v)} for n, x, v in rows
                ],
            }
            text = json_text(payload)
        else:
            import csv
            import io

            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["n", "x", "value"])
            for n, x, v in rows:
                writer.writerow([n, x, _render_scalar(v, args.decimal)])
            text = buf.getvalue()
    _emit(text, args.output)
    return 0


def cmd_eulersum(args) -> int:
    from . import eulersum
    from .report import digits_unlimited

    spec = parse_fspec(args.f)
    if args.N < 1:
        raise UsageError("N must be >= 1")
    if args.decimal is None:
        value = eulersum.euler_sum_numeric(spec, args.r, args.N, args.mode)
    else:
        value = eulersum.euler_sum_floor(spec, args.r, args.N, args.mode, 10 ** args.decimal)
    with digits_unlimited():
        text = str(value) if args.decimal is None else _fixed_str(value, args.decimal)
    _emit(text, args.output)
    return 0


def run_suite(name: str, spec, t, max_n: int) -> list[Report]:
    """Run one named suite; returns its reports (may skip inapplicable combos)."""
    from . import convpoly, eulersum, fharmonic, stirling
    from .factorial import check_config
    from .laurent import LaurentPoly
    from .report import Report

    tp = check_config(spec, t)
    numeric_f = not spec.symbolic
    symbolic_t = not tp.is_constant()
    reports: list[Report] = []

    def skip(reason: str) -> list[Report]:
        rep = Report(name, {"f": spec.render(), "t": str(t)})
        rep.skip((), reason)
        return [rep]

    if name == "s1-oracle":
        cap = min(max_n, stirling.ORACLE_CAP - 3)
        tri = stirling.s1_triangle(spec, tp, cap)
        rep = Report("s1-oracle", {"f": spec.render(), "t": tp, "N": cap})
        for n in range(cap + 1):
            for k in range(n + 1):
                rep.check((n, k), tri.entry(n, k), stirling.s1_entry_oracle(spec, tp, n, k))
        reports.append(rep)
    elif name == "s2-geom":
        cap = min(max_n, 8)
        coeffs = {(k, j): stirling.s2_diff_coeff(spec, tp, k, j)
                  for k in range(6) for j in range(cap + 1)}
        for n in range(cap + 1):
            for k in range(6):
                reports.append(stirling.s2_geom_transform_check(spec, tp, n, k, coeffs))
    elif name == "s2star-ogf":
        if not numeric_f:
            return skip("modified-number transforms need numeric f values")
        for k in range(5):
            reports.append(stirling.s2star_ogf_check(spec, k, max_n))
    elif name == "s2star-egf":
        if not numeric_f:
            return skip("modified-number transforms need numeric f values")
        for r in range(5):
            reports.append(stirling.s2star_egf_check(spec, r, min(max_n, 8)))
    elif name == "harmonic-routes":
        rep = Report("harmonic-routes", {"f": spec.render(), "t": tp, "max_n": max_n})
        for n in range(min(max_n, 10) + 1):
            for p in range(1, 6):
                direct = fharmonic.fharmonic_direct(spec, p, n, tp ** p)
                rep.check((n, p, "ftilde"), fharmonic.harmonic_via_ftilde(spec, tp, p, n), direct)
                if p in (2, 3, 5):
                    rep.check((n, p, "roots"), fharmonic.harmonic_via_roots(spec, tp, p, n), direct)
            if numeric_f:
                for p in range(1, 5):
                    subst = fharmonic.harmonic_via_subst(spec, p, n)
                    direct_u = fharmonic.fharmonic_direct(
                        spec, p, n, LaurentPoly.monomial("u", p)
                    )
                    rep.check((n, p, "subst"), subst, direct_u)
        reports.append(rep)
    elif name == "wf":
        reports.append(fharmonic.s1_from_wf_check(spec, tp, min(max_n, 10)))
    elif name == "corollary":
        reports.append(fharmonic.corollary_expansions_check(spec, tp, min(max_n, 10)))
    elif name == "prop1":
        if not numeric_f:
            return skip("substitution parameter requires numeric f values")
        for p in range(1, 4):
            for n in range(min(max_n, 6) + 1):
                reports.append(fharmonic.prop1_recurrence_check(spec, p, n))
    elif name == "prop2":
        for p in range(2, 7):
            for n in range(min(max_n, 10) + 1):
                reports.append(fharmonic.prop2_functional_eq_check(spec, tp, p, n))
    elif name == "euler-identity":
        for p in range(3, 7):
            for n in range(1, 21):
                reports.append(fharmonic.stirling_harmonic_identity_check(p, n))
    elif name == "convpoly-rec":
        reports.append(convpoly.sigma_recurrence_check(spec, tp, min(max_n, 10), min(max_n, 10)))
    elif name == "gf-special":
        reports.append(convpoly.stirlingpoly_gf_check("classic", 6, 8))
        reports.append(convpoly.stirlingpoly_gf_check("alpha", 6, 8, alpha=3))
        reports.append(convpoly.stirlingpoly_gf_check("alphabeta", 6, 8, alpha=2, beta=1))
    elif name == "eulerian2":
        reports.append(convpoly.eulerian2_identity_check(6, 12))
    elif name == "conv-shift":
        for t_shift in (0, 1, 2):
            reports.append(convpoly.conv_family_shift_check([1, 1], t_shift, 5, 6))
            stirling_s = convpoly.TruncSeries.exp("z", 1, 5) / convpoly.geometric_minus_one_over("z", 5)
            reports.append(
                convpoly.conv_family_shift_check(stirling_s.coeffs, t_shift, 5, 6)
            )
    elif name == "experimental-fit":
        if not numeric_f or symbolic_t:
            return skip("experimental fit requires numeric f and t")
        reports.append(convpoly.experimental_binomial_check(spec, tp, min(max_n, 10)))
    elif name == "euler-sum-numeric":
        if not numeric_f:
            return skip("numeric series require numeric f values")
        if spec.kind == "table":
            return skip("finite f table cannot support the series truncation")
        N = 2000
        z2, lhs = eulersum.fzeta_and_harmonic_sums(spec, 2, N)
        z4 = eulersum.euler_sum_numeric(spec, 2, N, "fzeta2r")
        rhs = (z2 * z2 + z4) / 2
        rep = Report("euler-sum-numeric", {"f": spec.render(), "r": 2, "N": N})
        cell = rep.check((2, N), lhs, rhs)
        cell.note = f"partial sum {float(lhs):.7f} vs zeta-form {float(rhs):.7f}"
        reports.append(rep)
    else:
        raise UsageError(f"unknown suite {name!r}")
    return reports


def cmd_verify(args) -> int:
    from .report import digits_unlimited, json_text, render_value

    spec = parse_fspec(args.f)
    t = _parse_t(args.t)
    names = SUITES if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise UsageError(f"unknown suite {name!r} (choose from {', '.join(SUITES)})")
    all_reports: list[Report] = []
    failed = False
    for name in names:
        reports = run_suite(name, spec, t, args.max_n)
        all_reports.extend(reports)
        suite_pass = all(r.passed for r in reports)
        cells = sum(len(r.cells) for r in reports)
        status = "pass" if suite_pass else "FAIL"
        print(f"{status:4}  {name:20} ({cells} cells)")
        if not suite_pass:
            failed = True
            with digits_unlimited():
                for r in reports:
                    for cell in r.failures[:5]:
                        print(f"      {r.identity} {cell.indices}: "
                              f"lhs={render_value(cell.lhs)} rhs={render_value(cell.rhs)}")
    if args.output:
        # The text of json.dumps(reports, indent=2), written a report at a time.
        with open(args.output, "w") as fh, digits_unlimited():
            sep = "[\n  "
            for r in all_reports:
                fh.write(sep)
                fh.write(json_text(r.to_json(), 1))
                sep = ",\n  "
            fh.write("\n]")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fstirling",
        description="Exact-arithmetic generalized Stirling / f-harmonic toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, t=True, decimal=False):
        p.add_argument("--f", required=True, help="f spec DSL, e.g. linear:1,0")
        if t:
            p.add_argument("--t", default="1", help="t value: rational or 'symbolic'")
        p.add_argument("--output", help="write output to this path instead of stdout")
        if decimal:
            p.add_argument("--decimal", type=_nonnegative_int, default=None,
                           help="render rationals as floor(value * 10^K) with K decimal digits")

    p = sub.add_parser("triangle", help="compute a triangle")
    common(p)
    p.add_argument("--kind", choices=["s1", "s2"], default="s1")
    p.add_argument("--rows", type=_nonnegative_int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("harmonic", help="compute a p-order f-harmonic number")
    common(p, decimal=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--method", choices=["direct", "ftilde", "roots", "subst"],
                   default="direct")
    # None tells an explicit --t, which subst rejects, from the default 1.
    p.set_defaults(func=cmd_harmonic, t=None)

    p = sub.add_parser("convpoly", help="tabulate convolution polynomial analogs")
    common(p, decimal=True)
    p.add_argument("--variant", choices=["sigma", "sigma~"], default="sigma")
    p.add_argument("--n-max", type=_nonnegative_int, required=True)
    p.add_argument("--x-max", type=_nonnegative_int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_convpoly)

    p = sub.add_parser("eulersum", help="exact partial sums of Euler-like series")
    common(p, t=False, decimal=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--mode", choices=["harmonic_over_f", "fzeta", "fzeta2r"],
                   default="harmonic_over_f")
    p.set_defaults(func=cmd_eulersum)

    p = sub.add_parser("verify", help="run identity verification suites")
    common(p)
    p.add_argument("--suite", required=True,
                   help="suite name or 'all': " + ", ".join(SUITES))
    p.add_argument("--max-n", type=_nonnegative_int, default=8)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # A command's work, and so a traced pass's counts, must not depend on
    # what ran before it in the same process.
    for module, store in (("stirling", "S1_ROWS"), ("fharmonic", "DIRECT_SUMS")):
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            getattr(loaded, store).clear()
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (UsageError, FSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone: end as quietly as a process killed by SIGPIPE,
        # and point stdout at /dev/null so the exit-time flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
