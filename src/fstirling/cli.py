"""Batch command line front end.

    fstirling triangle  --kind s1|s2 --f <dsl> --t <t> --rows N [--format json|csv]
    fstirling harmonic  --f <dsl> --t <t> --p P --n N [--method direct|ftilde|roots]
                        [--decimal K]
    fstirling convpoly  --f <dsl> --t <t> --variant sigma|sigma~ --n-max N --x-max X
                        [--format csv [--decimal K] | --format json]
    fstirling eulersum  --f <dsl> --r R --N TERMS --mode harmonic_over_f|fzeta|fzeta2r [--decimal K]
    fstirling verify    --suite <name>|all --f <dsl> --t <t> [--max-n N]
    fstirling <command> ... [--output PATH]

Exit codes: 0 success with all checks passing, 1 identity-check failure
(reports still written), 2 usage or configuration error, 141 (128 + SIGPIPE)
when the reader of standard output closes it early.  Bad input is rejected
here, at the boundary; an error inside the library is a program fault and
exits with its traceback, never with 2.  ``main`` hands the text of ``--f``
to ``fspec.parse_fspec`` and that of ``--t`` to ``fspec.check_config`` once
for every command, before it lifts the int-to-string digit limit for the
command's work; the library takes the checked t as given.  The command
process leaves through ``console_main``, without interpreter teardown.

Documents are written a piece at a time: ``report.json_chunks`` lays out JSON
and ``_csv_lines`` CSV; the library modules only compute.  Only argument
parsing, the f parser and the report writer are imported up front; each command
imports the modules it runs, so a cheap command does not load the suites.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from importlib import import_module

from .fspec import MEMO, FSpecError, check_config, parse_fspec
from .laurent import LaurentPoly
from .report import (Encoded, Report, digits_unlimited, json_chunks, json_text, render_t,
                     render_value)


class UsageError(Exception):
    pass


def _join_negative_t(argv) -> list:
    """``--t -2/5`` as ``--t=-2/5``: argparse takes an argument that starts
    with '-' for an option unless it is a plain negative integer or decimal."""
    out = []
    for arg in argv:
        if out and out[-1] == "--t" and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


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


def _emit(chunks, path: str | None):
    """Write the text pieces ``chunks`` to ``path``, or to stdout ending in a newline.
    ``path`` is opened before the first piece is made.  An error while they are
    made removes the file only if this call created it: a path that was
    already there (a report, ``/dev/stdout``) stays."""
    if path:
        created = not os.path.lexists(path)
        try:
            fh = open(path, "w")
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from exc
        try:
            with fh:
                fh.writelines(chunks)
        except BaseException:
            if created and os.path.isfile(path):
                os.remove(path)
            raise
    else:
        last = ""
        for last in chunks:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")


def _check_decimal(args):
    """--decimal renders a rational: no symbolic f or t."""
    if args.decimal is not None and (args.spec.symbolic or not args.tp.is_constant()):
        raise UsageError("--decimal needs numeric f and t")


def _render_scalar(value, decimal: int | None) -> str:
    if isinstance(value, LaurentPoly) and value.is_constant():
        value = value.constant_value()
    if decimal is None:
        return str(value)
    return _fixed_str(value.numerator * 10 ** decimal // value.denominator, decimal)


def _csv_lines(header, rows):
    """``header`` then ``rows`` as the csv module's default dialect writes them,
    a line at a time: no field holds a comma, a quote or a line break, so none
    is quoted, and every line ends in CRLF."""
    yield ",".join(header) + "\r\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\r\n"


def cmd_triangle(args) -> int:
    from . import stirling

    spec, tp = args.spec, args.tp
    if args.kind == "s1":
        rows = stirling.s1_triangle(spec, tp, args.rows).entries
    else:
        rows = [stirling.s2_row(spec, tp, n, n + 1) for n in range(args.rows + 1)]
    if args.format == "json":
        chunks = json_chunks({"f": spec.render(), "t": render_t(tp),
                              "rows": ((render_value(e) for e in row) for row in rows)})
    else:
        chunks = _csv_lines(("n", "k", "entry"),
                            ((n, k, e) for n, row in enumerate(rows) for k, e in enumerate(row)))
    _emit(chunks, args.output)
    return 0


def cmd_harmonic(args) -> int:
    from . import fharmonic

    spec, tp = args.spec, args.tp
    if args.p < 1:
        raise UsageError("order p must be >= 1")
    _check_decimal(args)
    if args.method == "direct":
        value = fharmonic.fharmonic_direct(spec, args.p, args.n, tp ** args.p)
    elif args.method == "ftilde":
        value = fharmonic.harmonic_via_ftilde(spec, tp, args.p, args.n)
    else:
        value = fharmonic.harmonic_via_roots(spec, tp, args.p, args.n)
    _emit((_render_scalar(value, args.decimal),), args.output)
    return 0


def cmd_convpoly(args) -> int:
    from . import convpoly

    if args.format == "json" and args.decimal is not None:
        raise UsageError("--decimal applies only to --format csv")
    _check_decimal(args)
    spec, tp = args.spec, args.tp
    rows = [(n, x, convpoly.sigma_eval(spec, tp, args.variant, n, x))
            for n in range(args.n_max + 1) for x in range(n + 1, args.x_max + 1)]
    if args.format == "json":
        chunks = json_chunks({"f": spec.render(), "t": render_t(tp), "variant": args.variant,
                              "values": ({"n": n, "x": x, "value": render_value(v)}
                                         for n, x, v in rows)})
    else:
        chunks = _csv_lines(("n", "x", "value"),
                            ((n, x, _render_scalar(v, args.decimal)) for n, x, v in rows))
    _emit(chunks, args.output)
    return 0


def cmd_eulersum(args) -> int:
    from . import eulersum

    if args.N < 1:
        raise UsageError("N must be >= 1")
    if args.decimal is None:
        text = str(eulersum.euler_sum_numeric(args.spec, args.r, args.N, args.mode))
    else:
        value = eulersum.euler_sum_floor(args.spec, args.r, args.N, args.mode, 10 ** args.decimal)
        text = _fixed_str(value, args.decimal)
    _emit((text,), args.output)
    return 0


# The suite bodies call these modules, which _load_suite_modules imports into
# this module's namespace; building the parser loads none of them.
SUITE_MODULES = ("convpoly", "eulersum", "fharmonic", "stirling")


def _load_suite_modules():
    for module in SUITE_MODULES:
        globals()[module] = import_module(f".{module}", __package__)


def _s1_oracle(spec, tp, n):
    tri = stirling.s1_triangle(spec, tp, n)
    rep = Report("s1-oracle", {"f": spec.render(), "t": tp, "N": n})
    for m in range(n + 1):
        for k in range(m + 1):
            rep.check((m, k), tri.entry(m, k), stirling.s1_entry_oracle(spec, tp, m, k))
    return [rep]


def _harmonic_routes(spec, tp, n):
    rep = Report("harmonic-routes", {"f": spec.render(), "t": tp, "max_n": n})
    for m in range(n + 1):
        for p in range(1, 6):
            direct = fharmonic.fharmonic_direct(spec, p, m, tp ** p)
            rep.check((m, p, "ftilde"), fharmonic.harmonic_via_ftilde(spec, tp, p, m), direct)
            rep.check((m, p, "roots"), fharmonic.harmonic_via_roots(spec, tp, p, m), direct)
        if not spec.symbolic:
            for p in range(1, 5):
                rep.check((m, p, "subst"), fharmonic.harmonic_via_subst(spec, p, m),
                          fharmonic.fharmonic_direct(spec, p, m, LaurentPoly.monomial("u", p)))
    return [rep]


def _conv_shift(*_):
    stirling_s = convpoly.TruncSeries.exp("z", 1, 5) / convpoly.geometric_minus_one_over("z", 5)
    return [convpoly.conv_family_shift_check(coeffs, t_shift, 5, 6)
            for t_shift in (0, 1, 2) for coeffs in ([1, 1], stirling_s.coeffs)]


def _euler_sum_numeric(spec, *_):
    N = 2000
    z2, lhs = eulersum.fzeta_and_harmonic_sums(spec, 2, N)
    rhs = (z2 * z2 + eulersum.euler_sum_numeric(spec, 2, N, "fzeta2r")) / 2
    rep = Report("euler-sum-numeric", {"f": spec.render(), "r": 2, "N": N})
    # The digits `eulersum --decimal 7` prints: the sums can pass the float range.
    with digits_unlimited():
        note = f"partial sum {_render_scalar(lhs, 7)} vs zeta-form {_render_scalar(rhs, 7)}"
    rep.check((2, N), lhs, rhs, note)
    return [rep]


NO_CAP = sys.maxsize
_TRANSFORMS = ("numeric f", "modified-number transforms need numeric f values")
# The verification suites, in `--suite all` order: name -> (cap, needs, body).
# - cap: the suite runs to depth min(--max-n, cap); NO_CAP runs to --max-n
#   itself, and None marks a suite of fixed depth, which ignores --max-n.
# - needs: (configuration, note) pairs; a configuration that lacks one gets a
#   single skip cell with its note instead.
# - body(spec, tp, n) returns the reports at depth n.
SUITE_TABLE = {
    "s1-oracle": (12, (), _s1_oracle),  # brute force; stirling.ORACLE_CAP is 15
    "s2-geom": (8, (), lambda spec, tp, n: [
        *stirling.s2_geom_transform_checks(spec, tp, range(n + 1), range(6)),
        stirling.s2_row_inversion_check(spec, tp, n)]),
    "s2star-ogf": (NO_CAP, (_TRANSFORMS,), lambda spec, tp, n: [
        stirling.s2star_ogf_check(spec, k, n) for k in range(5)]),
    "s2star-egf": (8, (_TRANSFORMS,), lambda spec, tp, n: [
        stirling.s2star_egf_check(spec, r, n) for r in range(5)]),
    "harmonic-routes": (10, (), _harmonic_routes),
    "wf": (10, (), lambda spec, tp, n: [fharmonic.s1_from_wf_check(spec, tp, n)]),
    "corollary": (10, (), lambda spec, tp, n: [
        fharmonic.corollary_expansions_check(spec, tp, n),
        stirling.s1_column_closed_forms(spec, tp, n)]),
    "prop1": (6, (("numeric f", "substitution parameter requires numeric f values"),),
              lambda spec, tp, n: [
                  fharmonic.prop1_recurrence_check(spec, p, m)
                  for p in range(1, 4) for m in range(n + 1)]),
    "prop2": (10, (), lambda spec, tp, n: [
        fharmonic.prop2_functional_eq_check(spec, tp, p, m)
        for p in range(2, 7) for m in range(n + 1)]),
    "euler-identity": (None, (), lambda *_: [
        fharmonic.stirling_harmonic_identity_check(p, m)
        for p in range(3, 7) for m in range(1, 21)]),
    "convpoly-rec": (10, (), lambda spec, tp, n: [
        convpoly.sigma_recurrence_check(spec, tp, n, n)]),
    "gf-special": (None, (), lambda *_: [
        convpoly.stirlingpoly_gf_check("classic", 6, 8),
        convpoly.stirlingpoly_gf_check("alpha", 6, 8, alpha=3),
        convpoly.stirlingpoly_gf_check("alphabeta", 6, 8, alpha=2, beta=1)]),
    "eulerian2": (None, (), lambda *_: [convpoly.eulerian2_identity_check(6, 12)]),
    "conv-shift": (None, (), _conv_shift),
    "experimental-fit": (10, (("numeric f and t", "experimental fit requires numeric f and t"),),
                         lambda spec, tp, n: [
                             convpoly.experimental_binomial_check(spec, tp, n)]),
    "euler-sum-numeric": (None, (
        ("numeric f", "numeric series require numeric f values"),
        ("f at every n", "finite f table cannot support the series truncation")),
        _euler_sum_numeric),
}
SUITES = list(SUITE_TABLE)
SLOWEST_SUITES = ("euler-sum-numeric", "harmonic-routes")


def run_suite(name: str, spec, tp, max_n: int) -> list[Report]:
    """The reports of suite ``name`` for the f and t that ``main`` checked, or
    one skip cell where it does not apply."""
    _load_suite_modules()
    cap, needs, body = SUITE_TABLE[name]
    has = {"numeric f": not spec.symbolic, "f at every n": spec.kind != "table",
           "numeric f and t": not spec.symbolic and tp.is_constant()}
    for need, note in needs:
        if not has[need]:
            rep = Report(name, {"f": spec.render(), "t": str(tp)})
            rep.skip((), note)
            return [rep]
    return body(spec, tp, max_n if cap is None else min(max_n, cap))


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r} (choose from {', '.join(SUITES)})")
    names = SUITES if args.suite == "all" else [args.suite]

    def suite_output(name: str) -> tuple:
        """A suite's console lines, whether it failed, and its reports' JSON texts."""
        reports = run_suite(name, args.spec, args.tp, args.max_n)
        failed = not all(r.passed for r in reports)
        cells = sum(len(r.cells) for r in reports)
        lines = [f"{'FAIL' if failed else 'pass':4}  {name:20} ({cells} cells)"]
        lines += [f"      {r.identity} {cell.indices}: "
                  f"lhs={render_value(cell.lhs)} rhs={render_value(cell.rhs)}"
                  for r in reports for cell in r.failures[:5]]
        texts = [json_text(r.to_json(), 1) for r in reports] if args.output else []
        return "\n".join(lines), failed, texts

    failed = False

    def report_texts():
        """Run the suites, print their console lines and yield their reports' texts."""
        nonlocal failed
        outputs = map(suite_output, names)
        if args.may_fork and len(names) > 1:
            from . import pool

            processes = pool.processes_for(len(names))
            if processes > 1:
                # Compile the suites' modules, and json when reports are written,
                # once, before the workers are forked.
                _load_suite_modules()
                if args.output:
                    import_module("json")
                # The two slowest suites start first, so neither is left to run alone.
                order = sorted(range(len(names)), key=lambda i: names[i] not in SLOWEST_SUITES)
                outputs = pool.run(suite_output, names, order, processes,
                                   (UsageError, FSpecError))
        for console, suite_failed, suite_texts in outputs:
            print(console)
            failed |= suite_failed
            yield from suite_texts

    if args.output:
        # Written a report at a time, to a file opened before the first suite runs.
        _emit(json_chunks(Encoded(text) for text in report_texts()), args.output)
    else:
        list(report_texts())  # runs the suites; their texts are empty without --output
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
    p.add_argument("--method", choices=["direct", "ftilde", "roots"], default="direct")
    p.set_defaults(func=cmd_harmonic)

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
    p.add_argument("--max-n", type=_nonnegative_int, default=8,
                   help="depth of the checks (default 8); each suite caps it at its own "
                        "default depth, and some run at a fixed depth")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_t(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # Only the process that is the command forks; an in-process caller, such
    # as a test or a traced benchmark pass, keeps every suite in its process.
    args.may_fork = argv is None
    # A command's work, and so a traced pass's counts, must not depend on
    # what ran before it in the same process: the rows and sums start afresh.
    MEMO.clear()
    try:
        # Outside input is parsed and checked before the digit limit is lifted.
        args.spec = parse_fspec(args.f)
        if "t" in args:  # every command but eulersum
            args.tp = check_config(args.spec, args.t)
        with digits_unlimited():
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


def console_main():
    """The command process: the ``fstirling`` console script and
    ``python -m fstirling.cli``.  Runs ``main()``, flushes stdout and stderr
    and leaves through ``os._exit``, skipping interpreter finalization, which
    took 9-21 ms per command and has nothing left to release: every file the
    command writes is closed and every worker reaped.  A fault raised by
    ``main`` takes the normal exit, with its traceback."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # output that an error exit or --help left unflushed
        code = 141
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
