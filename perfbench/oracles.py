"""Independent checks of ``fstirling`` CLI outputs.

Nothing here imports fstirling.  Each check recomputes what the output must
be from the definitions, with ints, Fractions and Laurent polynomials kept
as ``{exponent: Fraction}`` dicts, and compares it with what the program
printed or wrote.  ``classify`` turns one op's exit code and outputs into a
status:

- ``ok``: the exit code and every checked value are right;
- ``wrong``: the program answered (exit 0 or 1) but the answer is wrong;
- ``error``: no answer: a crash, a usage/config error (exit 2), or a timeout.

Both ``wrong`` and ``error`` count as a failed op.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

# The CLI's suite names, in the order ``verify --suite all`` runs them.
SUITES = (
    "s1-oracle", "s2-geom", "s2star-ogf", "s2star-egf", "harmonic-routes", "wf",
    "corollary", "prop1", "prop2", "euler-identity", "convpoly-rec", "gf-special",
    "eulerian2", "conv-shift", "experimental-fit", "euler-sum-numeric",
)
SYMBOLIC_T = ("sym", "symbolic", "t")
# The prop1 "as-printed" cells KNOWN_ISSUES.md tabulates: p = 1..3 and
# p + 1 <= n <= 6, whenever the prop1 suite runs on a numeric f.
PROP1_P = (1, 2, 3)
PROP1_N_CAP = 6


class Mismatch(Exception):
    """The program's answer disagrees with the oracle."""


@contextlib.contextmanager
def unlimited_digits():
    """Lift the int/str conversion limit for the oracle's own big numbers."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# -- Laurent polynomials as {exponent: Fraction} ------------------------------


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def pinv(a: dict) -> dict:
    (e, c), = a.items()  # only monomials are invertible
    return {-e: 1 / Fraction(c)}


def const(c) -> dict:
    return {0: Fraction(c)} if c else {}


def _rational(text: str):
    return int(text) if "/" not in text else Fraction(text)


def parse_poly(text: str, var: str) -> dict:
    """Parse the CLI's rendering of a Laurent polynomial (or a rational)."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict = {}
    pieces = re.split(r" ([+-]) ", text)
    for sign, body in zip(["+"] + pieces[1::2], pieces[0::2]):
        neg = sign == "-"
        if body.startswith("-"):
            neg, body = not neg, body[1:]
        if "*" in body:
            coeff, mono = body.split("*", 1)
            c = _rational(coeff)
        elif body.startswith(var):
            c, mono = 1, body
        else:
            c, mono = _rational(body), None
        if mono is None:
            e = 0
        elif mono == var:
            e = 1
        elif mono.startswith(var + "^"):
            e = int(mono[len(var) + 1:])
        else:
            raise Mismatch(f"bad term {body!r} in {text[:80]!r}")
        if e in out or c == 0:
            raise Mismatch(f"repeated exponent or zero term in {text[:80]!r}")
        out[e] = -c if neg else c
    return out


def from_render(obj, var: str) -> dict:
    """Parse ``report.render_value`` output: a rational string or a term dict."""
    if isinstance(obj, str):
        return const(_rational(obj))
    if not isinstance(obj, dict) or obj.get("var") != var:
        raise Mismatch(f"expected a polynomial in {var}, got {str(obj)[:80]}")
    out = {int(e): _rational(c) for e, c in obj["terms"].items()}
    if any(c == 0 for c in out.values()):
        raise Mismatch("zero coefficient stored")
    return out


# -- f and t -------------------------------------------------------------------


class FValues:
    """f(n) of an f spec as a polynomial dict, from the spec text alone."""

    def __init__(self, spec: str, root: Path):
        kind, _, rest = spec.partition(":")
        self.var = "t"
        self.symbolic = False
        if kind == "linear":
            a, b = (Fraction(x) for x in rest.split(","))
            self._value = lambda n: const(a * n + b)
        elif kind == "table":
            values = [Fraction(v) for v in json.loads((root / rest).read_text())]
            self._value = lambda n: const(values[n - 1])
        elif kind == "qpow" and "," not in rest:
            offset = int(rest)
            self.var, self.symbolic = "q", True
            self._value = lambda n: {n + offset: Fraction(1)}
        else:
            raise ValueError(f"no oracle for f spec {spec!r}")

    def __call__(self, n: int) -> dict:
        return self._value(n)

    def scalar(self, n: int) -> Fraction:
        (c,) = self._value(n).values()
        return c


class TValues:
    def __init__(self, text: str):
        self.symbolic = text in SYMBOLIC_T
        self.value = None if self.symbolic else Fraction(text)

    def power(self, e: int) -> dict:
        return {e: Fraction(1)} if self.symbolic else const(self.value ** e)


def _var(f: FValues, t: TValues) -> str:
    return "t" if t.symbolic else f.var


# -- per-command checks ------------------------------------------------------------


def _expect(cond: bool, reason: str):
    if not cond:
        raise Mismatch(reason)


def prop1_residual(f: FValues, p: int, n: int) -> dict:
    """LHS - RHS of the as-printed prop1 cell (p, n), in u with t = u^(p(p+1)):

        p (-1)^p u^(p s) [n+1, p+2]_{f(u^p)} / n!_f,   s = n(n+1)/2,

    where [n+1, p+2] = e_(n-p-1)(f(j) u^(-pj) : 1 <= j <= n).
    """
    k = n - p - 1
    if k < 0:
        return {}
    e = [{0: Fraction(1)}] + [{} for _ in range(k)]
    for j in range(1, n + 1):
        root = {-p * j: f.scalar(j)}
        for i in range(k, 0, -1):
            e[i] = padd(e[i], pmul(root, e[i - 1]))
    scale = Fraction(p * (-1) ** p) / math.prod(f.scalar(j) for j in range(1, n + 1))
    return pmul({p * n * (n + 1) // 2: scale}, e[k])


def expected_verify_failures(f: FValues, suite: str, max_n: int) -> set:
    if f.symbolic or suite not in ("all", "prop1"):
        return set()
    return {
        ("prop1-recurrence", (p, n, "as-printed"))
        for p in PROP1_P for n in range(p + 1, min(max_n, PROP1_N_CAP) + 1)
    }


def check_verify(opts: dict, code: int, stdout: str, report_text, root: Path) -> int:
    """Returns the number of report cells."""
    f = FValues(opts["--f"], root)
    suite = opts["--suite"]
    expected = expected_verify_failures(f, suite, int(opts.get("--max-n", 8)))
    _expect(code == (1 if expected else 0), f"exit code {code}")
    _expect(report_text is not None, "no --output report")
    reports = json.loads(report_text)
    failing, total = set(), 0
    for rep in reports:
        for cell in rep["cells"]:
            total += 1
            _expect(cell["pass"] == (cell["lhs"] == cell["rhs"]),
                    f"{rep['identity']} {cell['indices']}: pass flag disagrees with lhs/rhs")
            if not cell["pass"]:
                key = (rep["identity"], tuple(cell["indices"]))
                _expect(key in expected, f"unexpected failing cell {key}")
                p, n, _ = key[1]
                _expect(from_render(cell["residual"], "u") == prop1_residual(f, p, n),
                        f"wrong residual in {key}")
                failing.add(key)
        _expect(rep["pass"] == all(c["pass"] for c in rep["cells"]),
                f"{rep['identity']}: report pass flag disagrees with its cells")
    _expect(failing == expected, f"missing failing cells {sorted(expected - failing)}")
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith(" ")]
    names = SUITES if suite == "all" else (suite,)
    _expect(len(lines) == len(names), "suite summary lines")
    printed = 0
    for line, name in zip(lines, names):
        m = re.fullmatch(r"(pass|FAIL)\s+(\S+)\s+\((\d+) cells\)", line)
        _expect(m is not None and m.group(2) == name, f"summary line {line!r}")
        should_fail = name == "prop1" and bool(expected)
        _expect((m.group(1) == "FAIL") == should_fail, f"summary line {line!r}")
        printed += int(m.group(3))
    _expect(printed == total > 0, f"{printed} cells printed, {total} in the report")
    return total


def check_harmonic(opts: dict, stdout: str, root: Path):
    f, t = FValues(opts["--f"], root), TValues(opts["--t"])
    p, n = int(opts["--p"]), int(opts["--n"])
    want: dict = {}
    for k in range(1, n + 1):
        inv, term = pinv(f(k)), t.power(p * k)
        for _ in range(p):
            term = pmul(term, inv)
        want = padd(want, term)
    _expect(parse_poly(stdout, _var(f, t)) == want, "harmonic value")


def _triangle_rows(opts: dict, stdout: str, var: str) -> list:
    if opts.get("--format", "csv") == "json":
        data = json.loads(stdout)
        _expect(data["f"] == opts["--f"], "triangle f")
        return [[from_render(e, var) for e in row] for row in data["rows"]]
    table = list(csv.reader(io.StringIO(stdout)))
    _expect(table[0] == ["n", "k", "entry"], "triangle csv header")
    rows: list = []
    for n, k, entry in table[1:]:
        n, k = int(n), int(k)
        if k == 0:
            _expect(n == len(rows), "triangle csv order")
            rows.append([])
        _expect(n == len(rows) - 1 and k == len(rows[n]), "triangle csv order")
        rows[n].append(parse_poly(entry, var))
    return rows


def check_triangle(opts: dict, stdout: str, root: Path):
    """Rows of prod_{j<n} (x + f(j) t^-j): each row sums to the product at
    x = 1, [n, 1] is the product of the roots and [n, n] is 1."""
    _expect(opts.get("--kind", "s1") == "s1", "only s1 triangles are checked")
    f, t = FValues(opts["--f"], root), TValues(opts["--t"])
    rows = _triangle_rows(opts, stdout, _var(f, t))
    _expect(len(rows) == int(opts["--rows"]) + 1, "triangle row count")
    at_one, roots = {0: Fraction(1)}, {0: Fraction(1)}
    for n, row in enumerate(rows):
        _expect(len(row) == n + 1, f"row {n} length")
        if n >= 2:
            root_j = pmul(f(n - 1), t.power(-(n - 1)))
            at_one = pmul(at_one, padd({0: Fraction(1)}, root_j))
            roots = pmul(roots, root_j)
        total: dict = {}
        for entry in row:
            total = padd(total, entry)
        _expect(total == at_one, f"row {n} sum")
        _expect(row[n] == {0: 1}, f"entry [{n},{n}]")
        if n >= 1:
            _expect(row[1] == roots, f"entry [{n},1]")


def check_convpoly(opts: dict, stdout: str, root: Path):
    """sigma_n(x) = e_n(f(j) t^-j : j < x) (x-n-1)! / prod_{j<=x} f(j)."""
    _expect(opts.get("--variant", "sigma") == "sigma", "only sigma is checked")
    _expect(opts.get("--format", "csv") == "csv", "only csv is checked")
    f, t = FValues(opts["--f"], root), TValues(opts["--t"])
    var = _var(f, t)
    n_max, x_max = int(opts["--n-max"]), int(opts["--x-max"])
    table = list(csv.reader(io.StringIO(stdout)))
    _expect(table[0] == ["n", "x", "value"], "convpoly csv header")
    got = {(int(n), int(x)): value for n, x, value in table[1:]}
    e = [{0: Fraction(1)}] + [{} for _ in range(n_max)]
    bang = {0: Fraction(1)}
    want = {}
    for x in range(1, x_max + 1):
        bang = pmul(bang, f(x))
        for n in range(min(n_max, x - 1) + 1):
            want[(n, x)] = pmul(pmul(e[n], pinv(bang)), const(math.factorial(x - n - 1)))
        root_x = pmul(f(x), t.power(-x))
        for i in range(n_max, 0, -1):
            e[i] = padd(e[i], pmul(root_x, e[i - 1]))
    _expect(got.keys() == want.keys(), "convpoly (n, x) grid")
    for key, value in got.items():
        _expect(parse_poly(value, var) == want[key], f"convpoly value at {key}")


def _euler_powers(spec: str, r: int, n_terms: int, root: Path):
    f = FValues(spec, root)
    return (f.scalar(n) ** r for n in range(1, n_terms + 1))


@functools.cache
def exact_euler_sum(spec: str, r: int, n_terms: int, mode: str, root: Path) -> Fraction:
    """The partial sum by plain sequential Fraction additions."""
    total, prefix = Fraction(0), Fraction(0)
    for fr in _euler_powers(spec, r, n_terms, root):
        a = 1 / fr
        if mode == "harmonic_over_f":
            prefix += a
            total += prefix * a
        elif mode == "fzeta":
            total += a
        else:
            total += a * a
    return total


@functools.cache
def decimal_euler_sum(spec: str, r: int, n_terms: int, mode: str, digits: int,
                      root: Path) -> str:
    """floor(sum * 10^digits) from an integer fixed-point enclosure [lo, hi] of
    the (positive) sum; falls back to the exact sum when the enclosure
    straddles a digit boundary."""
    scale = 10 ** (digits + 20)
    lo = hi = prefix_lo = prefix_hi = 0
    for fr in _euler_powers(spec, r, n_terms, root):
        if fr <= 0:
            raise ValueError("the enclosure assumes positive terms")
        if mode == "fzeta2r":
            fr = fr * fr
        a_lo, rem = divmod(scale * fr.denominator, fr.numerator)
        a_hi = a_lo + (rem > 0)
        if mode == "harmonic_over_f":
            prefix_lo += a_lo
            prefix_hi += a_hi
            lo += prefix_lo * a_lo // scale
            hi += -(-prefix_hi * a_hi // scale)
        else:
            lo += a_lo
            hi += a_hi
    unit = 10 ** digits
    q_lo, q_hi = lo * unit // scale, hi * unit // scale
    if q_lo != q_hi:
        exact = exact_euler_sum(spec, r, n_terms, mode, root)
        q_lo = exact.numerator * unit // exact.denominator
    whole, frac = divmod(q_lo, unit)
    return f"{whole}.{str(frac).zfill(digits)}"


def check_eulersum(opts: dict, stdout: str, root: Path):
    spec, r, n_terms = opts["--f"], int(opts["--r"]), int(opts["--N"])
    mode = opts.get("--mode", "harmonic_over_f")
    text = stdout.strip()
    if "--decimal" in opts:
        want = decimal_euler_sum(spec, r, n_terms, mode, int(opts["--decimal"]), root)
        _expect(text == want, f"eulersum {text[:40]!r} != {want!r}")
        return
    with unlimited_digits():
        want = exact_euler_sum(spec, r, n_terms, mode, root)
        _expect(_rational(text) == want, "exact eulersum value")


def classify(op, root: Path, code, stdout: str, stderr: str, report_text) -> tuple:
    """(status, reason, cells) for one op; see the module docstring."""
    if code is None:
        return "error", "timeout", 0
    if code not in (0, 1) or "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1:] or [""]
        return "error", f"exit {code}: {last[0][:200]}", 0
    opts = op.opts
    try:
        if op.command == "verify":
            return "ok", "", check_verify(opts, code, stdout, report_text, root)
        _expect(code == 0, f"exit code {code}")
        {
            "harmonic": check_harmonic,
            "triangle": check_triangle,
            "convpoly": check_convpoly,
            "eulersum": check_eulersum,
        }[op.command](opts, stdout, root)
    except (Mismatch, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        # ValueError covers unparsable JSON and numbers in the program's output.
        return "wrong", f"{type(exc).__name__}: {exc}"[:300], 0
    return "ok", "", 0
