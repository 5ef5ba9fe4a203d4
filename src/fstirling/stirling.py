"""Generalized Stirling triangles of the first and second kind.

First-kind entries are the x-power coefficients of the generalized Pochhammer
product; they are built by the two-term recurrence and independently checkable
against an elementary-symmetric-polynomial oracle that enumerates subsets
directly.  Second-kind entries are evaluated from their defining alternating
binomial sums; their connection coefficients and the "modified" values behind
the series transforms are forward-difference coefficients (``_newton``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple

from .factorial import TParam, bang_f, bang_ft, check_config
from .fspec import FSpec, eval_f, f_pairs
from .laurent import LaurentPoly
from .report import Report

ORACLE_CAP = 15


class Triangle(NamedTuple):
    """Dense triangle of either kind: entry(n, k) for 0 <= k <= n <= rows."""

    rows: int
    entries: tuple  # tuple of row tuples, row n has n+1 LaurentPoly entries

    def entry(self, n: int, k: int) -> LaurentPoly:
        if k < 0 or k > n:
            return LaurentPoly.constant(0)
        if n > self.rows:
            raise IndexError(f"row {n} beyond computed rows {self.rows}")
        return self.entries[n][k]


# First-kind rows built so far per (spec, t).  Rows are
# tuples of immutable values, so triangles share them.  cli.main empties the
# store at the start of each command.
S1_ROWS: Dict[tuple, List[tuple]] = {}


def s1_triangle(spec: FSpec, t: TParam, N: int) -> Triangle:
    """Rows 0..N of the first-kind triangle, built by the recurrence

        entry(n, k) = f(n-1) t^(1-n) entry(n-1, k) + entry(n-1, k-1)

    with entry(0, 0) = 1.  Rows already built for this (f, t) are reused and
    extended on demand; a row whose f value fails is not kept.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    tp = check_config(spec, t)
    zero = LaurentPoly.constant(0)
    rows = S1_ROWS.setdefault((spec, tp), [(LaurentPoly.constant(1),)])
    for n in range(len(rows), N + 1):
        scale = eval_f(spec, n - 1) * tp ** (1 - n) if n >= 2 else None
        prev = rows[n - 1]
        row = []
        for k in range(n + 1):
            above = prev[k] if k <= n - 1 else zero
            left = prev[k - 1] if 1 <= k <= n else zero
            if n == 1:
                # f(0) is never evaluated: the k=0 column above row 0 is zero.
                row.append(left)
            else:
                row.append(scale * above + left)
        rows.append(tuple(row))
    return Triangle(N, tuple(rows[: N + 1]))


def s1_entry_oracle(spec: FSpec, t: TParam, n: int, k: int) -> LaurentPoly:
    """Independent oracle: the elementary symmetric polynomial e_(n-k) of the
    multiset {f(j) t^(-j) : 1 <= j < n}, by direct subset enumeration."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    tp = check_config(spec, t)
    if n > ORACLE_CAP:
        raise ValueError(f"oracle subset enumeration capped at n <= {ORACLE_CAP}")
    if n == 0:
        return LaurentPoly.constant(1 if k == 0 else 0)
    if k == 0:
        return LaurentPoly.constant(0)
    values = [eval_f(spec, j) * tp ** (-j) for j in range(1, n)]
    acc = LaurentPoly.constant(0)
    for subset in itertools.combinations(values, n - k):
        prod = LaurentPoly.constant(1)
        for v in subset:
            prod = prod * v
        acc = acc + prod
    return acc


def s1_column_closed_forms(spec: FSpec, t: TParam, N: int) -> Report:
    """Check the k=1 closed form and the k >= 2 column sum formula against
    the recurrence triangle for all n <= N."""
    tp = check_config(spec, t)
    tri = s1_triangle(spec, t, N + 1)
    report = Report(
        "s1-column-closed-forms", {"f": spec.render(), "t": tp, "N": N}
    )
    for n in range(N + 1):
        lhs = tri.entry(n + 1, 1)
        rhs = bang_ft(spec, tp, n)
        report.check((n, 1), lhs, rhs)
        for k in range(2, n + 2):
            acc = LaurentPoly.constant(0)
            for j in range(1, n + 1):
                acc = acc + tri.entry(j, k - 1) * tp ** (j * (j + 1) // 2) / bang_f(spec, j)
            rhs_k = bang_ft(spec, tp, n) * acc
            report.check((n, k), tri.entry(n + 1, k), rhs_k)
    return report


def _powers(spec: FSpec, tp: LaurentPoly, k: int, width: int) -> list:
    """g(m) = f(m)^k t^(-mk) for 0 <= m < width, with g(0) read as 0^k
    (0^0 = 1): f(0) is never evaluated."""
    return [LaurentPoly.constant(1 if k == 0 else 0)] + [
        eval_f(spec, m) ** k * tp ** (-(m * k)) for m in range(1, width)]


def s2_row(spec: FSpec, t: TParam, n: int, width: int) -> tuple:
    """Second-kind entries of row n for 0 <= k < width: the alternating
    binomial sums over the f(j)^n t^(-jn) terms of ``_powers``, each term
    computed once and each entry built once from its per-exponent
    coefficients.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    terms = _powers(spec, check_config(spec, t), n, width)
    var = next((term.var for term in terms if term.var), None)
    coeffs = [term.terms for term in terms]
    row = []
    for k in range(width):
        entry = {}
        for j in range(k + 1):
            weight = Fraction(math.comb(k, j) * (-1) ** (k - j), math.factorial(j))
            for e, c in coeffs[j].items():
                entry[e] = entry.get(e, 0) + weight * c
        row.append(LaurentPoly(var, entry))
    return tuple(row)


def _newton(g: list) -> list:
    """Newton's forward-difference coefficients of g at 0: Delta^j[g](0)/j!
    for j < len(g), by repeated differencing."""
    out = []
    for j in range(len(g)):
        out.append(g[0] * Fraction(1, math.factorial(j)))
        g = [b - a for a, b in zip(g, g[1:])]
    return out


def s2_diff_coeff(spec: FSpec, t: TParam, k: int, j: int) -> LaurentPoly:
    """Finite-difference normalization of the second-kind connection
    coefficients: Delta^j[g](0)/j! with g(m) = f(m)^k t^(-mk) (g(0) read as
    0^k).  This is the form that expands g(i) in falling factorials of i;
    for f(n) = n at t = 1 it reduces to the classical Stirling numbers of
    the second kind, unlike the per-term 1/j! weighting of s2_row."""
    if k < 0 or j < 0:
        raise ValueError("need k, j >= 0")
    return _newton(_powers(spec, check_config(spec, t), k, j + 1))[j]


def s2_geom_transform_checks(spec: FSpec, t: TParam, ms, ks) -> list:
    """Coefficient-wise checks in z of the finite geometric-series transform

        sum_{j<=m} f(j)^k t^(-jk) z^j
            = sum_j c(k,j) z^j D_z^j[(1 - z^(m+1))/(1 - z)],

    one report per m in ``ms`` (outer) and k in ``ks`` (inner), with the
    connection coefficients c(k,j) = s2_diff_coeff(k, j) read off
    ``_powers`` by ``_newton`` (for f of degree d in n at t = 1 they vanish
    for j > dk).  D_z^j[sum_{i<=m} z^i] = sum_i perm(i, j) z^(i-j), so degree
    d of the right side is sum_{j<=d} c(k,j) perm(d, j) whatever m is: one
    difference table per k serves every m.  The left side is (f(d) t^(-d))^k
    from ``eval_f``, so a wrong ``_powers`` fails the check.
    """
    tp = check_config(spec, t)
    tables = []
    for k in ks:
        lhs = [LaurentPoly.constant(0 ** k)] + [
            (eval_f(spec, d) * tp ** -d) ** k for d in range(1, max(ms) + 1)]
        coeffs = [(j, c) for j, c in enumerate(_newton(_powers(spec, tp, k, len(lhs))))
                  if not c.is_zero()]
        rhs = [sum((c * math.perm(d, j) for j, c in coeffs if j <= d), LaurentPoly.constant(0))
               for d in range(len(lhs))]
        tables.append((k, lhs, rhs))
    reports = []
    for m in ms:
        for k, lhs, rhs in tables:
            report = Report("s2-geom-transform", {"f": spec.render(), "t": tp, "n": m, "k": k})
            for d in range(m + 1):
                report.check((m, k, d), lhs[d], rhs[d])
            reports.append(report)
    return reports


def _reciprocal_powers(spec: FSpec, k: int, width: int) -> list:
    """0, 1/f(1)^k, ..., 1/f(width-1)^k: the sequence whose forward-difference
    coefficients are the modified second-kind values.  Numeric f only."""
    return [Fraction(0)] + [Fraction(den, num) ** k for num, den in f_pairs(spec, 1, width)]


def s2star_entry(spec: FSpec, k: int, j: int) -> Fraction:
    """Modified second-kind value: sum over 1 <= m <= j of the alternating
    binomial terms with 1/f(m)^k weights, i.e. Delta^j/j! at 0 of
    ``_reciprocal_powers``.  Numeric f only; t plays no role."""
    if k < 0 or j < 1:
        raise ValueError("need k >= 0 and j >= 1")
    return _newton(_reciprocal_powers(spec, k, j + 1))[j]


def s2star_ogf_check(spec: FSpec, k: int, N: int) -> Report:
    """Ordinary-series transform: for each n <= N, check

        1/f(n)^k = sum_{j=1}^{n} s2star(k, j) j! C(n, j),

    the left side from ``f_pairs``, the right from ``_reciprocal_powers``.
    """
    report = Report("s2star-ogf", {"f": spec.render(), "k": k, "N": N})
    coeffs = _newton(_reciprocal_powers(spec, k, N + 1))
    for n, (num, den) in enumerate(f_pairs(spec, 1, N + 1), 1):
        rhs = sum((coeffs[j] * math.perm(n, j) for j in range(1, n + 1)), Fraction(0))
        report.check((n,), Fraction(num, den) ** -k, rhs)
    return report


def s2star_egf_check(spec: FSpec, r: int, N: int) -> Report:
    """Exponential-series transform, coefficient-wise to order N:

        sum_n F_n^(r)(1) z^n / n! = sum_j s2star(r, j) z^j e^z (j+1+z)/(j+1).

    The modified-number upper index is taken as r on both sides.  The partial
    sums F_n^(r)(1) come from ``f_pairs``, the s2star values from
    ``_reciprocal_powers``.
    """
    from .series import TruncSeries

    report = Report("s2star-egf", {"f": spec.render(), "r": r, "N": N})
    if N < 1:
        return report
    sums = itertools.accumulate((Fraction(num, den) ** -r for num, den in f_pairs(spec, 1, N + 1)),
                                initial=Fraction(0))
    lhs = [h / math.factorial(n) for n, h in enumerate(sums)]
    rhs = TruncSeries.constant("z", Fraction(0), N)
    ez = TruncSeries.exp("z", 1, N)
    z = TruncSeries.variable("z", N)
    for j, coeff in enumerate(_newton(_reciprocal_powers(spec, r, N + 1))):
        if coeff == 0:
            continue
        rhs = rhs + ez * (z + (j + 1)) * Fraction(1, j + 1) * coeff * z ** j
    for n in range(1, N + 1):
        report.check((n,), lhs[n], rhs.coeff(n))
    return report
