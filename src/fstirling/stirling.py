"""Generalized Stirling triangles of the first and second kind.

First-kind entries are the x-power coefficients of the generalized Pochhammer
product; they are built by the two-term recurrence and independently checkable
against an elementary-symmetric-polynomial oracle that enumerates subsets
directly.  Second-kind entries and their two "modified" series transforms are
evaluated from their defining alternating binomial sums.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional

from .factorial import TParam, bang_f, bang_ft, check_config
from .fspec import FSpec, eval_f
from .laurent import LaurentPoly
from .report import Report, render_t, render_value

ORACLE_CAP = 15


class Triangle(NamedTuple):
    """Dense triangle of either kind: entry(n, k) for 0 <= k <= n <= rows."""

    spec: FSpec
    t: LaurentPoly
    rows: int
    entries: tuple  # tuple of row tuples, row n has n+1 LaurentPoly entries

    def entry(self, n: int, k: int) -> LaurentPoly:
        if k < 0 or k > n:
            return LaurentPoly.constant("t", 0)
        if n > self.rows:
            raise IndexError(f"row {n} beyond computed rows {self.rows}")
        return self.entries[n][k]

    def to_json(self) -> dict:
        return {
            "f": self.spec.render(),
            "t": render_t(self.t),
            "rows": [[render_value(e) for e in row] for row in self.entries],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "k", "entry"])
        for n, row in enumerate(self.entries):
            for k, e in enumerate(row):
                writer.writerow([n, k, str(e)])
        return buf.getvalue()


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
    zero = LaurentPoly.constant("t", 0)
    rows = S1_ROWS.setdefault((spec, tp), [(LaurentPoly.constant("t", 1),)])
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
    return Triangle(spec, tp, N, tuple(rows[: N + 1]))


def s1_entry_oracle(spec: FSpec, t: TParam, n: int, k: int) -> LaurentPoly:
    """Independent oracle: the elementary symmetric polynomial e_(n-k) of the
    multiset {f(j) t^(-j) : 1 <= j < n}, by direct subset enumeration."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    tp = check_config(spec, t)
    if n > ORACLE_CAP:
        raise ValueError(f"oracle subset enumeration capped at n <= {ORACLE_CAP}")
    if n == 0:
        return LaurentPoly.constant("t", 1 if k == 0 else 0)
    if k == 0:
        return LaurentPoly.constant("t", 0)
    values = [eval_f(spec, j) * tp ** (-j) for j in range(1, n)]
    acc = LaurentPoly.constant("t", 0)
    for subset in itertools.combinations(values, n - k):
        prod = LaurentPoly.constant("t", 1)
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
            acc = LaurentPoly.constant("t", 0)
            for j in range(1, n + 1):
                acc = acc + tri.entry(j, k - 1) * tp ** (j * (j + 1) // 2) / bang_f(spec, j)
            rhs_k = bang_ft(spec, tp, n) * acc
            report.check((n, k), tri.entry(n + 1, k), rhs_k)
    return report


def s2_row(spec: FSpec, t: TParam, n: int, width: int) -> tuple:
    """Second-kind entries of row n for 0 <= k < width: the alternating
    binomial sums over the f(j)^n t^(-jn) terms, each term computed once and
    each entry built once from its per-exponent coefficients.

    The j=0 summand contributes (-1)^k only when n = 0 (f(0) is never
    evaluated; f(0)^n is read as 0^n with 0^0 = 1).
    """
    if n < 0:
        raise ValueError("need n >= 0")
    tp = check_config(spec, t)
    terms = [eval_f(spec, j) ** n * tp ** (-(j * n)) for j in range(1, width)]
    var = next((term.var for term in terms if not term.is_constant()), "t")
    coeffs = [{0: 1} if n == 0 else {}] + [term.terms for term in terms]
    row = []
    for k in range(width):
        entry = {}
        for j in range(k + 1):
            weight = Fraction(math.comb(k, j) * (-1) ** (k - j), math.factorial(j))
            for e, c in coeffs[j].items():
                entry[e] = entry.get(e, 0) + weight * c
        row.append(LaurentPoly(var, entry))
    return tuple(row)


def s2_entry(spec: FSpec, t: TParam, n: int, k: int) -> LaurentPoly:
    """Second-kind entry (n, k), from s2_row."""
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    return s2_row(spec, t, n, k + 1)[k]


def s2_diff_coeff(spec: FSpec, t: TParam, k: int, j: int) -> LaurentPoly:
    """Finite-difference normalization of the second-kind connection
    coefficients: Delta^j[g](0)/j! with g(m) = f(m)^k t^(-mk) (g(0) read as
    0^k).  This is the form that expands g(i) in falling factorials of i;
    for f(n) = n at t = 1 it reduces to the classical Stirling numbers of
    the second kind, unlike the per-term 1/j! weighting of s2_entry."""
    if k < 0 or j < 0:
        raise ValueError("need k, j >= 0")
    tp = check_config(spec, t)
    acc = LaurentPoly.constant("t", Fraction((-1) ** j) if k == 0 else 0)
    for m in range(1, j + 1):
        gm = eval_f(spec, m) ** k * tp ** (-(m * k))
        acc = acc + gm * Fraction(math.comb(j, m) * (-1) ** (j - m))
    return acc * Fraction(1, math.factorial(j))


def s2_geom_transform_check(spec: FSpec, t: TParam, n: int, k: int,
                            coeffs: Optional[Dict] = None) -> Report:
    """Coefficient-wise check in z of the finite geometric-series transform:

        sum_{j<=n} f(j)^k t^(-jk) z^j
            = sum_j c(k,j) z^j D_z^j[(1 - z^(n+1))/(1 - z)],

    with connection coefficients c(k,j) = s2_diff_coeff(k, j) summed over
    j <= n.  When f is a degree-d polynomial in n and t = 1 the coefficients
    vanish for j > dk, truncating the sum to the column index; general f and
    t need the full range (``coeffs`` may hold them by (k, j)).  The right
    side takes exact symbolic derivatives of the expanded geometric polynomial.
    """
    tp = check_config(spec, t)
    report = Report(
        "s2-geom-transform", {"f": spec.render(), "t": tp, "n": n, "k": k}
    )
    zero = LaurentPoly.constant("t", 0)
    lhs = [zero] * (n + 1)
    for j in range(n + 1):
        if j == 0:
            lhs[0] = LaurentPoly.constant("t", 1 if k == 0 else 0)
        else:
            lhs[j] = eval_f(spec, j) ** k * tp ** (-(j * k))
    rhs = [zero] * (n + 1)
    for j in range(n + 1):
        coeff = coeffs[k, j] if coeffs else s2_diff_coeff(spec, t, k, j)
        if coeff.is_zero():
            continue
        # D_z^j[sum_{i<=n} z^i] = sum_i perm(i, j) z^(i-j); the z^j prefactor
        # moves the contribution back to degree i.
        deriv = [math.perm(i, j) for i in range(n + 1)]
        for i in range(j, n + 1):
            rhs[i] = rhs[i] + coeff * deriv[i]
    for d in range(n + 1):
        report.check((n, k, d), lhs[d], rhs[d])
    return report


def s2star_entry(spec: FSpec, k: int, j: int) -> Fraction:
    """Modified second-kind value: sum over 1 <= m <= j of the alternating
    binomial terms with 1/f(m)^k weights.  Numeric f only; t plays no role."""
    if k < 0 or j < 1:
        raise ValueError("need k >= 0 and j >= 1")
    acc = Fraction(0)
    for m in range(1, j + 1):
        fm = eval_f(spec, m).constant_value()
        acc += Fraction(math.comb(j, m) * (-1) ** (j - m), math.factorial(j)) / fm ** k
    return acc


def s2star_ogf_check(spec: FSpec, k: int, N: int) -> Report:
    """Ordinary-series transform: for each n <= N, check

        1/f(n)^k = sum_{j=1}^{n} s2star(k, j) j! C(n, j).
    """
    report = Report("s2star-ogf", {"f": spec.render(), "k": k, "N": N})
    for n in range(1, N + 1):
        lhs = Fraction(1) / eval_f(spec, n).constant_value() ** k
        rhs = sum(
            (
                s2star_entry(spec, k, j) * math.factorial(j) * math.comb(n, j)
                for j in range(1, n + 1)
            ),
            Fraction(0),
        )
        report.check((n,), lhs, rhs)
    return report


def s2star_egf_check(spec: FSpec, r: int, N: int) -> Report:
    """Exponential-series transform, coefficient-wise to order N:

        sum_n F_n^(r)(1) z^n / n! = sum_j s2star(r, j) z^j e^z (j+1+z)/(j+1).

    The modified-number upper index is taken as r on both sides.
    """
    from .series import TruncSeries

    report = Report("s2star-egf", {"f": spec.render(), "r": r, "N": N})
    if N < 1:
        return report
    harmonic = Fraction(0)
    lhs = [Fraction(0)]
    for n in range(1, N + 1):
        harmonic += Fraction(1) / eval_f(spec, n).constant_value() ** r
        lhs.append(harmonic / math.factorial(n))
    rhs = TruncSeries.constant("z", Fraction(0), N)
    ez = TruncSeries.exp("z", 1, N)
    z = TruncSeries.variable("z", N)
    for j in range(1, N + 1):
        coeff = s2star_entry(spec, r, j)
        if coeff == 0:
            continue
        term = ez * (z + (j + 1)) * Fraction(1, j + 1) * coeff
        # shift by z^j
        shifted = TruncSeries("z", N, [Fraction(0)] * j + term.coeffs[: N + 1 - j])
        rhs = rhs + shifted
    for n in range(1, N + 1):
        report.check((n,), lhs[n], rhs.coeff(n))
    return report
