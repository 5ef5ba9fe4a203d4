"""Triangle construction, oracles, and the second-kind transforms."""

import math
import os
from fractions import Fraction

import pytest

from fstirling import stirling
from fstirling.cli import run_suite
from fstirling.factorial import check_config
from fstirling.fspec import FSpecError, eval_f, linear, parse_fspec, qpow
from fstirling.laurent import LaurentPoly
from fstirling.report import Report, json_text
from fstirling.stirling import (
    s1_column_closed_forms,
    s1_entry_oracle,
    s1_triangle,
    s2_diff_coeff,
    s2_geom_transform_checks,
    s2_row,
    s2star_egf_check,
    s2star_entry,
    s2star_ogf_check,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
TABLE = parse_fspec(f"table:{os.path.join(DATA, 'table12.json')}")

MATRIX = [
    (linear(1, 0), 1),
    (linear(1, 0), Fraction(3, 2)),
    (linear(1, 0), "t"),
    (linear(2, 1), 1),
    (linear(2, 1), Fraction(3, 2)),
    (linear(2, 1), "t"),
    (qpow(1), 1),
    (TABLE, 1),
    (TABLE, Fraction(3, 2)),
    (TABLE, "t"),
]


def classical_first_kind(N):
    """Independent recurrence for unsigned classical Stirling numbers:
    c(n, k) = c(n-1, k-1) + (n-1) c(n-1, k)."""
    rows = [[1]]
    for n in range(1, N + 1):
        prev = rows[-1]
        row = []
        for k in range(n + 1):
            left = prev[k - 1] if 1 <= k <= n else 0
            up = prev[k] if k <= n - 1 else 0
            row.append(left + (n - 1) * up)
        rows.append(row)
    return rows


@pytest.mark.parametrize("spec,t", MATRIX)
def test_oracle_equivalence(spec, t):
    N = 12
    tri = s1_triangle(spec, t, N)
    for n in range(N + 1):
        for k in range(n + 1):
            assert tri.entry(n, k) == s1_entry_oracle(spec, t, n, k), (n, k)


def test_classical_anchor_row_4():
    tri = s1_triangle(linear(1, 0), 1, 4)
    row = [tri.entry(4, k).constant_value() for k in range(1, 5)]
    assert row == [6, 11, 6, 1]


def test_matches_independent_classical_recurrence():
    N = 12
    tri = s1_triangle(linear(1, 0), 1, N)
    classical = classical_first_kind(N)
    for n in range(N + 1):
        for k in range(n + 1):
            assert tri.entry(n, k).constant_value() == classical[n][k]


def test_q_triangle_has_nonnegative_integer_coefficients():
    tri = s1_triangle(qpow(1), 1, 10)
    for n in range(11):
        for k in range(n + 1):
            for c in tri.entry(n, k).terms.values():
                assert c.denominator == 1 and c >= 0


def test_triangle_boundaries():
    tri = s1_triangle(linear(2, 1), 1, 6)
    for n in range(7):
        assert tri.entry(n, n) == 1
        assert tri.entry(n, -1) == 0
        assert tri.entry(n, n + 1) == 0
    for n in range(1, 7):
        assert tri.entry(n, 0) == 0
    with pytest.raises(IndexError):
        tri.entry(7, 1)


def test_symbolic_t_entry_anchor():
    # row 3: e_1 of {f(1)/t, f(2)/t^2} for entry (3,2)
    tri = s1_triangle(linear(1, 0), "t", 3)
    assert tri.entry(3, 2).terms == {-1: Fraction(1), -2: Fraction(2)}


def test_column_closed_forms():
    for spec, t in MATRIX:
        rep = s1_column_closed_forms(spec, t, 6)
        assert rep.passed, rep.failures[:3]


def test_s2_entry_anchors():
    spec = linear(1, 0)
    assert s2_row(spec, 1, 1, 2)[1] == 1
    assert s2_row(spec, 1, 2, 3)[2] == 0  # -2*1/1! + 4/2!
    for n in range(1, 5):
        assert s2_row(spec, 1, n, 1)[0] == 0
    # n=0: full alternating sum -1 + 3 - 3/2 + 1/6
    assert s2_row(spec, 1, 0, 4)[3] == Fraction(2, 3)


@pytest.mark.parametrize("spec,t", MATRIX + [(qpow(-1), 2)])
def test_s2_row_matches_its_defining_sum(spec, t):
    """Each entry equals its alternating binomial sum added term by term,
    and prints the same."""
    tp = check_config(spec, t)
    for n in range(7):
        row = stirling.s2_row(spec, tp, n, 8)
        for k in range(8):
            acc = LaurentPoly.constant((-1) ** k if n == 0 else 0)
            for j in range(1, k + 1):
                term = eval_f(spec, j) ** n * tp ** (-(j * n))
                acc = acc + term * Fraction(math.comb(k, j) * (-1) ** (k - j), math.factorial(j))
            assert (row[k], str(row[k])) == (acc, str(acc)), (n, k)


@pytest.mark.parametrize("spec,t", [(linear(2, 1), "t"), (linear(1, 0), Fraction(3, 2)),
                                    (qpow(1), 1)])
def test_s2_rows_invert_to_the_powers(spec, t):
    """Binomial inversion of the defining sum, rows 0..30:
    sum_{j<=k} C(k, j) entry(n, j) = f(k)^n t^(-kn) / k!, and 0^n at k = 0."""
    tp = check_config(spec, t)
    zero = LaurentPoly.constant(0)
    for n in range(31):
        row = s2_row(spec, t, n, n + 1)
        assert row[0] == 0 ** n, n
        for k in range(1, n + 1):
            lhs = sum((math.comb(k, j) * row[j] for j in range(k + 1)), zero)
            assert lhs == eval_f(spec, k) ** n * tp ** (-(k * n)) / math.factorial(k), (n, k)


@pytest.mark.parametrize("t,rows", [(Fraction(3, 2), 32), ("t", 24)])
def test_s1_rows_are_the_pochhammer_coefficients(monkeypatch, t, rows):
    """sum_k entry(n, k) x^k = x prod_{1<=j<n} (x + f(j) t^(-j)) at x = 0..n,
    on rows built afresh by the recurrence."""
    monkeypatch.setattr(stirling, "S1_ROWS", {})
    spec = linear(2, 1)
    tp = check_config(spec, t)
    tri = s1_triangle(spec, t, rows)
    assert tri.entries[0] == (1,)
    zero, one = LaurentPoly.constant(0), LaurentPoly.constant(1)
    for n in range(1, rows + 1):
        for x in range(n + 1):
            lhs = sum((e * x ** k for k, e in enumerate(tri.entries[n])), zero)
            rhs = x * math.prod((x + eval_f(spec, j) * tp ** (-j) for j in range(1, n)), start=one)
            assert lhs == rhs, (n, x)


def test_s2_diff_coeff_reduces_to_classical():
    # classical second kind {n,k}: rows n=0..4
    classical = {(2, 1): 1, (2, 2): 1, (3, 2): 3, (3, 3): 1, (4, 2): 7, (4, 3): 6}
    spec = linear(1, 0)
    for (n, k), v in classical.items():
        assert s2_diff_coeff(spec, 1, n, k) == v


def _diff_coeff_by_binomial_sum(spec, t, k, j):
    """Delta^j[g](0)/j! written out as sum_m C(j, m) (-1)^(j-m) g(m) / j!."""
    tp = check_config(spec, t)
    acc = LaurentPoly.constant(0)
    for m in range(j + 1):
        gm = (LaurentPoly.constant(1 if k == 0 else 0) if m == 0
              else eval_f(spec, m) ** k * tp ** (-(m * k)))
        acc = acc + gm * Fraction(math.comb(j, m) * (-1) ** (j - m))
    return acc * Fraction(1, math.factorial(j))


def _s2star_by_binomial_sum(spec, k, j):
    acc = Fraction(0)
    for m in range(1, j + 1):
        fm = eval_f(spec, m).constant_value()
        acc += Fraction(math.comb(j, m) * (-1) ** (j - m), math.factorial(j)) / fm ** k
    return acc


@pytest.mark.parametrize("spec,t", [
    (linear(2, 1), Fraction(3, 2)),
    (linear(2, 1), "t"),
    (parse_fspec("poly:1,0,1"), "t"),
    (TABLE, Fraction(3, 2)),
    (parse_fspec("qpow:3/2,1"), "t"),
])
def test_forward_differences_match_the_binomial_sums(spec, t):
    for k in range(6):
        for j in range(9):
            want = _diff_coeff_by_binomial_sum(spec, t, k, j)
            got = s2_diff_coeff(spec, t, k, j)
            assert (got, str(got)) == (want, str(want)), (k, j)
            if j:
                assert s2star_entry(spec, k, j) == _s2star_by_binomial_sum(spec, k, j), (k, j)


def test_s2star_rejects_symbolic_f():
    for call in (lambda: s2star_entry(qpow(1), 1, 2), lambda: s2star_ogf_check(qpow(1), 1, 4),
                 lambda: s2star_egf_check(qpow(1), 1, 4)):
        with pytest.raises(FSpecError):
            call()


@pytest.mark.parametrize("spec,t", MATRIX)
def test_geom_transform(spec, t):
    for n in range(6):
        for k in range(4):
            [rep] = s2_geom_transform_checks(spec, t, [n], [k])
            assert rep.passed, rep.failures[:3]


def _geom_report_by_depth(spec, t, n, k):
    """The geometric-transform report at depth n, its right side built from
    the difference coefficients of the first n + 1 powers alone."""
    tp = check_config(spec, t)
    report = Report("s2-geom-transform", {"f": spec.render(), "t": tp, "n": n, "k": k})
    lhs = stirling._powers(spec, tp, k, n + 1)
    rhs = [LaurentPoly.constant(0)] * (n + 1)
    for j, coeff in enumerate(stirling._newton(lhs)):
        if not coeff.is_zero():
            for i in range(j, n + 1):
                rhs[i] = rhs[i] + coeff * math.perm(i, j)
    for d in range(n + 1):
        report.check((n, k, d), lhs[d], rhs[d])
    return report


@pytest.mark.parametrize("spec,t", [(linear(2, 1), Fraction(3, 2)), (linear(2, 1), "t"),
                                    (TABLE, 1)])
def test_geom_suite_shares_one_table_per_k(spec, t):
    suite = [json_text(r.to_json()) for r in run_suite("s2-geom", spec, t, 8)]
    assert len(suite) == 9 * 6
    assert suite == [json_text(s2_geom_transform_checks(spec, t, [m], [k])[0].to_json())
                     for m in range(9) for k in range(6)]
    assert suite == [json_text(_geom_report_by_depth(spec, t, m, k).to_json())
                     for m in range(9) for k in range(6)]


def test_s2star_anchor():
    spec = linear(1, 0)
    # k=1, j=2: C(2,1)(-1)/2!/1 + C(2,2)/2!/2 = -1 + 1/4
    assert s2star_entry(spec, 1, 2) == Fraction(-3, 4)
    rep = s2star_ogf_check(spec, 1, 4)
    assert rep.passed
    # the OGF identity reproduces 1/f(2) = 1/2 at n=2
    cell = [c for c in rep.cells if c.indices == (2,)][0]
    assert cell.lhs == Fraction(1, 2)


def test_s2star_transforms_numeric_specs():
    for spec in (linear(1, 0), linear(2, 1), TABLE):
        for k in range(4):
            assert s2star_ogf_check(spec, k, 10).passed
        for r in range(4):
            assert s2star_egf_check(spec, r, 8).passed


@pytest.mark.parametrize("sizes", [(10, 3, 12), (12, 3, 10)])
def test_triangle_store_extends_and_truncates(monkeypatch, sizes):
    monkeypatch.setattr(stirling, "S1_ROWS", {})
    for spec, t in ((linear(2, 1), Fraction(3, 2)), (TABLE, "t")):
        oracle = {(n, k): s1_entry_oracle(spec, t, n, k)
                  for n in range(13) for k in range(n + 1)}
        for N in sizes:
            tri = s1_triangle(spec, t, N)
            assert tri.rows == N and len(tri.entries) == N + 1
            with pytest.raises(IndexError):
                tri.entry(N + 1, 1)
            for n in range(N + 1):
                for k in range(n + 1):
                    assert tri.entry(n, k) == oracle[n, k], (N, n, k)


def test_triangle_store_keeps_no_failed_row(monkeypatch):
    monkeypatch.setattr(stirling, "S1_ROWS", {})
    # row 14 needs f(13), one past the 12-entry table
    for _ in range(2):
        with pytest.raises(FSpecError):
            s1_triangle(TABLE, 1, 14)
    tri = s1_triangle(TABLE, 1, 13)
    assert tri.rows == 13 and len(tri.entries) == 14
    monkeypatch.setattr(stirling, "S1_ROWS", {})
    assert s1_triangle(TABLE, 1, 13).entries == tri.entries
