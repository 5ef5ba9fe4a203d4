"""Acceptance sweep: one criterion per test, one printed pass/fail line each.

The sweep matrix is: f in {linear:1,0; linear:2,1; qpow:1 (with t = 1);
the fixed 12-entry rational table in tests/data}, crossed with
t in {1, 3/2, symbolic} where the configuration is valid.
"""

import math
import os
import re
import time
from fractions import Fraction

import pytest

from fstirling import cli, convpoly, eulersum, fharmonic, stirling
from fstirling.factorial import check_config
from fstirling.fspec import linear, parse_fspec, qpow
from fstirling.laurent import LaurentPoly

DATA = os.path.join(os.path.dirname(__file__), "data")
TABLE = parse_fspec(f"table:{os.path.join(DATA, 'table12.json')}")
KNOWN_ISSUES = os.path.join(os.path.dirname(__file__), os.pardir, "KNOWN_ISSUES.md")

NUMERIC_SPECS = [linear(1, 0), linear(2, 1), TABLE]
T_VALUES = [1, Fraction(3, 2), "t"]


def matrix():
    for spec in NUMERIC_SPECS:
        for t in T_VALUES:
            yield spec, t
    yield qpow(1), 1


@pytest.fixture
def announce(capfd, request):
    """Print the criterion verdict to the real terminal, after the test body."""
    outcome = {"ok": False}
    yield outcome
    label = request.node.name.replace("test_", "")
    with capfd.disabled():
        print(f"{'PASS' if outcome['ok'] else 'FAIL'}  {label}")


def test_criterion_01_oracle_equivalence(announce):
    start = time.monotonic()
    for spec, t in matrix():
        tri = stirling.s1_triangle(spec, t, 12)
        for n in range(13):
            for k in range(n + 1):
                assert tri.entry(n, k) == stirling.s1_entry_oracle(spec, t, n, k)
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"oracle sweep took {elapsed:.1f}s"
    announce["ok"] = True


def test_criterion_02_classical_anchor(announce):
    tri = stirling.s1_triangle(linear(1, 0), 1, 12)
    assert [tri.entry(4, k).constant_value() for k in range(1, 5)] == [6, 11, 6, 1]
    rows = [[1]]
    for n in range(1, 13):
        prev = rows[-1]
        rows.append([
            (prev[k - 1] if 1 <= k <= n else 0) + (n - 1) * (prev[k] if k < n else 0)
            for k in range(n + 1)
        ])
    for n in range(13):
        for k in range(n + 1):
            assert tri.entry(n, k).constant_value() == rows[n][k]
    announce["ok"] = True


def test_criterion_03_geometric_transform(announce):
    for spec, t in matrix():
        for n in range(9):
            for k in range(6):
                rep = stirling.s2_geom_transform_check(spec, t, n, k)
                assert rep.passed, (spec.render(), t, n, k, rep.failures[:2])
    announce["ok"] = True


def test_criterion_04_modified_transforms(announce):
    for spec in NUMERIC_SPECS:
        for k in range(5):
            assert stirling.s2star_ogf_check(spec, k, 12).passed
        for r in range(5):
            assert stirling.s2star_egf_check(spec, r, 8).passed
    rep = stirling.s2star_ogf_check(linear(1, 0), 1, 2)
    cell = [c for c in rep.cells if c.indices == (2,)][0]
    assert cell.lhs == Fraction(1, 2) and cell.passed
    announce["ok"] = True


def test_criterion_05_harmonic_routes(announce):
    for spec, t in matrix():
        tp = check_config(spec, t)
        for n in range(11):
            for p in range(1, 6):
                direct = fharmonic.fharmonic_direct(spec, p, n, tp ** p)
                assert fharmonic.harmonic_via_ftilde(spec, tp, p, n) == direct
                if p in (2, 3, 5):
                    assert fharmonic.harmonic_via_roots(spec, tp, p, n) == direct
        if not spec.symbolic:
            for n in range(11):
                for p in range(1, 5):
                    got = fharmonic.harmonic_via_subst(spec, p, n)
                    want = fharmonic.fharmonic_direct(
                        spec, p, n, LaurentPoly.monomial("u", p)
                    )
                    assert got == want
    spec = linear(1, 0)
    assert fharmonic.harmonic_via_ftilde(spec, 1, 2, 3) == Fraction(49, 36)
    assert fharmonic.harmonic_via_roots(spec, 1, 2, 3) == Fraction(49, 36)
    assert -(Fraction(36) - 121 + 36) == 49  # root-route numerator hand check
    announce["ok"] = True


def test_criterion_06_corollary_closed_forms(announce):
    for spec, t in matrix():
        assert fharmonic.corollary_expansions_check(spec, t, 10).passed
    h1, h2 = Fraction(11, 6), Fraction(49, 36)
    tri = stirling.s1_triangle(linear(1, 0), 1, 4)
    assert tri.entry(4, 3) == math.factorial(3) * (h1 ** 2 - h2) / 2 == 6
    announce["ok"] = True


def test_criterion_07_prop2_functional_equations(announce):
    for spec, t in matrix():
        for p in range(2, 7):
            for n in range(11):
                rep = fharmonic.prop2_functional_eq_check(spec, t, p, n)
                assert rep.passed, (spec.render(), t, p, n)
    rep = fharmonic.prop2_functional_eq_check(linear(1, 0), 1, 2, 1)
    assert all(c.lhs == Fraction(5, 4) for c in rep.cells)
    announce["ok"] = True


def test_criterion_08_stirling_difference_identity(announce):
    for p in range(3, 7):
        for n in range(1, 21):
            assert fharmonic.stirling_harmonic_identity_check(p, n).passed
    rep = fharmonic.stirling_harmonic_identity_check(3, 2)
    assert rep.cells[0].lhs == Fraction(1, 8)
    announce["ok"] = True


def test_criterion_09_prop1_residuals_recorded(announce):
    """The as-printed recurrence is allowed to fail only where the failure is
    recorded, cell by cell, in KNOWN_ISSUES.md."""
    with open(KNOWN_ISSUES) as fh:
        documented = fh.read()
    doc_cells = set(
        (int(p), int(n))
        for p, n in re.findall(r"^\| (\d) \| (\d) \|", documented, re.M)
    )
    failing = set()
    spec = linear(1, 0)
    for p in range(1, 4):
        for n in range(7):
            rep = fharmonic.prop1_recurrence_check(spec, p, n)
            assert len(rep.cells) == 2  # report always emitted
            by_key = {c.indices[2]: c for c in rep.cells}
            assert by_key["with-leading-factor"].passed, (p, n)
            cell = by_key["as-printed"]
            if not cell.passed:
                failing.add((p, n))
                residual = cell.lhs - cell.rhs
                assert f"`{residual}`" in documented, (p, n, residual)
    assert failing == doc_cells, "undocumented or stale residual cells"
    announce["ok"] = True


def test_criterion_10_convolution_polynomials(announce):
    for spec, t in matrix():
        assert convpoly.sigma_recurrence_check(spec, t, 10, 10).passed
    for x in range(2, 13):
        assert convpoly.sigma_eval(linear(1, 0), 1, "sigma", 1, x) == Fraction(1, 2)
    assert convpoly.stirlingpoly_gf_check("classic", 6, 8).passed
    assert convpoly.stirlingpoly_gf_check("alpha", 6, 8, alpha=3).passed
    assert convpoly.stirlingpoly_gf_check("alphabeta", 6, 8, alpha=2, beta=1).passed
    assert convpoly.eulerian2_identity_check(6, 12).passed
    stirling_core = convpoly.TruncSeries.exp("z", 1, 5) / convpoly.geometric_minus_one_over("z", 5)
    for t_shift in (0, 1, 2):
        assert convpoly.conv_family_shift_check([1, 1], t_shift, 5, 6).passed
        assert convpoly.conv_family_shift_check(stirling_core.coeffs, t_shift, 5, 6).passed
    announce["ok"] = True


def test_criterion_11_experimental_fit(announce):
    _, rep = convpoly.fit_experimental_gf(linear(1, 0), 1, 11, 10)
    assert rep.passed  # the triangular solve reproduces its inputs exactly
    assert convpoly.experimental_binomial_check(linear(1, 0), 1, 10).passed
    announce["ok"] = True


def test_criterion_12_euler_sum_numerics(announce):
    spec = linear(1, 0)
    N = 10 ** 5
    start = time.monotonic()
    partial = eulersum.euler_sum_numeric(spec, 2, N, "harmonic_over_f")
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"classic Euler sum took {elapsed:.1f}s"
    target = Fraction(18940656, 10 ** 7)  # (zeta(2)^2 + zeta(4))/2 to 7 digits
    assert abs(partial - target) <= Fraction(1, 1000)

    spec2 = linear(2, 1)
    M = 10 ** 4
    start = time.monotonic()
    lhs = eulersum.euler_sum_numeric(spec2, 2, M, "harmonic_over_f")
    z2 = eulersum.euler_sum_numeric(spec2, 2, M, "fzeta")
    z4 = eulersum.euler_sum_numeric(spec2, 2, M, "fzeta2r")
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"f-zeta analog took {elapsed:.1f}s"
    assert abs(lhs - (z2 * z2 + z4) / 2) <= Fraction(1, 1000)
    announce["ok"] = True


def test_criterion_13_full_verify_sweep(announce):
    start = time.monotonic()
    failures = {}
    for spec, t in matrix():
        for suite in cli.SUITES:
            for rep in cli.run_suite(suite, spec, t, 8):
                for cell in rep.failures:
                    failures.setdefault(suite, []).append(cell.indices)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"full sweep took {elapsed:.1f}s"
    # exit 0, or exit 1 with failures confined to the documented cells
    assert set(failures) <= {"prop1"}, failures
    for indices in failures.get("prop1", []):
        assert indices[2] == "as-printed", indices
    announce["ok"] = True
