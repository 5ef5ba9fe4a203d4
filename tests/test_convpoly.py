"""Convolution-polynomial diagonals: recurrences, special-case generating
functions, the Eulerian expansion, shifted families, and the triangular fit."""

import os
from fractions import Fraction

import pytest

from fstirling.convpoly import (
    _triangular_fit,
    conv_family_shift_check,
    eulerian2_identity_check,
    eulerian2_triangle,
    experimental_binomial_check,
    fit_experimental_gf,
    sigma_eval,
    sigma_recurrence_check,
    solve_shifted_family,
    stirlingpoly_gf_check,
)
from fstirling.fspec import linear, parse_fspec, qpow
from fstirling.series import TruncSeries

DATA = os.path.join(os.path.dirname(__file__), "data")
TABLE = parse_fspec(f"table:{os.path.join(DATA, 'table12.json')}")

MATRIX = [
    (linear(1, 0), 1),
    (linear(1, 0), Fraction(3, 2)),
    (linear(1, 0), "t"),
    (linear(2, 1), 1),
    (linear(2, 1), Fraction(3, 2)),
    (qpow(1), 1),
    (TABLE, 1),
    (TABLE, "t"),
]


def test_sigma_classic_half():
    # sigma_1(x) = 1/2 for f(n)=n, t=1, all valid x
    spec = linear(1, 0)
    for x in range(2, 13):
        assert sigma_eval(spec, 1, "sigma", 1, x) == Fraction(1, 2)


def test_sigma_domain():
    with pytest.raises(ValueError):
        sigma_eval(linear(1, 0), 1, "sigma", 3, 3)
    with pytest.raises(ValueError):
        sigma_eval(linear(1, 0), 1, "bogus", 1, 3)


@pytest.mark.parametrize("spec,t", MATRIX)
def test_recurrences(spec, t):
    rep = sigma_recurrence_check(spec, t, 10, 10)
    assert rep.passed, rep.failures[:3]


def test_gf_families():
    assert stirlingpoly_gf_check("classic", 6, 8).passed
    assert stirlingpoly_gf_check("alpha", 6, 8, alpha=3).passed
    assert stirlingpoly_gf_check("alpha", 5, 7, alpha=Fraction(1, 2)).passed
    assert stirlingpoly_gf_check("alphabeta", 6, 8, alpha=2, beta=1).passed
    with pytest.raises(ValueError):
        stirlingpoly_gf_check("quartic", 3, 4)


def test_gf_alphabeta_hand_anchor():
    # alpha=2, beta=1: f(n) = 2n+1, sigma~_1(2) derived from entry(2,1) = 3/t
    rep = stirlingpoly_gf_check("alphabeta", 1, 2, alpha=2, beta=1)
    cell = [c for c in rep.cells if c.indices == ("alphabeta", 1, 2)][0]
    assert cell.lhs == 3
    assert cell.passed


def test_eulerian2_rows():
    rows = eulerian2_triangle(4)
    assert rows[1] == (1,)
    assert rows[2] == (1, 2)
    assert rows[3] == (1, 8, 6)
    assert rows[4] == (1, 22, 58, 24)
    assert len(rows) == 5


def test_eulerian2_identity():
    assert eulerian2_identity_check(6, 12).passed


def test_shifted_family_t0_is_identity():
    S = TruncSeries("z", 1, [Fraction(1), Fraction(1)])
    G = solve_shifted_family([1, 1], 0, 5)
    assert G.coeffs[:2] == [Fraction(1), Fraction(1)]
    assert all(c == 0 for c in G.coeffs[2:])


def test_conv_shift_binomial_anchor():
    # S = 1+z, t_shift=1: G = 1/(1-z); the identity becomes
    # x C(x+n, n)/(x+n) = C(x+n-1, n)
    rep = conv_family_shift_check([1, 1], 1, 5, 6)
    assert rep.passed, rep.failures[:3]
    import math

    G = solve_shifted_family([1, 1], 1, 6)
    assert G.coeffs == [Fraction(1)] * 7
    for x in range(1, 6):
        for n in range(5):
            lhs = Fraction(x, x + n) * math.comb(x + n, n)
            assert lhs == math.comb(x + n - 1, n)


def test_conv_shift_all_required_shifts():
    for t_shift in (0, 1, 2):
        assert conv_family_shift_check([1, 1], t_shift, 5, 6).passed
        stirling_s = TruncSeries.exp("z", 1, 5) * TruncSeries(
            "z", 5, [Fraction(1, __import__("math").factorial(n + 1)) for n in range(6)]
        ).inverse()
        assert conv_family_shift_check(stirling_s.coeffs, t_shift, 5, 6).passed


def test_fit_reproduces_inputs():
    spec = linear(1, 0)
    fitted, rep = fit_experimental_gf(spec, 1, 8, 7)
    assert rep.passed
    # classic case: F should be z e^z/(e^z - 1) whose first coefficients are
    # 1, 1/2, 1/12, 0, -1/720
    assert fitted.coeffs[0] == 1
    assert fitted.coeffs[1] == Fraction(1, 2)
    assert fitted.coeffs[2] == Fraction(1, 12)
    assert fitted.coeffs[3] == 0
    assert fitted.coeffs[4] == Fraction(-1, 720)


def _fit_by_powering(targets, x, N):
    """The fit as a triangular solve: g_n from [z^n] of the x-th power of the
    series known so far."""
    coeffs = [Fraction(1)]
    for n in range(1, N + 1):
        partial = TruncSeries("z", n, coeffs + [Fraction(0)])
        coeffs.append((targets[n] - (partial ** x).coeff(n)) / x)
    return coeffs


def test_power_recurrence_fit_matches_the_powering_fit():
    N = 10
    targets = [Fraction(1)] + [Fraction((-1) ** n * (n * n + 1), n + 2) for n in range(1, N + 1)]
    for x in range(1, 30):
        assert _triangular_fit(targets, x, N).coeffs == _fit_by_powering(targets, x, N), x


def test_fit_rejects_bad_arguments():
    spec = linear(1, 0)
    with pytest.raises(ValueError):
        fit_experimental_gf(spec, 1, 0, 1)
    with pytest.raises(ValueError):
        fit_experimental_gf(spec, 1, 4, 4)  # N > x-1
    with pytest.raises(ValueError):
        fit_experimental_gf(spec, "t", 4, 2)  # symbolic t


def test_experimental_binomial_identity():
    for spec, t in ((linear(1, 0), 1), (linear(2, 1), 1), (TABLE, Fraction(3, 2))):
        rep = experimental_binomial_check(spec, t, 10)
        assert rep.passed, rep.failures[:3]
