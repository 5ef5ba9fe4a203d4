"""Exact partial sums of the Euler-type series built on 1/f(n)^r.

Every sum runs on integer pairs from ``fspec.f_pairs``: the exact sums
combine them divide and conquer, and ``euler_sum_floor`` encloses the sum in
fixed point.  This module imports only ``fspec``, so the ``eulersum`` command
loads no ring, triangle or route module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Tuple

from .fspec import FSpec, f_pairs


def euler_sum_numeric(spec: FSpec, r: int, N: int, mode: str) -> Fraction:
    """Exact rational partial sum of the selected Euler-like series.

    mode "harmonic_over_f":  sum_{n<=N} F_n^(r)(1) / f(n)^r
    mode "fzeta":            sum_{n<=N} 1 / f(n)^r
    mode "fzeta2r":          sum_{n<=N} 1 / f(n)^(2r)

    Summation is exact (no floating point) and runs on integer pairs; a
    divide-and-conquer combine keeps the big-rational arithmetic near the top
    of the recursion tree.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if mode == "harmonic_over_f":
        return Fraction(*_prefix_weighted_sum(_terms(spec, r, N), N)[1])
    if mode not in ("fzeta", "fzeta2r"):
        raise ValueError(f"unknown mode {mode!r}")
    return Fraction(*_range_sum(_terms(spec, 2 * r if mode == "fzeta2r" else r, N), N))


def fzeta_and_harmonic_sums(spec: FSpec, r: int, N: int) -> Tuple[Fraction, Fraction]:
    """The "fzeta" and "harmonic_over_f" sums of euler_sum_numeric, from one pass."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return tuple(Fraction(*s) for s in _prefix_weighted_sum(_terms(spec, r, N), N))


_FLOOR_DOUBLINGS = 3


def euler_sum_floor(spec: FSpec, r: int, N: int, mode: str, unit: int) -> int:
    """floor(euler_sum_numeric(spec, r, N, mode) * unit), exactly, without
    building the exact rational.

    Each term a_n = 1/f(n)^r is enclosed in fixed point at scale 2^bits by
    its floor and ceiling; the sums of those bounds enclose the series
    (mode "harmonic_over_f" uses T = (A^2 + sum a_n^2)/2 with A = sum a_n).
    When both ends of the enclosure floor to the same multiple of 1/unit,
    that is the answer; otherwise the precision doubles, and after
    _FLOOR_DOUBLINGS doublings the exact sum decides.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if mode not in ("harmonic_over_f", "fzeta", "fzeta2r"):
        raise ValueError(f"unknown mode {mode!r}")
    power = 2 * r if mode == "fzeta2r" else r
    bits = unit.bit_length() + 2 * N.bit_length() + 16
    for _ in range(_FLOOR_DOUBLINGS + 1):
        lo, hi, shift = _enclose(spec, power, N, bits, mode == "harmonic_over_f")
        floor_lo = lo * unit >> shift
        if floor_lo == hi * unit >> shift:
            return floor_lo
        bits *= 2
    exact = euler_sum_numeric(spec, r, N, mode)
    return exact.numerator * unit // exact.denominator


def _enclose(spec: FSpec, power: int, N: int, bits: int, weighted: bool) -> Tuple[int, int, int]:
    """(lo, hi, shift) with lo <= S * 2^shift <= hi, where S is sum a_n over
    n <= N with a_n = 1/f(n)^power, or the prefix-weighted sum
    (A^2 + sum a_n^2)/2 when ``weighted``.  Terms are streamed."""
    a_lo = a_hi = sq_lo = sq_hi = 0
    for p, q in _terms(spec, power, N):
        fl, rem = divmod(p << bits, q)
        a_lo += fl
        a_hi += fl + (rem != 0)
        if weighted:
            fl, rem = divmod(p * p << 2 * bits, q * q)
            sq_lo += fl
            sq_hi += fl + (rem != 0)
    if not weighted:
        return a_lo, a_hi, bits
    if a_lo >= 0:
        a2_lo, a2_hi = a_lo * a_lo, a_hi * a_hi
    elif a_hi <= 0:
        a2_lo, a2_hi = a_hi * a_hi, a_lo * a_lo
    else:
        a2_lo, a2_hi = 0, max(a_lo * a_lo, a_hi * a_hi)
    return a2_lo + sq_lo, a2_hi + sq_hi, 2 * bits + 1


# The exact sums carry each rational as an integer pair (p, q) in lowest terms
# with q > 0, Fraction's own invariant, and combine pairs with the gcd-reduced
# add and multiply that Fraction uses (Knuth, TAOCP vol. 2, 4.5.1).


def _terms(spec: FSpec, power: int, N: int) -> Iterator[tuple]:
    """a_n = 1/f(n)^power for n <= N, streamed as pairs."""
    e = abs(power)
    for num, den in f_pairs(spec, 1, N + 1):
        p, q = (den ** e, num ** e) if power >= 0 else (num ** e, den ** e)
        yield (p, q) if q > 0 else (-p, -q)


def _add(a: tuple, b: tuple) -> tuple:
    (na, da), (nb, db) = a, b
    g = math.gcd(da, db)
    t = na * (db // g) + nb * (da // g)
    g2 = math.gcd(t, g)
    return t // g2, (da // g) * (db // g2)


def _mul(a: tuple, b: tuple) -> tuple:
    (na, da), (nb, db) = a, b
    g1, g2 = math.gcd(na, db), math.gcd(nb, da)
    return (na // g1) * (nb // g2), (da // g2) * (db // g1)


def _range_sum(terms: Iterator[tuple], count: int) -> tuple:
    """Sum of the next ``count`` pairs of ``terms``."""
    if count == 1:
        return next(terms)
    return _add(_range_sum(terms, count // 2), _range_sum(terms, count - count // 2))


def _prefix_weighted_sum(terms: Iterator[tuple], count: int) -> Tuple[tuple, tuple]:
    """(A, T) over the next ``count`` pairs: A = sum a_n, T = sum_{k<=n} a_k a_n."""
    if count == 1:
        a = next(terms)
        return a, (a[0] * a[0], a[1] * a[1])
    half = count // 2
    A1, T1 = _prefix_weighted_sum(terms, half)
    A2, T2 = _prefix_weighted_sum(terms, count - half)
    return _add(A1, A2), _add(_add(T1, T2), _mul(A1, A2))
