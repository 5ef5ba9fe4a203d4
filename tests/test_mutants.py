"""Kernel-mutation matrix: corrupt one kernel at a time, and the verify suites
it feeds must fail.

Each row patches one kernel with a bounded corruption (one value off by one
or one sign flipped, so that no run grows without bound), runs the named
suites in-process at depth 8 through ``cli.run_suite``, and asserts that each
of them fails a cell it passes with the kernel intact.  The prop1 as-printed
cells fail either way (KNOWN_ISSUES.md), so they never count.  A row lists
only the configurations its suites run in: the modified-number and Euler-sum
suites need numeric f.
"""

import contextlib
import signal
from fractions import Fraction
from functools import cache

import pytest

from fstirling import (cli, convpoly, cyclotomic, eulersum, factorial, fharmonic, fspec,
                       laurent, series, stirling)
from fstirling.fspec import parse_fspec

MODULES = (cli, convpoly, cyclotomic, eulersum, factorial, fharmonic, fspec, laurent,
           series, stirling)
DEPTH = 8
NUMERIC = ("linear:2,1", Fraction(3, 2))
SYMBOLIC = ("linear:2,1", "t")
QPOW = ("qpow:1", Fraction(3, 2))  # f(n) = q^(n+1): entries are polynomials in q
ALL = (NUMERIC, SYMBOLIC, QPOW)
NUMERIC_F = (NUMERIC, SYMBOLIC)


def _bump(values, i):
    """``values`` with entry i one larger, when there is an entry i."""
    values = list(values)
    if len(values) > i:
        values[i] += 1
    return values


def _s1_triangle(orig):
    def s1_triangle(spec, t, N):
        tri = orig(spec, t, N)
        if N < 5:
            return tri
        rows = tri.entries
        return stirling.Triangle(N, rows[:5] + (tuple(_bump(rows[5], 2)),) + rows[6:])
    return s1_triangle


def _pack_entries(orig):
    def pack_entries(entries, factors):
        packed, read = orig(entries, factors)
        return packed, lambda value, r: -read(value, r) if r == 2 else read(value, r)
    return pack_entries


def _packed_product(orig):
    def packed_product(a, b):
        out = orig(a, b)
        out[len(out) // 2] = -out[len(out) // 2]
        return out
    return packed_product


def _series_plus(orig, exponent):
    """``orig`` with var^exponent added to its series result."""
    def corrupted(*args):
        s = orig(*args)
        if s.order < exponent:
            return s
        return s + series.TruncSeries(s.var, s.order, [0] * exponent + [1])
    return corrupted


def _f_pairs(orig):
    def f_pairs(spec, lo, hi):
        for n, (num, den) in enumerate(orig(spec, lo, hi), lo):
            yield (num + den, den) if n == 3 else (num, den)
    return f_pairs


def _prefix_weighted_sum(orig):
    def prefix_weighted_sum(terms, count):
        P, S, D = orig(terms, count)
        return P, S + 1, D
    return prefix_weighted_sum


# kernel -> (owner, attribute, corruption, suites that must fail, configurations)
KERNELS = {
    "s1_triangle": (stirling, "s1_triangle", _s1_triangle,
                    ("s1-oracle", "harmonic-routes", "wf"), ALL),
    "bang_f": (factorial, "bang_f",
               lambda orig: lambda spec, n: -orig(spec, n) if n == 3 else orig(spec, n),
               ("harmonic-routes", "wf", "convpoly-rec"), ALL),
    "_powers": (stirling, "_powers", lambda orig: lambda *a: _bump(orig(*a), 3),
                ("s2-geom",), ALL),
    "_reciprocal_powers": (stirling, "_reciprocal_powers",
                           lambda orig: lambda *a: _bump(orig(*a), 3),
                           ("s2star-ogf", "s2star-egf"), NUMERIC_F),
    "_newton": (stirling, "_newton", lambda orig: lambda g: _bump(orig(g), 2),
                ("s2-geom", "s2star-ogf", "s2star-egf"), NUMERIC_F),
    "pack_entries": (laurent, "pack_entries", _pack_entries, ("harmonic-routes",), ALL),
    "_packed_product": (laurent, "_packed_product", _packed_product,
                        ("conv-shift", "gf-special"), ALL),
    "power_coeffs": (cyclotomic, "power_coeffs",
                     lambda orig: lambda p, entries: _bump(orig(p, entries), 0),
                     ("harmonic-routes",), ALL),
    "twisted_product_coeff": (cyclotomic, "twisted_product_coeff",
                              lambda orig: lambda p, entries: orig(p, entries) + 1,
                              ("harmonic-routes",), ALL),
    "TruncSeries.__mul__": (series.TruncSeries, "__mul__", lambda orig: _series_plus(orig, 1),
                            ("conv-shift", "gf-special", "s2star-egf"), NUMERIC_F),
    "TruncSeries.inverse": (series.TruncSeries, "inverse", lambda orig: _series_plus(orig, 2),
                            ("gf-special",), (NUMERIC,)),
    "_prefix_weighted_sum": (eulersum, "_prefix_weighted_sum", _prefix_weighted_sum,
                             ("euler-sum-numeric",), (NUMERIC,)),
    # Every identity of the configured f holds for the corrupted f too; only the
    # suites of the classical f(n) = n can fail.
    "f_pairs": (fspec, "f_pairs", _f_pairs, ("euler-identity", "eulerian2", "gf-special"),
                (NUMERIC,)),
}


@contextlib.contextmanager
def _time_limit(seconds):
    """Turn a mutant that runs away into a test failure, not a hung run."""
    def expire(*_):
        raise TimeoutError(f"the suites ran past {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _failures(config, suite):
    """The failing cells of ``suite``, with the row and sum stores emptied first
    and after, as ``cli.main`` empties them for each command."""
    f, t = config
    stirling.S1_ROWS.clear()
    fharmonic.DIRECT_SUMS.clear()
    try:
        with _time_limit(30):
            reports = cli.run_suite(suite, parse_fspec(f), t, DEPTH)
    finally:
        stirling.S1_ROWS.clear()
        fharmonic.DIRECT_SUMS.clear()
    return {(r.identity, cell.indices) for r in reports for cell in r.failures}


@cache
def _intact_failures(config, suite):
    return frozenset(_failures(config, suite))


def _patch(monkeypatch, owner, name, corrupt):
    """Replace the kernel everywhere the package holds it: a function is also
    bound in each module that imports it by name."""
    orig = getattr(owner, name)
    for holder in (owner,) if isinstance(owner, type) else MODULES:
        if getattr(holder, name, None) is orig:
            monkeypatch.setattr(holder, name, corrupt(orig))


@pytest.mark.parametrize("kernel,config", [
    (kernel, config) for kernel, (*_, configs) in KERNELS.items() for config in configs],
    ids=lambda v: v if isinstance(v, str) else f"{v[0]}@{v[1]}")
def test_a_corrupted_kernel_fails_the_suites_it_feeds(kernel, config, monkeypatch):
    owner, name, corrupt, suites, _ = KERNELS[kernel]
    intact = {suite: _intact_failures(config, suite) for suite in suites}
    _patch(monkeypatch, owner, name, corrupt)
    missed = [suite for suite in suites if not _failures(config, suite) - intact[suite]]
    assert not missed, f"{kernel} corrupted, yet these suites pass: {missed}"
