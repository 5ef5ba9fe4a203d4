"""Relations between the reports of configurations that must agree.

Each suite checks identities within one (f, t) configuration.  Two exact
relations tie configurations together, and every suite obeys both:

- Specialization.  Setting t = t0 is a ring homomorphism, so every cell of
  the symbolic-t report, evaluated at t0, equals the same cell of the t0
  report.  The symbolic path runs on many-term products and monomial powers,
  the numeric one on constants, so a fault in one path that stays consistent
  within its own report shows here.
- Spec equivalence.  ``linear:a,b``, ``poly:b,a`` and a ``table:`` of
  a n + b evaluate one f through different branches of the f evaluator, so
  their reports agree cell for cell.

A report here is every suite that applies, run at depth 8 in-process through
``cli.run_suite`` after ``fspec.MEMO`` is emptied.  Cells are matched by
(identity, params other than f and t, indices, rank among the cells that
share those three: experimental-binomial repeats the fit cells of each n).
"""

import functools
import json
import os
import tempfile
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fstirling import cli, fspec, laurent
from fstirling.fspec import MEMO, FSpecError, check_config, parse_fspec
from fstirling.laurent import LaurentPoly

DEPTH = 8
T0 = (Fraction(3, 2), Fraction(-2, 5))
TABLE_LEN = 20  # the suites read f(n) for n <= 11 at depth 8


def _f_text(kind, params, tmp):
    """The --f text of a drawn f; a table is written to a file in ``tmp``."""
    if kind == "table":
        path = os.path.join(tmp, "f.json")
        with open(path, "w") as fh:
            json.dump([str(v) for v in params], fh)
        return f"table:{path}"
    return f"{kind}:" + ",".join(map(str, params))


def _cells(f_text, t) -> dict:
    """Cell key -> (lhs, rhs) over the suites that apply to f and t; a suite
    that does not apply writes one skip cell, which is left out."""
    spec = parse_fspec(f_text)
    tp = check_config(spec, t)
    cells, ranks = {}, Counter()
    MEMO.clear()
    try:
        for name in cli.SUITES:
            for report in cli.run_suite(name, spec, tp, DEPTH):
                params = tuple(sorted((k, str(v)) for k, v in report.params.items()
                                      if k not in ("f", "t")))
                for cell in report.cells:
                    if cell.lhs is None:
                        continue
                    key = (report.identity, params, cell.indices)
                    ranks[key] += 1
                    cells[key + (ranks[key],)] = (cell.lhs, cell.rhs)
    finally:
        MEMO.clear()
    return cells


_intact_cells = functools.cache(_cells)


def _value(v, t0=None):
    """A cell value in a form that compares across reports: a rational, or a
    variable with its (exponent, coefficient) terms.  With ``t0``, a value in
    t is summed term by term at t = t0; a value in u or q is kept."""
    if not isinstance(v, LaurentPoly):
        return Fraction(v)
    terms = v.terms
    if v.var is None:
        return terms.get(0, Fraction(0))
    if v.var == "t" and t0 is not None:
        return sum((c * t0 ** e for e, c in terms.items()), Fraction(0))
    return v.var, sorted(terms.items())


def specialization(f_text, t0, cells=_intact_cells):
    """The symbolic-t report's cells and the keys of those that, at t = t0,
    differ from the t0 report or are missing from it."""
    sym, num = cells(f_text, "t"), cells(f_text, t0)
    return sym, [key for key, pair in sym.items() if key not in num or
                 [_value(v, t0) for v in pair] != [_value(v) for v in num[key]]]


def equivalence(f_texts, t, cells=_intact_cells):
    """The keys of the cells shared by the reports of ``f_texts`` at t on
    which some report differs from the first."""
    reports = [cells(f_text, t) for f_text in f_texts]
    first, shared = reports[0], set.intersection(*map(set, reports))
    return [key for key in shared
            if any([_value(v) for v in report[key]] != [_value(v) for v in first[key]]
                   for report in reports[1:])]


@pytest.fixture(scope="module")
def odd_table(tmp_path_factory):
    """A table: of f(n) = 2n + 1, the f of linear:2,1 and poly:1,2."""
    path = tmp_path_factory.mktemp("f") / "odd.json"
    path.write_text(json.dumps([2 * n + 1 for n in range(1, TABLE_LEN + 1)]))
    return f"table:{path}"


@pytest.mark.parametrize("f_text", ["linear:2,1", "linear:1,0"])
@pytest.mark.parametrize("t0", T0, ids=str)
def test_a_symbolic_report_specializes_to_the_numeric_one(f_text, t0):
    sym, mismatched = specialization(f_text, t0)
    assert not mismatched, mismatched[:5]
    # Every suite runs at symbolic t but experimental-fit, which needs numeric t.
    assert {key[0] for key in sym} == {
        key[0] for key in _intact_cells(f_text, t0)} - {"experimental-binomial"}


@pytest.mark.parametrize("t", ["3/2", "t"])
def test_one_f_under_three_specs_gives_one_report(t, odd_table):
    specs = ("linear:2,1", "poly:1,2", odd_table)
    assert not equivalence(specs, t)
    linear_, poly_, table_ = (_intact_cells(f_text, t) for f_text in specs)
    # euler-sum-numeric needs f at every n, so it skips a table.
    assert linear_.keys() == poly_.keys()
    assert table_.keys() == {key for key in linear_ if key[0] != "euler-sum-numeric"}


RATIO = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5))
NONZERO = RATIO.filter(bool)
# f as in test_cli.py's random configurations, less the draws it rejects for a
# zero table entry or q-power base: linear, poly of degree <= 2, a table or a
# numeric q-power.  A symbolic q-power takes no symbolic t.
F_DRAWS = st.one_of(
    st.tuples(st.just("linear"), st.tuples(RATIO, RATIO)),
    st.tuples(st.just("poly"), st.lists(RATIO, min_size=1, max_size=3).map(tuple)),
    st.tuples(st.just("table"), st.lists(NONZERO, min_size=TABLE_LEN, max_size=TABLE_LEN)),
    st.tuples(st.just("qpow"), st.tuples(NONZERO, st.integers(-2, 2))),
)


@settings(max_examples=6, derandomize=True, deadline=None)
@given(F_DRAWS, NONZERO)
def test_random_configurations_obey_both_relations(f, t0):
    kind, params = f
    with tempfile.TemporaryDirectory() as tmp:
        f_text = _f_text(kind, params, tmp)
        try:
            _, mismatched = specialization(f_text, t0, _cells)
            if kind == "linear":
                a, b = params
                unequal = equivalence([f_text, f"poly:{b},{a}"], t0, _cells)
                assert not unequal, unequal[:5]
        except FSpecError:
            reject()  # f is 0 at some n the suites reach
    assert not mismatched, mismatched[:5]


def _monomial_power(orig):
    """t^3 read as t^4 in the monomial branch, for a monomial in a variable."""
    def __pow__(self, exponent):
        if exponent == 3 and self.var is not None and self.is_monomial():
            exponent = 4
        return orig(self, exponent)
    return __pow__


def _linear_branch(orig):
    """f(5) + 1 from the linear branch of the f evaluator only."""
    def raw_f(spec, n):
        num, den = orig(spec, n)
        return (num + den, den) if n == 5 and spec.kind == "linear" else (num, den)
    return raw_f


# mutant -> (owner, attribute, corruption, the relation's mismatches under ``cells``)
MUTANTS = {
    "monomial-power": (laurent.LaurentPoly, "__pow__", _monomial_power,
                       lambda cells: specialization("linear:2,1", T0[0], cells)[1]),
    "linear-branch": (fspec, "_raw_f", _linear_branch,
                      lambda cells: equivalence(["linear:2,1", "poly:1,2"], "3/2", cells)),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_corrupted_kernel_breaks_its_relation(mutant, monkeypatch):
    owner, name, corrupt, mismatches = MUTANTS[mutant]
    assert not mismatches(_intact_cells)
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    assert mismatches(_cells), f"{mutant} corrupted, yet the relation holds"
