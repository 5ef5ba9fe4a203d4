"""Report rendering: constant values and the indent-2 JSON writer."""

import json
import os
from fractions import Fraction
from types import GeneratorType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fstirling import cli
from fstirling.fspec import check_config, linear, parse_fspec, qpow
from fstirling.laurent import LaurentPoly
from fstirling.report import Encoded, digits_unlimited, json_chunks, json_text, render_value

# Text includes non-ASCII and control characters; floats include nan and inf.
scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text())
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(documents)
@example([])
@example({})
@example({"": [{}, [], [[]], {"a": {}}], "\x00 é\U0001f600\"\\": (1, None)})
@example([True, False, None, -0.0, float("nan"), float("-inf"), 1e300, -(2 ** 100)])
def test_writer_is_json_dumps_indent_2(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)
    # Nested one level down, as a report inside the verify output list.
    assert "[\n  " + json_text(obj, 1) + "\n]" == json.dumps([obj], indent=2)


def _streamed(obj):
    """``obj`` with a generator for each list that ``json_chunks`` streams: the
    top, the items of a generator, and the values of a dict there that holds
    a generator; any other dict stays as it is."""
    if isinstance(obj, list):
        return (_streamed(item) for item in obj)
    if isinstance(obj, dict):
        out = {k: _streamed(v) for k, v in obj.items()}
        if any(isinstance(v, GeneratorType) for v in out.values()):
            return out
    return obj


@settings(max_examples=200, deadline=None)
@given(st.lists(documents, max_size=4), st.integers(0, 3))
@example([], 0)
@example([[], {"rows": []}, {"rows": [["3/2", "-1"], []], "t": "1/2"}, [{"a": {"b": [1]}}]], 1)
def test_a_list_written_an_item_at_a_time_is_the_writer_text(items, level):
    for doc in (items, {"f": "linear:2,1", "rows": items}):
        text = "".join(json_chunks(_streamed(doc), level))
        assert text == json_text(doc, level)
        if level == 0:
            assert text == json.dumps(doc, indent=2)


def test_laid_out_text_is_written_as_it_is_and_strings_are_quoted():
    reports = [{"identity": "s1-oracle", "cells": [{"lhs": "3/2", "pass": True}]}, {}]
    doc = [*reports, "3/2"]
    items = (Encoded(json_text(r, 1)) for r in reports)
    assert "".join(json_chunks(x for x in [*items, "3/2"])) == json.dumps(doc, indent=2)
    rows = {"t": "3/2", "rows": (Encoded(json_text(row, 2)) for row in [["1", "3/2"]])}
    assert "".join(json_chunks(rows)) == json.dumps({"t": "3/2", "rows": [["1", "3/2"]]}, indent=2)
    assert "".join(json_chunks(x for x in ())) == "[]"
    assert "".join(json_chunks({"rows": (x for x in ())})) == '{\n  "rows": []\n}'


@pytest.mark.parametrize("k", [0, 1, 3])
def test_the_writer_yields_each_item_before_the_next_is_made(k):
    def values():
        yield from ["1/2", {"var": "t", "terms": {"1": "1"}}, "-3"][:k]
        raise RuntimeError("item k")

    written = []
    with pytest.raises(RuntimeError, match="item k"):
        for chunk in json_chunks({"f": "linear:2,1", "rows": (row for row in [values()])}):
            written.append(chunk)
    whole = json_text({"f": "linear:2,1", "rows": [["1/2", {"var": "t", "terms": {"1": "1"}},
                                                    "-3"][:k]]})
    # All of the text but the closing brackets, which follow the last item.
    assert "".join(written) == (whole.removesuffix("\n    ]\n  ]\n}") if k
                                else '{\n  "f": "linear:2,1",\n  "rows": [\n    ')


def test_writer_past_the_digit_limit():
    doc = {"n": [10 ** 5000, -(10 ** 4400)]}
    with digits_unlimited():
        assert json_text(doc) == json.dumps(doc, indent=2)
    with pytest.raises(ValueError, match="4300"):
        json_text(doc)


@settings(max_examples=200)
@given(st.fractions(), st.sampled_from(["t", "u"]))
def test_a_constant_renders_as_its_fraction(c, var):
    assert render_value(LaurentPoly(var, {0: c})) == str(c)


def test_render_value_of_polynomials_and_scalars():
    p = LaurentPoly("t", {-1: Fraction(1, 2), 3: Fraction(-4, 6)})
    assert render_value(p) == p.to_json() == {"var": "t", "terms": {"-1": "1/2", "3": "-2/3"}}
    assert render_value(LaurentPoly.monomial("t", 2, 3)) == {"var": "t", "terms": {"2": "3"}}
    assert render_value(LaurentPoly("t", {})) == "0"
    assert render_value(Fraction(-3, 9)) == "-1/3"
    assert render_value(7) == "7"


def _rendered_as_before(cell) -> dict:
    """A cell's JSON as it was rendered when every cell subtracted lhs - rhs."""
    residual = cell.residual
    out = {
        "indices": list(cell.indices),
        "lhs": render_value(cell.lhs),
        "rhs": render_value(cell.rhs),
        "residual": render_value(residual) if residual is not None else None,
        "pass": cell.passed,
    }
    if cell.note:
        out["note"] = cell.note
    return out


def test_a_passing_cell_renders_its_rhs_and_residual_without_subtracting():
    """Over every suite of the acceptance matrix, the shortcut for passing
    cells gives the text the subtraction gave."""
    table = parse_fspec("table:" + os.path.join(os.path.dirname(__file__), "data",
                                                "table12.json"))
    configs = [(spec, t) for spec in (linear(1, 0), linear(2, 1), table)
               for t in (1, Fraction(3, 2), "t")] + [(qpow(1), 1)]
    passing = 0
    for spec, t in configs:
        tp = check_config(spec, t)
        for suite in cli.SUITES:
            for rep in cli.run_suite(suite, spec, tp, 8):
                for cell in rep.cells:
                    with digits_unlimited():
                        assert cell.to_json() == _rendered_as_before(cell), (suite, cell.indices)
                    passing += cell.passed and cell.lhs is not None
    assert passing > 10000
