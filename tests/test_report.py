"""Report rendering: constant values and the indent-2 JSON writer."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fstirling.laurent import LaurentPoly
from fstirling.report import digits_unlimited, json_text, render_value

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


def test_writer_past_the_digit_limit():
    doc = {"n": [10 ** 5000, -(10 ** 4400)]}
    with digits_unlimited():
        assert json_text(doc) == json.dumps(doc, indent=2)
    with pytest.raises(ValueError, match="4300"):
        json_text(doc)


@settings(max_examples=200)
@given(st.fractions(), st.sampled_from(["t", "u"]))
def test_a_constant_renders_as_its_fraction(c, var):
    assert render_value(LaurentPoly.constant(var, c)) == str(c)


def test_render_value_of_polynomials_and_scalars():
    p = LaurentPoly("t", {-1: Fraction(1, 2), 3: Fraction(-4, 6)})
    assert render_value(p) == p.to_json() == {"var": "t", "terms": {"-1": "1/2", "3": "-2/3"}}
    assert render_value(LaurentPoly.monomial("t", 2, 3)) == {"var": "t", "terms": {"2": "3"}}
    assert render_value(LaurentPoly("t", {})) == "0"
    assert render_value(Fraction(-3, 9)) == "-1/3"
    assert render_value(7) == "7"
