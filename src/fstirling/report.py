"""Verification reports: per-cell pass/fail records for identity checkers.

Checkers never raise on a mismatch; they collect cells so a failing identity
is documented with its witness values instead of aborting a sweep.
"""

from __future__ import annotations

import contextlib
import sys
from typing import List, Sequence

from .laurent import LaurentPoly


@contextlib.contextmanager
def digits_unlimited():
    """Lift Python's int-to-string digit limit, where it has one, for rendering output."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def render_value(v) -> object:
    """Canonical text/JSON form for rationals and polynomials.  A value past
    Python's int-to-string digit limit renders only inside ``digits_unlimited``,
    which callers enter once per document."""
    if isinstance(v, LaurentPoly) and not v.is_constant():
        return v.to_json()
    # A constant's text is its value in lowest terms.
    return str(v)


def json_text(obj, level: int = 0) -> str:
    """Exactly the text of ``json.dumps(obj, indent=2)``, as it reads at nesting
    depth ``level`` of an enclosing document.  Dict keys must be strings.

    The standard library's ``indent`` encoder is pure Python and keeps every
    chunk of the document in one list before joining; here each container is
    one join, and strings go through the C string encoder.
    """
    import json
    from json.encoder import encode_basestring_ascii as quote

    def encode(obj, newline):
        if isinstance(obj, str):
            return quote(obj)
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            inner = newline + "  "
            return ("{" + inner + ("," + inner).join(
                [quote(k) + ": " + (quote(v) if type(v) is str else encode(v, inner))
                 for k, v in obj.items()]) + newline + "}")
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            inner = newline + "  "
            return ("[" + inner + ("," + inner).join(
                [quote(v) if type(v) is str else encode(v, inner) for v in obj])
                + newline + "]")
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if obj is None:
            return "null"
        if isinstance(obj, int):
            return int.__repr__(obj)
        return json.dumps(obj)

    return encode(obj, "\n" + "  " * level)


def json_list_chunks(texts, level: int = 0):
    """The text of a JSON list at nesting depth ``level``, laid out as
    ``json_text`` lays it out, in pieces: ``texts`` are the items' texts,
    each ``json_text(item, level + 1)``.  A document can be written an item
    at a time, without its whole text in memory."""
    inner = "\n" + "  " * (level + 1)
    sep = "[" + inner
    for text in texts:
        yield sep
        yield text
        sep = "," + inner
    yield "[]" if sep[0] == "[" else "\n" + "  " * level + "]"


def render_t(t: LaurentPoly) -> str:
    """Canonical text of the t parameter: its rational value, or "symbolic"."""
    return "symbolic" if not t.is_constant() else str(t.constant_value())


class CheckCell:
    __slots__ = ("indices", "lhs", "rhs", "passed", "note")

    def __init__(self, indices: tuple, lhs, rhs, passed: bool, note: str = ""):
        self.indices, self.lhs, self.rhs, self.passed, self.note = indices, lhs, rhs, passed, note

    @property
    def residual(self):
        try:
            return self.lhs - self.rhs
        except TypeError:
            return None

    def to_json(self) -> dict:
        lhs = render_value(self.lhs)
        if self.passed and self.lhs is not None:
            # rhs == lhs, so it renders alike and the residual is zero.
            rhs, residual = lhs, "0"
        else:
            rhs, residual = render_value(self.rhs), self.residual
            residual = render_value(residual) if residual is not None else None
        out = {
            "indices": list(self.indices),
            "lhs": lhs,
            "rhs": rhs,
            "residual": residual,
            "pass": self.passed,
        }
        if self.note:
            out["note"] = self.note
        return out


class Report:
    __slots__ = ("identity", "params", "cells")

    def __init__(self, identity: str, params: dict):
        self.identity, self.params = identity, params
        self.cells: List[CheckCell] = []

    def check(self, indices: Sequence, lhs, rhs, note: str = "") -> CheckCell:
        cell = CheckCell(tuple(indices), lhs, rhs, lhs == rhs, note)
        self.cells.append(cell)
        return cell

    def skip(self, indices: Sequence, note: str) -> CheckCell:
        cell = CheckCell(tuple(indices), None, None, True, note)
        self.cells.append(cell)
        return cell

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    @property
    def failures(self) -> List[CheckCell]:
        return [c for c in self.cells if not c.passed]

    def to_json(self) -> dict:
        params = {
            k: v if isinstance(v, (str, int, bool, float, type(None))) else render_value(v)
            for k, v in self.params.items()
        }
        return {
            "identity": self.identity,
            "params": params,
            "pass": self.passed,
            "cells": [c.to_json() for c in self.cells],
        }
