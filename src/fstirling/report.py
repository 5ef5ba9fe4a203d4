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
    """Canonical text/JSON form for rationals and polynomials."""
    with digits_unlimited():
        if isinstance(v, LaurentPoly):
            if v.is_constant():
                return str(v.constant_value())
            return v.to_json()
        return str(v)


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
        residual = self.residual
        out = {
            "indices": list(self.indices),
            "lhs": render_value(self.lhs),
            "rhs": render_value(self.rhs),
            "residual": render_value(residual) if residual is not None else None,
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
