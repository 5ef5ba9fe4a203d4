"""Exact-arithmetic toolkit for generalized factorials, Stirling-type
triangles, p-order f-harmonic numbers, and convolution-polynomial analogs.

The public names load their module on first access (PEP 562), so importing
the package, or one command of the CLI, compiles only what it uses.
"""

from importlib import import_module

_HOMES = {
    "cyclotomic": ("CyclotomicElem", "is_prime"),
    "eulersum": ("euler_sum_numeric",),
    "factorial": ("bang_f", "bang_ft", "check_config", "normalize_t"),
    "fharmonic": ("fharmonic_direct", "harmonic_via_ftilde", "harmonic_via_roots",
                  "harmonic_via_subst", "wf_table"),
    "fspec": ("FSpec", "FSpecError", "eval_f", "linear", "parse_fspec", "poly", "qpow",
              "table"),
    "laurent": ("LaurentPoly",),
    "report": ("CheckCell", "Report"),
    "series": ("TruncSeries", "geometric_minus_one_over"),
    "stirling": ("Triangle", "s1_entry_oracle", "s1_triangle", "s2_entry", "s2star_entry"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
