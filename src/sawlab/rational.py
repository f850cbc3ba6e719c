"""Exact rational scalars and the wire format of every report.

All coordinates in this package are stdlib Fractions; this module pins the
alias and the "p/q" string format used in JSON payloads, CSV cells, and CLI
arguments. Format is always lowest terms with an explicit denominator
("3/4", "0/1", "2/1") so parsing round-trips byte-identically.

`to_wire` is the one JSON encoder of the package. It maps
- a Fraction to its "p/q" string;
- a tuple or list to a list, a set or frozenset to a sorted list;
- a dict to a dict with str keys;
- an object with a `to_json` method to that method's result;
and leaves anything else (str, int, float, bool, None) as it is, each
container encoded element by element. Report dataclasses inherit `Wire`,
whose `to_json` encodes every field under its own name; a class whose JSON is
not simply its fields overrides `to_json`, usually on top of the default.
Each class's field names are read once, on its first `to_json`, and kept.
"""

from __future__ import annotations

import math
import re
from dataclasses import fields
from fractions import Fraction
from functools import cache

from .errors import ConstraintViolation

Rat = Fraction

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\Z")


def parse_rat(text: str) -> Rat:
    """Parse "p/q" or a bare integer string into a Rat.

    Also accepts decimal literals like "0.825" (exactly, via Fraction), since
    hand-typed CLI values tend to arrive that way.
    """
    if not isinstance(text, str):
        raise ConstraintViolation(f"rational literal must be a string, got {text!r}")
    s = text.strip()
    if not s:
        raise ConstraintViolation("empty rational literal")
    # Fraction computes 10**exponent before anything can refuse it
    exponent = _EXPONENT.search(s)
    if exponent and len(exponent.group(1).lstrip("+-0_").replace("_", "")) > 4:
        raise ConstraintViolation(f"bad rational literal {text!r}: exponent out of range")
    try:
        x = Fraction(s)
        format_rat(x)  # raises when an integer has more digits than Python prints
    except (ValueError, ZeroDivisionError) as e:
        raise ConstraintViolation(f"bad rational literal {text!r}: {e}") from e
    return x


def format_rat(x: Rat) -> str:
    """Canonical "p/q" form, denominator always explicit."""
    return f"{x.numerator}/{x.denominator}"


def float_down(x: Rat) -> float:
    """The largest float <= x."""
    f = float(x)
    return math.nextafter(f, -math.inf) if f > x else f


def float_up(x: Rat) -> float:
    """The smallest float >= x."""
    f = float(x)
    return math.nextafter(f, math.inf) if f < x else f


_SCALARS = frozenset({str, int, float, bool, type(None)})


def to_wire(x):
    """x as plain JSON values; see the module docstring for the rules."""
    kind = type(x)
    if kind in _SCALARS:
        return x
    if kind is Fraction:
        return format_rat(x)
    if kind is tuple or kind is list:
        return [to_wire(v) for v in x]
    if kind is dict:
        return {str(k): to_wire(v) for k, v in x.items()}
    if kind is frozenset or kind is set:
        return [to_wire(v) for v in sorted(x)]
    if hasattr(x, "to_json"):
        return x.to_json()
    return x


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


class Wire:
    """Mixin for report dataclasses: JSON is every field, encoded by to_wire."""

    def to_json(self) -> dict:
        return {name: to_wire(getattr(self, name)) for name in _field_names(type(self))}
