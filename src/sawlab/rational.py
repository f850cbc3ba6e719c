"""Exact rational scalars and their wire format.

All coordinates in this package are stdlib Fractions; this module pins the
alias and the "p/q" string format used in JSON payloads, CSV cells, and CLI
arguments. Format is always lowest terms with an explicit denominator
("3/4", "0/1", "2/1") so parsing round-trips byte-identically.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ConstraintViolation

Rat = Fraction


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
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ConstraintViolation(f"bad rational literal {text!r}: {e}") from e


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
