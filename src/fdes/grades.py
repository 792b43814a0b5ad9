"""Exact membership grades: rationals in [0, 1] combined only by min and max.

Grades are plain ``fractions.Fraction`` values, which gives exact decimal
parsing, canonical reduced form, and exact total order for free.  Nothing in
this package ever compares grades through floats.  ``Fraction`` stays the
public grade type; the predicates, fixed points, synthesis and closed loop
run their hot loops on each grade's rank in the instance's lattice, held
in lists over the ids of the plant's support (``language.Index``), and
decode their results back to these grades.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import FdesError

Grade = Fraction

ZERO: Grade = Fraction(0)
ONE: Grade = Fraction(1)

_LITERAL = re.compile(r"[0-9]+(?:\.[0-9]+)?|[0-9]+/[0-9]+")


def as_grade(value) -> Grade:
    """Coerce an int/Fraction/str into a grade, enforcing 0 <= g <= 1;
    a ``Fraction`` is kept as is."""
    try:
        grade = value if isinstance(value, Fraction) else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise FdesError("MALFORMED_GRADE", f"not a grade: {value!r}") from None
    if not 0 <= grade.numerator <= grade.denominator:
        raise FdesError("OUT_OF_RANGE", f"grade {grade} outside [0, 1]")
    return grade


@lru_cache(maxsize=4096)
def parse_grade(text: str) -> Grade:
    """Parse a decimal literal like ``0.8`` or a fraction like ``4/5``.

    Decimals are read exactly (``0.70`` and ``0.7`` yield the same grade).
    """
    if not _LITERAL.fullmatch(text):
        raise FdesError("MALFORMED_GRADE", f"not a grade literal: {text!r}")
    try:
        grade = Fraction(text)
    except ZeroDivisionError:
        raise FdesError("MALFORMED_GRADE", f"zero denominator: {text!r}") from None
    if grade > ONE:
        raise FdesError("OUT_OF_RANGE", f"grade {text!r} exceeds 1")
    return grade


def render_grade(grade: Grade) -> str:
    """Shortest exact decimal when one exists, otherwise ``p/q``."""
    if grade.denominator == 1:
        return str(grade.numerator)
    twos, rest = 0, grade.denominator
    while rest % 2 == 0:
        twos, rest = twos + 1, rest // 2
    fives = 0
    while rest % 5 == 0:
        fives, rest = fives + 1, rest // 5
    if rest != 1:
        return f"{grade.numerator}/{grade.denominator}"
    digits = max(twos, fives)
    scaled = grade.numerator * 10**digits // grade.denominator
    return f"0.{str(scaled).zfill(digits)}"


def meet(a: Grade, b: Grade) -> Grade:
    """Greatest lower bound: min.  The result is always one of the inputs,
    the first of two equal ones; one object in both is returned without a
    comparison, as grades of languages built from one another are often
    shared."""
    return a if a is b or a <= b else b


def join(a: Grade, b: Grade) -> Grade:
    """Least upper bound: max.  The result is always one of the inputs,
    the first of two equal ones; one object in both is returned without a
    comparison (``meet``)."""
    return a if a is b or a >= b else b
