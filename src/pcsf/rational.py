"""Exact rational parsing/formatting and the line grammar shared by the text
file formats and the CLI."""

from __future__ import annotations

from fractions import Fraction


class Infinite:
    """Sentinel for an infinite penalty (pair must be connected)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, Infinite)

    def __hash__(self):
        return hash("pcsf-infinite")


INF = Infinite()


def read_records(path):
    """Yield ``("path:lineno", fields)`` for each line of a text file that
    holds anything once its ``#`` comment is stripped; fields are split on
    whitespace."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split("#", 1)[0].split()
            if fields:
                yield f"{path}:{lineno}", fields


def parse_field(where, parse, token):
    """``parse(token)``, a ValueError naming the record's ``where``."""
    try:
        return parse(token)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def parse_rational(token: str) -> Fraction:
    """Parse ``a/b`` or a decimal literal into an exact Fraction; a zero
    denominator is a ValueError like any other malformed token."""
    token = token.strip()
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def parse_penalty(token: str):
    if token.strip().lower() in ("inf", "infinity", "infinite"):
        return INF
    return parse_rational(token)


def format_rational(value) -> str:
    if isinstance(value, Infinite):
        return "inf"
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def rational_json(value):
    """JSON-friendly pair: exact string plus a float annotation."""
    if isinstance(value, Infinite):
        return {"exact": "inf", "approx": None}
    f = Fraction(value)
    return {"exact": format_rational(f), "approx": float(f)}
