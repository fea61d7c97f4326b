"""Exact rational/integer arithmetic helpers shared across the package.

Every threshold comparison in this package is exact: rational powers are
compared by clearing denominators and comparing integer (or Fraction)
powers, never by floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' into an exact Fraction.

    Only integer numerator/denominator forms are accepted; decimal strings
    are rejected so that repeating decimals can never sneak in truncated.
    """
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational 'p/q' string: {text!r}") from exc


def format_rational(value: Rational) -> str:
    """Render a rational as 'p/q' (or 'p' when the denominator is 1)."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def cmp_pow(x: Rational, p: int, y: Rational, q: int) -> int:
    """Sign of x**p - y**q, computed exactly (x, y >= 0; p, q >= 0)."""
    if p < 0 or q < 0:
        raise ValueError("exponents must be non-negative")
    fx, fy = Fraction(x), Fraction(y)
    if fx < 0 or fy < 0:
        raise ValueError("bases must be non-negative")
    # (a/b)^p vs (c/d)^q  <=>  a^p d^q vs c^q b^p
    lhs = fx.numerator**p * fy.denominator**q
    rhs = fy.numerator**q * fx.denominator**p
    return (lhs > rhs) - (lhs < rhs)


def pow_leq(x: Rational, p: int, y: Rational, q: int) -> bool:
    """x**p <= y**q, exactly."""
    return cmp_pow(x, p, y, q) <= 0


def rational_pow_leq(x: Rational, exponent: Fraction, y: Rational) -> bool:
    """x <= y**exponent, exactly, for x, y >= 0 and exponent >= 0."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    return pow_leq(x, exponent.denominator, y, exponent.numerator)


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by Newton iteration on integers."""
    if n < 0 or k < 1:
        raise ValueError("iroot requires n >= 0 and k >= 1")
    if n < 2 or k == 1:
        return n
    x = 1 << (-(-n.bit_length() // k))  # upper bound: 2**ceil(bits/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def exact_root(n: int, k: int) -> int | None:
    """The integer r with r**k == n, or None if n is not a perfect k-th power."""
    if n < 0:
        raise ValueError("exact_root requires n >= 0")
    r = iroot(n, k)
    return r if r**k == n else None


def dyadic_range(anchor: Fraction) -> tuple[int, int]:
    """Integer endpoints (lo, hi) of the dyadic window (anchor, 2*anchor].

    Returns lo > hi when the window contains no integers.
    """
    if anchor < 0:
        raise ValueError("dyadic anchors must be non-negative")
    lo = anchor.numerator // anchor.denominator + 1
    two = 2 * anchor
    hi = two.numerator // two.denominator
    return lo, hi
