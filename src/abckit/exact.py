"""Exact rational/integer arithmetic helpers shared across the package.

Every threshold comparison in this package is exact: rational powers are
compared by clearing denominators and comparing integer (or Fraction)
powers, never by floating point.

Every power of unbounded size is sized first (check_power): base**e counts
as e * bitlen(base) bits, and one past POWER_BITS_CAP = 2**20 bits is
refused with BudgetExceeded; the cap is a constant, never a budget.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import Union

from .radicals import BudgetExceeded

Rational = Union[int, Fraction]

POWER_BITS_CAP = 1 << 20  # 128 KiB per power


def check_power(operation: str, base: int, exponent: int) -> None:
    """Refuse, as operation, a power base**exponent of more than
    POWER_BITS_CAP bits, sized as the exponent times the base's bit length;
    a power of 0, 1 or -1 costs nothing."""
    bits = exponent * abs(base).bit_length() if abs(base) > 1 else 0
    if bits > POWER_BITS_CAP:
        raise BudgetExceeded(operation, bits, POWER_BITS_CAP, f"a power of "
                             f"{bits} bits exceeds the cap {POWER_BITS_CAP}")


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
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def cmp_pow(x: Rational, p: int, y: Rational, q: int) -> int:
    """Sign of x**p - y**q, computed exactly (x, y >= 0; p, q >= 0); every
    numerator and denominator power is sized first (check_power)."""
    if p < 0 or q < 0:
        raise ValueError("exponents must be non-negative")
    fx, fy = Fraction(x), Fraction(y)
    if fx < 0 or fy < 0:
        raise ValueError("bases must be non-negative")
    # (a/b)^p vs (c/d)^q  <=>  a^p d^q vs c^q b^p
    check_power("cmp_pow", max(fx.numerator, fx.denominator), p)
    check_power("cmp_pow", max(fy.numerator, fy.denominator), q)
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
    """floor(n ** (1/k)) for n >= 0, k >= 1, by Newton iteration on integers
    (none when 2 <= n < 2**k, where the root is 1)."""
    if n < 0 or k < 1:
        raise ValueError("iroot requires n >= 0 and k >= 1")
    if n < 2 or k == 1:
        return n
    if n.bit_length() <= k:  # 2 <= n < 2**k
        return 1
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
    return floor(anchor) + 1, floor(2 * anchor)
