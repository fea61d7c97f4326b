from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abckit.exact import (
    cmp_pow,
    dyadic_range,
    exact_root,
    format_rational,
    iroot,
    parse_rational,
    pow_leq,
    rational_pow_leq,
)


def test_parse_rational():
    assert parse_rational("3/10") == Fraction(3, 10)
    assert parse_rational("33/50") == Fraction(33, 50)
    assert parse_rational("-1/150") == Fraction(-1, 150)
    assert parse_rational("7") == 7
    assert parse_rational(" 9/10 ") == Fraction(9, 10)


@pytest.mark.parametrize("bad", ["0.3", "1/0", "x", "", "1/2/3", "1e-3"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational():
    assert format_rational(Fraction(33, 50)) == "33/50"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(0) == "0"
    assert format_rational(Fraction(-1, 150)) == "-1/150"


def test_cmp_pow_frozen():
    # 6^10 vs 9^9: 60466176 < 387420489
    assert cmp_pow(6, 10, 9, 9) < 0
    assert cmp_pow(2, 10, 32, 2) == 0
    assert pow_leq(2, 10, 32, 2)
    # fractional bases cross-multiplied: (3/2)^2 = 9/4 > 2
    assert cmp_pow(Fraction(3, 2), 2, 2, 1) > 0


def test_rational_pow_leq():
    # 4096 <= (2^50)^(1/4) since 4096^4 = 2^48 <= 2^50
    assert rational_pow_leq(4096, Fraction(1, 4), 2**50)
    assert not rational_pow_leq(8192, Fraction(1, 4), 2**50)


@given(st.integers(0, 10**6), st.integers(1, 12))
def test_iroot_matches_definition(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_exact_root():
    assert exact_root(4096, 12) == 2
    assert exact_root(4096, 2) == 64
    assert exact_root(4097, 2) is None
    assert exact_root(0, 3) == 0


def test_dyadic_range():
    # x ~ X means x in (X, 2X]
    assert dyadic_range(Fraction(4)) == (5, 8)
    assert dyadic_range(Fraction(1, 2)) == (1, 1)
    assert dyadic_range(Fraction(7, 2)) == (4, 7)
    lo, hi = dyadic_range(Fraction(1, 3))  # (1/3, 2/3] holds no integer
    assert lo > hi


@given(st.fractions(min_value=0, max_value=1000))
def test_dyadic_range_is_exact(anchor):
    lo, hi = dyadic_range(anchor)
    for x in (lo - 1, lo, hi, hi + 1):
        inside = anchor < x <= 2 * anchor
        assert inside == (lo <= x <= hi)
