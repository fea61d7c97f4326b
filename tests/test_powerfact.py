import math
from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abckit.powerfact import power_factorize, reduce_triple, verify_power_factorization
from abckit.radicals import factorize


def test_parameters_from_epsilon():
    pf = power_factorize(2, 100, Fraction(3, 10))
    assert (pf.K, pf.M) == (8, 111)
    pf = power_factorize(2, 100, Fraction(1, 2))
    assert (pf.K, pf.M) == (4, 40)


def test_frozen_example_96():
    # 96 = 2^5 * 3: class products y_1 = 3, y_5 = 2; both within M
    pf = power_factorize(96, 100, Fraction(1, 2))
    assert pf.c == 1
    assert pf.nontrivial_parts == {1: 3, 5: 2}
    assert verify_power_factorization(pf).ok


def test_frozen_example_high_class():
    # 2^50 with M = 40: class 50 folds into x_4 = 2^12, leaving c = 2^2
    pf = power_factorize(2**50, 2**50, Fraction(1, 2))
    assert pf.c == 4
    assert pf.part(4) == 4096
    assert pf.nontrivial_parts == {4: 4096}
    assert verify_power_factorization(pf).ok


def test_one_and_primes():
    pf = power_factorize(1, 10, Fraction(1, 2))
    assert pf.c == 1 and pf.nontrivial == ()
    assert {pf.part(j) for j in range(1, pf.M + 1)} == {1}
    assert verify_power_factorization(pf).ok
    pf = power_factorize(97, 100, Fraction(3, 10))
    assert pf.part(1) == 97 and pf.c == 1
    assert verify_power_factorization(pf).ok


def test_verify_flags_tampered_factorizations():
    coef = "coefficient bound: c^(2q) > X^p"
    folded = "folded part bound: x_K^(2q) > X^p"
    above = "radical bracket: prod(x_j) > rad(n) * X^eps"
    below = "radical bracket: rad(n) > prod(x_j) * X^eps"
    recon = "reconstruction: c * prod(x_j^j) != n"
    high = power_factorize(2**50, 2**50, Fraction(1, 2))  # c = 4, x_4 = 2^12
    small = power_factorize(96, 100, Fraction(1, 2))  # x_1 = 3, x_5 = 2
    cases = [
        (replace(high, c=8), (recon,)),
        (replace(high, X=2**40), (folded,)),  # x_4^4 = 2^48 > 2^40
        (replace(high, X=2**7), (coef, folded, above)),  # 2^24 > 4 * 2^7
        (replace(high, X=0), (coef, folded, above, below)),
        # prod(x_j) = rad(n) = 6 here; X^eps = 0 still fails both brackets
        (replace(small, X=0), (coef, folded, above, below)),
        (replace(small, nontrivial=((1, 6), (5, 2))),
         (recon, "coprimality: gcd(6, 2) > 1")),
        (replace(small, nontrivial=((1, 3),), c=32), (coef,)),  # 32^4 > 100
    ]
    for pf, want in cases:
        assert verify_power_factorization(pf).failures == want, pf


def test_domain_errors():
    with pytest.raises(ValueError):
        power_factorize(5, 4, Fraction(1, 2))  # n > X
    with pytest.raises(ValueError):
        power_factorize(0, 4, Fraction(1, 2))
    with pytest.raises(ValueError):
        power_factorize(2, 4, Fraction(3, 5))  # epsilon > 1/2
    with pytest.raises(ValueError):
        power_factorize(2, 4, Fraction(0))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6), st.sampled_from([Fraction(3, 10), Fraction(1, 2), Fraction(1, 7)]))
def test_invariants_hold(n, eps):
    pf = power_factorize(n, 10**6, eps)
    res = verify_power_factorization(pf)
    assert res.ok, res.failures
    # the stored parts are the x_j > 1 at ascending indices within 1..M
    js = [j for j, _ in pf.nontrivial]
    assert js == sorted(set(js)) and all(1 <= j <= pf.M for j in js)
    assert all(x > 1 for _, x in pf.nontrivial)
    assert pf.part(pf.M) == pf.nontrivial_parts.get(pf.M, 1)
    for j in (0, pf.M + 1):
        with pytest.raises(IndexError):
            pf.part(j)


def _dense_reference(n, eps):
    """The dense power factorization (c, [x_1, ..., x_M]), built here from
    the exponent classes of n independently of power_factorize."""
    K = 2 * math.ceil(1 / eps)
    M = math.floor(10 / eps**2)
    parts = [1] * M
    c = 1
    for p, e in factorize(n).items():
        if e <= M:
            parts[e - 1] *= p
        else:
            parts[K - 1] *= p ** (e // K)
            c *= p ** (e % K)
    return c, parts


_high_powers = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 7, 101]), st.integers(1, 1100)),
    min_size=1, max_size=3,
).map(lambda pe: prod(p**e for p, e in pe))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 10**12), _high_powers),
       st.sampled_from([Fraction(3, 10), Fraction(1, 2), Fraction(1, 7)]))
def test_sparse_parts_match_dense_reference(n, eps):
    pf = power_factorize(n, n, eps)
    c, dense = _dense_reference(n, eps)
    assert pf.c == c
    assert [pf.part(j) for j in range(1, pf.M + 1)] == dense
    assert pf.nontrivial == tuple((j, x) for j, x in enumerate(dense, 1) if x != 1)


def test_reduce_triple_frozen():
    red = reduce_triple(1, 8, 9, 10, Fraction(1))
    assert red.d == 40
    assert red.coefficients == (1, 1, 1)
    assert red.fa.nontrivial_parts == {}
    assert red.fb.nontrivial_parts == {3: 2}
    assert red.fc.nontrivial_parts == {2: 3}

    red = reduce_triple(5, 27, 32, 32, Fraction(1))
    assert red.coefficients == (1, 1, 1)
    assert red.fa.nontrivial_parts == {1: 5}
    assert red.fb.nontrivial_parts == {3: 3}
    assert red.fc.nontrivial_parts == {5: 2}

    red = reduce_triple(3, 125, 128, 128, Fraction(1))
    assert red.fb.nontrivial_parts == {3: 5}
    assert red.fc.nontrivial_parts == {7: 2}


def test_reduce_triple_equation_and_bounds():
    for (a, b, c, X) in [(1, 8, 9, 9), (5, 27, 32, 100), (3, 125, 128, 128), (1, 1, 2, 4)]:
        red = reduce_triple(a, b, c, X, Fraction(1, 2))
        ca, cb, cc = red.coefficients
        A = prod(x**j for j, x in red.fa.nontrivial)
        B = prod(x**j for j, x in red.fb.nontrivial)
        C = prod(x**j for j, x in red.fc.nontrivial)
        assert ca * A + cb * B == cc * C
        # coefficients at most X^(eps^2 / 4), checked exactly
        e2 = red.epsilon**2 / 4
        for coeff in red.coefficients:
            assert coeff ** e2.denominator <= X ** e2.numerator
        assert red.d == (10 * (red.epsilon**2 / 2) ** -2).__floor__()


def test_reduce_triple_rejects():
    with pytest.raises(ValueError):
        reduce_triple(2, 3, 6, 10, Fraction(1))  # 2 + 3 != 6
    with pytest.raises(ValueError):
        reduce_triple(2, 4, 6, 10, Fraction(1))  # not coprime
    with pytest.raises(ValueError):
        reduce_triple(1, 8, 9, 8, Fraction(1))  # c > X
    with pytest.raises(ValueError):
        reduce_triple(1, 8, 9, 9, Fraction(3, 2))  # epsilon > 1
