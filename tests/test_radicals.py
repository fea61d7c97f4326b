import random
import time
import tracemalloc
from array import array
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from abckit import counting, radicals
from abckit.radicals import (
    SEGMENT,
    BudgetExceeded,
    build_radical_table,
    factorize,
    is_squarefree,
    primes_to,
    radical,
    radical_segments,
)


def naive_radical(n):
    """Independent oracle: product of distinct primes by bare trial division."""
    r, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            r *= f
            while n % f == 0:
                n //= f
        f += 1
    return r * n if n > 1 else r


def test_primes_to_matches_trial_division():
    primes = []  # the primes <= n, each tested by bare trial division
    for n in range(2001):
        if n >= 2 and all(n % f for f in range(2, n) if f * f <= n):
            primes.append(n)
        assert primes_to(n) == tuple(primes), n
    assert primes_to(0) == primes_to(1) == () and primes_to(2) == (2,)


def test_radical_small_frozen():
    # rad(2..10) worked out by hand
    assert [radical(n) for n in range(2, 11)] == [2, 3, 2, 5, 6, 7, 2, 3, 10]
    assert radical(1) == 1
    assert radical(72) == 6
    assert radical(96) == 6
    assert radical(2**50) == 2
    assert radical(6**10) == 6


def test_table_matches_oracle():
    # tiny limits, and limits around prime squares, where the sieve's
    # slices start
    for limit in (0, 1, 2, 3, 4, 5, 8, 9, 10, 24, 25, 26, 48, 49, 50, 121, 10_000):
        want = [0] + [naive_radical(n) for n in range(1, limit + 1)]
        assert build_radical_table(limit).tolist() == want, limit


def test_table_matches_oracle_at_prime_powers():
    # limits at and around higher prime powers, where a division slice
    # first starts, and on both sides of the first two segment boundaries,
    # where 2**15 and 2**16 each land exactly on a block start
    assert SEGMENT == 2**15
    limits = (7, 8, 9, 15, 16, 26, 27, 28, 31, 32, 63, 64, 124, 125, 128,
              343, 1024, 2187, 32767, 32768, 32769, 65535, 65536, 65537)
    oracle = [0] + [naive_radical(n) for n in range(1, max(limits) + 1)]
    for limit in limits:
        assert build_radical_table(limit).tolist() == oracle[:limit + 1], limit


def test_segments_run_contiguously_from_1():
    # blocks [k * SEGMENT, (k + 1) * SEGMENT) clipped to [1, limit], which
    # concatenate to the table
    for limit in (0, 1, 2, SEGMENT - 1, SEGMENT, SEGMENT + 1, 2 * SEGMENT,
                  3 * SEGMENT + 5):
        joined = array("Q", [0])
        nxt = 1
        for lo, block in radical_segments(limit):
            assert lo == nxt and (lo == 1 or lo % SEGMENT == 0), (limit, lo)
            assert 0 < len(block) <= SEGMENT - lo % SEGMENT
            assert block.typecode == "Q"
            joined.extend(block)
            nxt = lo + len(block)
        assert nxt == limit + 1
        assert joined == build_radical_table(limit), limit


def test_table_memory_is_bounded_per_entry():
    # the table is one array of machine words, filled by slices: at most
    # 16 bytes per entry at its peak, table included
    limit = 10**5
    tracemalloc.start()
    try:
        table = build_radical_table(limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == limit + 1
    assert peak < 16 * (limit + 1)


def test_radical_agrees_with_table():
    table = build_radical_table(100)
    assert [radical(n) for n in range(1, 101)] == table.tolist()[1:]
    assert radical(101) == 101  # past the table: factored exactly
    assert radical(10**6 + 3) == 10**6 + 3


def test_factorize_frozen():
    assert factorize(1) == {}
    assert factorize(96) == {2: 5, 3: 1}
    assert factorize(2**50) == {2: 50}
    assert factorize(9973) == {9973: 1}
    # semiprime beyond the trial-division cap: forces the rho path
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(p * p * q) == {p: 2, q: 1}


def test_factorize_large_prime():
    # 2^61 - 1 is prime (Mersenne); exercises deterministic Miller-Rabin
    m61 = 2**61 - 1
    assert factorize(m61) == {m61: 1}
    assert radical(m61 * 4) == 2 * m61


def test_factorize_refuses_unproven_large_prime():
    # 2^89 - 1 is prime and above the proven Miller-Rabin bound: no proof
    # is available here, so it is refused, and at once
    m89 = 2**89 - 1
    assert m89 > radicals._MR_LIMIT
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        factorize(m89)
    assert time.perf_counter() - t0 < 1
    assert info.value.operation == "factorize"
    assert info.value.estimate > info.value.budget
    with pytest.raises(BudgetExceeded):
        radical(4 * m89)
    assert counting.BudgetExceeded is BudgetExceeded
    # a composite above the bound is still split: a witness is a proof,
    # and its factors fall below the bound
    m61, p, q = 2**61 - 1, 1_000_003, 1_000_033
    assert m61 * p * q > radicals._MR_LIMIT
    assert factorize(m61 * p * q) == {p: 1, q: 1, m61: 1}


def _wheel_factorize(n):
    """factorize without the block skip: the mod-30 wheel tried one
    candidate at a time up to the cap, then the same rho stack."""
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f, i = 7, 0
    while f <= radicals._TRIAL_CAP and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += (4, 2, 4, 2, 4, 6, 2, 6)[i]
        i = (i + 1) % 8
    if n < f * f:
        if n > 1:
            out[n] = 1
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if radicals._is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = radicals._rho_factor(m)
        stack += [d, m // d]
    return out


def test_block_skip_matches_the_plain_wheel():
    for n in range(1, 200_000):
        assert list(factorize(n).items()) == list(_wheel_factorize(n).items()), n
    rng = random.Random(2024)
    # primes at block edges, the last one below the cap, and beyond it
    edges = (7, 11, 241, 251, 479, 487, 719, 9851, 9973, 10007, 1_000_003)
    for _ in range(400):
        n = rng.randrange(1, 10**18)
        for _ in range(rng.randrange(4)):
            p = rng.choice(edges)
            if n * p < 10**18:
                n *= p
        assert list(factorize(n).items()) == list(_wheel_factorize(n).items()), n


def test_rho_iteration_cap(monkeypatch):
    p, q = 1_000_003, 1_000_033
    monkeypatch.setattr(radicals, "_RHO_CAP", 64)
    with pytest.raises(BudgetExceeded) as info:
        factorize(p * q)
    assert info.value.budget == 64 < info.value.estimate


def test_refusals_say_what_they_counted(monkeypatch):
    # an oracle's estimate is of candidate evaluations; rho counts its
    # iterations, and a probable prime is refused for want of a proof
    assert str(BudgetExceeded("count_s", 10, 5)) == (
        "count_s: estimated 10 candidate evaluations exceeds budget 5")
    m89 = 2**89 - 1
    with pytest.raises(BudgetExceeded) as info:
        factorize(m89)
    assert str(info.value) == (
        f"factorize: cannot prove the probable prime {m89} prime: it is above "
        f"the Miller-Rabin bound {radicals._MR_LIMIT}")
    monkeypatch.setattr(radicals, "_RHO_CAP", 64)
    with pytest.raises(BudgetExceeded) as info:
        factorize(1_000_003 * 1_000_033)
    assert str(info.value) == (
        f"factorize: {info.value.estimate} rho iterations exceed the cap 64")


def test_domain_errors():
    with pytest.raises(ValueError):
        radical(0)
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        build_radical_table(-1)
    with pytest.raises(ValueError):
        radical_segments(-1)  # at the call, before any block is asked for
    with pytest.raises(ValueError):
        is_squarefree(0)


def test_is_squarefree():
    flags = [is_squarefree(n) for n in range(1, 13)]
    assert flags == [True, True, True, False, True, True, True, False, False, True, True, False]


@given(st.integers(1, 10**6))
def test_radical_divides_and_is_squarefree(n):
    r = radical(n)
    assert n % r == 0
    assert is_squarefree(r)
    assert radical(r) == r  # idempotent on squarefree values


@given(st.integers(1, 10**4), st.integers(1, 10**4))
def test_radical_multiplicative_on_coprimes(a, b):
    if gcd(a, b) == 1:
        assert radical(a * b) == radical(a) * radical(b)


@given(st.integers(1, 10**5), st.integers(1, 4))
def test_radical_ignores_powers(n, k):
    assert radical(n**k) == radical(n)
