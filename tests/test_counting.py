import inspect
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from abckit.counting import (
    DEFAULT_BUDGET,
    BoxSpec,
    BudgetExceeded,
    CountResult,
    TernaryQuery,
    box_for,
    count_bd,
    count_exceptional_triples,
    count_radical_bounded,
    count_s,
    count_ternary,
)

F = Fraction


def test_exceptional_frozen_small():
    # X = 9, lam = 9/10: only 1 + 8 = 9 qualifies (rad(72) = 6, 6^10 < 9^9),
    # counted twice ordered, once unordered.
    assert count_exceptional_triples(9, F(9, 10)).count == 2
    assert count_exceptional_triples(9, F(9, 10), ordered=False).count == 1
    assert count_exceptional_triples(9, F(9, 10), strategy="ab").count == 2
    # lam = 1 admits every coprime triple minus nothing below... at X = 2:
    # (1,1,2) has rad = 2 = 2^1, and the comparison is strict, so zero.
    assert count_exceptional_triples(2, F(1)).count == 0
    assert count_exceptional_triples(2, F(1), strategy="ab").count == 0


def test_exceptional_strategies_agree():
    for X in (30, 60):
        for lam in (F(1, 2), F(9, 10), F(1)):
            a = count_exceptional_triples(X, lam, strategy="ca")
            b = count_exceptional_triples(X, lam, strategy="ab")
            assert a.count == b.count, (X, lam)
            u = count_exceptional_triples(X, lam, ordered=False)
            assert a.count == 2 * u.count  # diagonal is empty for lam <= 1


def test_exceptional_strategies_agree_at_frozen_sizes():
    # 62 and 142 ordered triples at lambda = 1 (31 and 71 unordered)
    for X, ordered_count in ((1000, 62), (4000, 142)):
        for ordered, want in ((True, ordered_count), (False, ordered_count // 2)):
            for strategy in ("ca", "ab"):
                got = count_exceptional_triples(
                    X, F(1), ordered=ordered, strategy=strategy).count
                assert got == want, (X, ordered, strategy)


def test_exceptional_strategies_agree_above_one():
    for X in (2, 10, 30, 60):
        for lam in (F(3, 2), F(2)):
            counts = {}
            for ordered in (True, False):
                a = count_exceptional_triples(X, lam, ordered=ordered, strategy="ca")
                b = count_exceptional_triples(X, lam, ordered=ordered, strategy="ab")
                assert a.count == b.count, (X, lam, ordered)
                counts[ordered] = a.count
            # for lam > 1 the diagonal triple (1, 1, 2) counts, once in
            # either mode; every other pair counts twice when ordered
            assert counts[True] == 2 * counts[False] - 1, (X, lam)


def test_ca_empty_row_skip_agrees_with_small_radical():
    # 'ca' skips each row c with c**lam <= rad c; 'ab' never reads that
    # threshold.  At lam in {3/2, 2} the row c = 2 has threshold 1, and
    # its only pair, the diagonal (1, 1, 2), passes.
    for X in (1, 2, 3, 9, 200, 1000):
        for lam in (F(0), F(1, 2), F(9, 10), F(1), F(3, 2), F(2)):
            for ordered in (True, False):
                ca = count_exceptional_triples(X, lam, ordered=ordered, strategy="ca")
                ab = count_exceptional_triples(X, lam, ordered=ordered, strategy="ab")
                assert ca.count == ab.count, (X, lam, ordered)


def test_exceptional_small_radical_reaches_1e5():
    # 418 abc-hits with c < 10^5 (de Smit's table) plus 19 + 99981 = 10^5,
    # each counted as (a, b) and (b, a)
    assert count_exceptional_triples(10**5, F(1), strategy="ab").count == 838


def _rad(n):
    r, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            r *= f
            while n % f == 0:
                n //= f
        f += 1
    return r * n if n > 1 else r


def _exceptional_naive(X, lam, ordered):
    """N_lam(x) for every x <= X: each (c, a) with a < c (a <= c - a unless
    ordered) tested on its own, against trial-division radicals."""
    p, q = lam.numerator, lam.denominator
    rads = [0] + [_rad(n) for n in range(1, X + 1)]
    out, total = [0, 0], 0
    for c in range(2, X + 1):
        total += sum(
            1
            for a in range(1, c if ordered else c // 2 + 1)
            if gcd(a, c) == 1 and (rads[a] * rads[c - a] * rads[c]) ** q < c**p
        )
        out.append(total)
    return out


def test_ca_matches_a_naive_loop():
    # every X <= 150 reaches the mirror pair (1, 1, 2) and every row's
    # prefilter threshold; a prefilter that drops a passing pair shows here
    lams = (F(0), F(1, 2), F(9, 10), F(1), F(11, 10), F(3, 2), F(2), F(3))
    for lam in lams:
        for ordered in (True, False):
            want = _exceptional_naive(150, lam, ordered)[1:]
            got = [count_exceptional_triples(X, lam, ordered=ordered).count
                   for X in range(1, 151)]
            assert got == want, (lam, ordered)


def test_exceptional_counts_pinned():
    # (X, lam): (ordered, unordered), both strategies
    pins = {
        (4000, F(9, 10)): (56, 28),
        (2000, F(3, 2)): (3469, 1735),
        (1500, F(2)): (44005, 22003),
        (10000, F(1)): (242, 121),
    }
    for (X, lam), want in pins.items():
        for strategy in ("ca", "ab"):
            got = tuple(
                count_exceptional_triples(X, lam, ordered=ordered, strategy=strategy).count
                for ordered in (True, False)
            )
            assert got == want, (X, lam, strategy)


def _small_radical_candidates(X, lam):
    """Brute force: the (c, n) with n < c <= X the 'ab' walk visits."""
    p, q = lam.numerator, lam.denominator
    rads = [0] + [_rad(n) for n in range(1, X + 1)]
    return sum(
        1
        for c in range(2, X + 1)
        for n in range(1, c)
        if (rads[n] ** 2 * rads[c]) ** q < c**p
    )


def _ab_estimate(X, lam, budget):
    try:
        count_exceptional_triples(X, lam, strategy="ab", budget=budget)
    except BudgetExceeded as exc:
        return exc.estimate
    return None


def test_small_radical_estimate_bounds_its_candidates():
    for X in (50, 100, 200):
        for lam in (F(1, 2), F(9, 10), F(1)):
            walked = _small_radical_candidates(X, lam)
            assert _ab_estimate(X, lam, 0) >= walked, (X, lam)
            # budget = X admits the sieve, so the refusal carries the
            # tight estimate: X plus the bound on members walked
            tight = _ab_estimate(X, lam, X)
            if tight is None:
                assert walked == 0
            else:
                assert tight - X >= walked, (X, lam)
                assert tight < X * (X - 1) // 2


def test_small_radical_refuses_huge_x_without_allocating():
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(BudgetExceeded) as info:
            count_exceptional_triples(10**12, F(1), strategy="ab")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1
    assert peak < 10**6
    assert info.value.estimate > info.value.budget


def test_small_radical_refuses_before_its_member_index():
    # budget = X admits the sieve; the tight estimate comes from the
    # radical and class-count arrays alone, about 12 bytes per n
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as info:
            count_exceptional_triples(10**5, F(1), strategy="ab", budget=10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.estimate == 1231664
    assert peak < 4 * 10**6


def test_s_frozen():
    # alpha=beta=gamma=1 is no constraint at all: ordered coprime a+b=c <= 5
    assert count_s(5, F(1), F(1), F(1)).count == 9
    assert count_s(5, F(1), F(1), F(1), strategy="ab").count == 9
    # localized variant at X=4: radical windows (2, 4] force a = b = 3
    assert count_s(4, F(1, 2), F(1, 2), F(1, 2), star=True).count == 0


def test_s_strategies_agree():
    # 'ca' tests a row at once, 'ab' pair by pair: sparse and dense triples,
    # exponents 0 and 1 among them, and the smallest X
    triples = ((F(1, 2), F(2, 3), F(9, 10)), (F(1, 3), F(1, 2), F(2, 3)),
               (F(0), F(1), F(1, 2)), (F(1), F(1, 2), F(0)), (F(1), F(1), F(1)),
               (F(0), F(0), F(0)))
    for X in (1, 2, 3, 20, 41, 97, 200):
        for exps, star in product(triples, (False, True)):
            a = count_s(X, *exps, star=star, strategy="ca")
            b = count_s(X, *exps, star=star, strategy="ab")
            assert a.count == b.count, (X, exps, star)


def _s_by_definition(X, alpha, beta, gamma, star):
    """count_s from its docstring: a double loop over (c, a)."""
    def ok(n, e):
        r, p, q = _rad(n), e.numerator, e.denominator
        if star:  # X**e < r <= 2 * X**e, raised to the q-th power
            return X**p < r**q <= 2**q * X**p
        return r**q <= n**p  # r <= n**e

    lo = (X + 1) // 2 if star else 2
    return sum(
        1
        for c in range(lo, X + 1)
        for a in range(1, c)
        if gcd(a, c - a) == 1
        and ok(a, alpha) and ok(c - a, beta) and ok(c, gamma)
    )


def test_s_matches_its_definition():
    exps = (F(0), F(1, 3), F(1, 2), F(1), F(3, 2))
    for X in (1, 2, 17, 40):
        for alpha, beta, gamma in product(exps, repeat=3):
            for star in (False, True):
                want = _s_by_definition(X, alpha, beta, gamma, star)
                for strategy in ("ca", "ab"):
                    got = count_s(X, alpha, beta, gamma, star=star, strategy=strategy)
                    assert got.count == want, (X, alpha, beta, gamma, star, strategy)


def test_s_refuses_negative_exponents():
    for bad in ((F(-1, 2), 1, 1), (1, F(-1), 1), (1, 1, F(-3, 2))):
        for star, strategy in product((False, True), ("ca", "ab")):
            with pytest.raises(ValueError, match=">= 0"):
                count_s(20, *bad, star=star, strategy=strategy)
            # refused before the budget check, so before any table
            with pytest.raises(ValueError, match=">= 0"):
                count_s(10**12, *bad, star=star, strategy=strategy, budget=0)


def test_radical_bounded_frozen():
    # radicals r <= 10 contribute 1+6+4+2+9+2+6 = 30 integers up to 100
    assert count_radical_bounded(100, F(1, 2)).count == 30
    assert count_radical_bounded(100, F(1, 2), strategy="radical-first").count == 30
    # non-strict boundary: rad(10) = 10 = 100^(1/2) is counted
    assert count_radical_bounded(10, F(1)).count == 10
    assert count_radical_bounded(1, F(1)).count == 1


def test_radical_bounded_strategies_agree():
    # every x <= 300, then a stride and a few round values up to 2000
    xs = sorted({*range(1, 301), *range(301, 2001, 23), 500, 997, 1000, 1024, 2000})
    for x in xs:
        for lam in (F(0), F(1, 3), F(1, 2), F(2, 3), F(7, 10), F(3, 4), F(1)):
            a = count_radical_bounded(x, lam, strategy="scan")
            b = count_radical_bounded(x, lam, strategy="radical-first")
            assert a.count == b.count, (x, lam)


def test_radical_bounded_scan_holds_no_table():
    # the scan walks the sieve one block at a time, never the 1.6 MB table
    tracemalloc.start()
    try:
        result = count_radical_bounded(2 * 10**5, F(2, 3), strategy="scan")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 18452 is also what 'radical-first' counts
    assert result.count == 18452
    assert peak < 10**6


def box(d, c, X, Y, Z, A=None):
    to_f = lambda t: tuple(F(v) for v in t)
    return BoxSpec(d=d, coefficients=c, X=to_f(X), Y=to_f(Y), Z=to_f(Z), A=A)


def test_bd_frozen():
    # x in (1,2], y in (2,4], z in (4,8]: 2+3=5 counts; 2+4=6 fails the gcd
    spec = box(1, (1, 1, 1), (1,), (2,), (4,))
    assert count_bd(spec).count == 1
    assert count_bd(spec, strategy="nested").count == 1
    # singleton boxes: 1 + 1 = 2 with gcd 1
    assert count_bd(box(1, (1, 1, 1), (F(1, 2),), (F(1, 2),), (1,))).count == 1
    # both 3+3=6 candidates die on the gcd; sums 7, 8 miss the z box
    assert count_bd(box(1, (1, 1, 1), (2,), (2,), (3,))).count == 0


def test_bd_strategies_agree():
    specs = [
        box(1, (1, 1, 1), (2,), (3,), (5,)),
        box(1, (2, 3, 1), (1,), (1,), (4,)),
        box(2, (1, 1, 1), (1, 1), (2, 1), (4, 1)),
        box(2, (1, -1, 1), (2, 1), (1, 1), (1, 1)),
        box(3, (1, 1, 1), (1, 1, 1), (1, 1, 1), (2, 1, 1)),
    ]
    for spec in specs:
        a = count_bd(spec, strategy="nested")
        b = count_bd(spec, strategy="mitm")
        assert a.count == b.count, spec


def _power(t):
    out = 1
    for j, v in enumerate(t, start=1):
        out *= v**j
    return out


def _plain_bd(spec):
    """count_bd written out over itertools.product, the reference."""
    c1, c2, c3 = spec.coefficients

    def tuples(anchors):
        return list(product(*(range(int(a) + 1, int(2 * a) + 1) for a in anchors)))

    def plain(t):
        out = 1
        for v in t:
            out *= v
        return out

    return sum(1 for x, y, z in product(tuples(spec.X), tuples(spec.Y), tuples(spec.Z))
               if c1 * _power(x) + c2 * _power(y) == c3 * _power(z)
               and gcd(c1 * plain(x), c2 * plain(y), c3 * plain(z)) == 1)


def _random_box(rng, d):
    """A box around random (x, y, z); every other one is planted on a
    solution, z = (|c1 x + c2 y|, 1, ..., 1) with c3 its sign, so that some
    boxes count.  Each anchor is v/2 or v - 1/2, a window holding v."""
    while True:
        c1, c2 = rng.choice((-3, -2, -1, 1, 1, 2)), rng.choice((-2, -1, 1, 1, 2, 3))
        x, y, z = ([rng.randint(1, 6 if j == 0 else 2) for j in range(d)] for _ in "xyz")
        t = c1 * _power(x) + c2 * _power(y)
        if t:
            break
    if rng.random() < 0.5:
        c3, z = (1 if t > 0 else -1), [abs(t)] + [1] * (d - 1)
    else:
        c3 = rng.choice((-2, -1, 1, 2, 3))
    around = lambda v: F(v, 2) if rng.random() < 0.5 else v - F(1, 2)
    return BoxSpec(d=d, coefficients=(c1, c2, c3), X=tuple(map(around, x)),
                   Y=tuple(map(around, y)), Z=tuple(map(around, z)))


def test_bd_strategies_agree_on_random_boxes():
    # the benchmark's criterion-7 boxes all count 0, so this is where both
    # strategies meet real hits, with negative coefficients among them
    rng = random.Random(3131)
    hits = negative = 0
    for _ in range(200):
        spec = _random_box(rng, rng.randint(1, 3))
        want = _plain_bd(spec)
        assert count_bd(spec, strategy="nested").count == want, spec
        assert count_bd(spec, strategy="mitm").count == want, spec
        hits += want > 0
        negative += want > 0 and min(spec.coefficients) < 0
    assert hits >= 15 and negative >= 5, (hits, negative)


def test_bd_reads_each_anchor_range_once(monkeypatch):
    import abckit.counting as C
    calls = []
    real = C.dyadic_range

    def counted(anchor):
        calls.append(anchor)
        return real(anchor)

    monkeypatch.setattr(C, "dyadic_range", counted)
    spec = box(2, (1, 1, 1), (1, 1), (2, 1), (4, 1))
    for strategy in ("nested", "mitm"):
        calls.clear()
        count_bd(spec, strategy=strategy)
        assert len(calls) == 6, strategy  # one per anchor: d = 2 per family


def test_bd_empty_box():
    # (1/3, 2/3] holds no integer
    assert count_bd(box(1, (1, 1, 1), (F(1, 3),), (1,), (1,))).count == 0


def test_ternary_frozen():
    # x^2 + y^2 = z: (±1,±1,2) and the eight sign/role variants of (1,2,5)
    q = TernaryQuery(exponents=(2, 2, 1), coefficients=(1, 1, -1), limits=(2, 2, 8))
    assert count_ternary(q).count == 12
    assert count_ternary(q, strategy="nested").count == 12
    # x + y + z = 0 in the cube of side 2: signed arrangements of (1,1,-2)
    q = TernaryQuery(exponents=(1, 1, 1), coefficients=(1, 1, 1), limits=(2, 2, 2))
    assert count_ternary(q).count == 6
    assert count_ternary(q, strategy="nested").count == 6


def test_ternary_strategies_agree():
    queries = [
        TernaryQuery((2, 2, 2), (1, 1, -1), (5, 5, 8)),
        TernaryQuery((3, 3, 3), (1, 1, 1), (4, 4, 4)),
        TernaryQuery((2, 3, 1), (1, -1, 2), (4, 3, 30)),
        TernaryQuery((1, 2, 4), (3, 1, -1), (6, 6, 3)),
    ]
    for q in queries:
        a = count_ternary(q, strategy="nested")
        b = count_ternary(q, strategy="solve-z")
        assert a.count == b.count, q


def test_ternary_nested_agrees_with_solve_z_over_signs_and_exponents():
    coefficients = ((1, 1, -1), (1, -1, 2), (-1, 1, -2), (3, 1, 2), (-2, 3, -2))
    for exps in product((1, 2, 3), repeat=3):
        for co in coefficients:
            for limits in ((7, 5, 9), (12, 4, 3)):
                q = TernaryQuery(exps, co, limits)
                a = count_ternary(q, strategy="nested")
                b = count_ternary(q, strategy="solve-z")
                assert a.count == b.count, q


def _estimate(fn):
    try:
        fn(0)
    except BudgetExceeded as exc:
        return exc.estimate
    return None


def test_budget_estimates_are_pinned():
    s = lambda X, **kw: lambda budget: count_s(X, F(1, 2), F(1), F(2, 3),
                                               budget=budget, **kw)
    for X, want in ((1, None), (2, 1), (40, 780), (1500, 1124250),
                    (10**6, 499999500000)):
        assert _estimate(s(X)) == want
        assert _estimate(s(X, star=True, strategy="ab")) == want
    ternary = lambda limits, strategy: lambda budget: count_ternary(
        TernaryQuery((1, 2, 3), (1, -1, 2), limits), strategy=strategy, budget=budget)
    for limits, solve_z, nested in (((1, 1, 1), 4, 8), ((7, 5, 9), 140, 2520),
                                    ((40, 40, 40), 6400, 512000),
                                    ((10**4, 3, 10**5), 120000, 24000000000)):
        assert _estimate(ternary(limits, "solve-z")) == solve_z
        assert _estimate(ternary(limits, "nested")) == nested
    rb = lambda x, lam, strategy: lambda budget: count_radical_bounded(
        x, lam, strategy=strategy, budget=budget)
    for x, lam, scan, first in ((1, F(1), 1, 2), (100, F(1, 2), 100, 110),
                                (5000, F(2, 3), 5000, 5292),
                                (10**7, F(1, 2), 10**7, 10003162),
                                # lambda = 3/2 counts as 1, since rad n <= n:
                                # radicals up to x, not up to x**(3/2)
                                (10**6, F(3, 2), 10**6, 2000000)):
        assert _estimate(rb(x, lam, "scan")) == scan
        assert _estimate(rb(x, lam, "radical-first")) == first
    # 'ca' scans about X**2/4 pairs in either order
    ca = lambda X, ordered: lambda budget: count_exceptional_triples(
        X, F(1), ordered=ordered, budget=budget)
    for X, want in ((1, 1), (2, 3), (40, 440), (4000, 4004000)):
        assert _estimate(ca(X, True)) == _estimate(ca(X, False)) == want
    # the refusal boundary: a budget equal to the estimate runs
    for run, est in ((s(40), 780), (ca(40, True), 440), (ca(40, False), 440),
                     (ternary((7, 5, 9), "nested"), 2520),
                     (ternary((7, 5, 9), "solve-z"), 140),
                     (rb(5000, F(2, 3), "scan"), 5000),
                     (rb(5000, F(2, 3), "radical-first"), 5292)):
        run(est)
        with pytest.raises(BudgetExceeded):
            run(est - 1)


def test_oracle_budgets_default_to_an_int():
    # every oracle takes a plain int budget, DEFAULT_BUDGET unless given
    for oracle in (count_exceptional_triples, count_s, count_radical_bounded,
                   count_bd, count_ternary):
        param = inspect.signature(oracle).parameters["budget"]
        assert param.default == DEFAULT_BUDGET == 10**9, oracle.__name__
        assert param.annotation == "int", oracle.__name__


def test_budget_refusal():
    with pytest.raises(BudgetExceeded) as info:
        count_exceptional_triples(10**6, F(1, 2), budget=1000)
    assert info.value.estimate > 1000
    assert info.value.budget == 1000
    with pytest.raises(BudgetExceeded):
        count_ternary(TernaryQuery((1, 1, 1), (1, 1, 1), (100, 100, 100)), budget=10)
    with pytest.raises(BudgetExceeded):
        count_radical_bounded(10**7, F(1, 2), budget=10**6)


def test_identical_calls_give_equal_results():
    q = TernaryQuery((1, 2, 3), (1, -1, 2), (7, 5, 9))
    spec = box(1, (1, 1, 1), (1,), (2,), (4,))
    for call in (lambda: count_exceptional_triples(60, F(1)),
                 lambda: count_exceptional_triples(60, F(1), strategy="ab"),
                 lambda: count_s(40, F(1, 2), F(1), F(2, 3)),
                 lambda: count_radical_bounded(500, F(1, 2)),
                 lambda: count_bd(spec),
                 lambda: count_ternary(q)):
        assert call() == call()


def test_result_shape():
    r = count_exceptional_triples(9, F(9, 10))
    assert isinstance(r, CountResult)
    assert r.query == "count_exceptional_triples(X=9, lam=9/10, ordered=True)"
    assert r.strategy == "ca"


def test_boxspec_validation():
    with pytest.raises(ValueError):
        box(1, (1, 0, 1), (1,), (1,), (1,))  # zero coefficient
    with pytest.raises(ValueError):
        box(2, (1, 1, 1), (1,), (1, 1), (1, 1))  # wrong anchor arity
    with pytest.raises(ValueError):
        box(1, (1, 1, 1), (0,), (1,), (1,))  # non-positive anchor
    spec = box(1, (2, 4, 1), (F(1, 2),), (1,), (1,), A=F(0))
    devs = spec.deviations()
    assert "anchor below 1" in devs
    assert "coefficients not pairwise coprime" in devs
    assert any("exceeds Delta^A" in d for d in devs)
    assert box(1, (1, 1, 1), (1,), (1,), (1,)).deviations() == ()


def test_boxspec_delta():
    spec = box(2, (1, 1, 1), (1, 4), (2, 1), (3, 1))
    assert spec.delta == 6  # max(1*2*3, 4*1*1)


def test_ternary_validation():
    with pytest.raises(ValueError):
        TernaryQuery((0, 1, 1), (1, 1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        TernaryQuery((1, 1, 1), (1, 0, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        TernaryQuery((1, 1, 1), (1, 1, 1), (0, 1, 1))


def test_unknown_strategy():
    with pytest.raises(ValueError):
        count_exceptional_triples(5, F(1), strategy="zigzag")
    with pytest.raises(ValueError):
        count_radical_bounded(5, F(1), strategy="zigzag")


class _Cfg:
    def __init__(self, d, a, b, c):
        self.d, self.a, self.b, self.c = d, a, b, c


def test_box_for_exact_anchors():
    cfg = _Cfg(2, (F(1, 3), F(0)), (F(1, 6), F(1, 12)), (F(0), F(1, 4)))
    spec = box_for(cfg, 4096)  # 4096 = 2^12, so twelfth powers are exact
    assert spec.X == (F(16), F(1))
    assert spec.Y == (F(4), F(2))
    assert spec.Z == (F(1), F(8))
    assert spec.coefficients == (1, 1, 1)
    # 4096^(1/5) is irrational
    with pytest.raises(ValueError):
        box_for(_Cfg(1, (F(1, 5),), (F(0),), (F(0),)), 4096)
