"""Exact brute-force counts: exceptional abc triples, radical-constrained
triples, box-counted monomial equations, and signed ternary equations.

Every operation here is a finite, exact enumeration.  Each one ships with
two independently written strategies (different loop structure *and*
different radical/arithmetic plumbing) so that a bug in one cannot silently
agree with the same bug in the other; the test suite pins them against each
other and against hand-computed values.

All threshold comparisons (rad(abc) < c**lambda and friends) clear
denominators and compare integer powers -- no floating point, ever.

A per-call budget (DEFAULT_BUDGET unless given) caps the number of
candidate evaluations.  Calls whose work estimate exceeds it refuse up front
(check_budget) with the estimate attached, so a script can adapt instead of
hanging.  A CountResult holds no wall time, so identical calls return
equal results; the CLI times each call and writes the time to stderr.

Radical tables are flat arrays of machine words
(radicals.build_radical_table; 'ab' of count_exceptional_triples keeps its
own), so memory grows by a few words per n.  A count that reads
each radical once, in order ('scan' of count_radical_bounded), holds no
table: it walks radicals.radical_segments one block at a time.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, islice, repeat
from math import gcd, isqrt, prod
from operator import and_, mul

from .exact import (check_power, cmp_pow, dyadic_range, exact_root,
                    format_rational, iroot)
from .radicals import BudgetExceeded, build_radical_table, radical, radical_segments

DEFAULT_BUDGET = 10**9


@dataclass(frozen=True)
class CountResult:
    """One finished count: what was asked, the answer, and the strategy.
    It holds no wall time, so identical calls give equal results."""

    query: str
    count: int
    strategy: str


@dataclass(frozen=True)
class BoxSpec:
    """Dyadic box data for the monomial equation
    c1*prod(x_j^j) + c2*prod(y_j^j) = c3*prod(z_j^j).

    Anchors are exact rationals; the variable x_i ranges over the integers
    in (X_i, 2*X_i], and likewise for y and z.  ``A``, when set, declares
    the coefficient ceiling |c_i| <= Delta**A.
    """

    d: int
    coefficients: tuple[int, int, int]
    X: tuple[Fraction, ...]
    Y: tuple[Fraction, ...]
    Z: tuple[Fraction, ...]
    A: Fraction | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        for name, anchors in (("X", self.X), ("Y", self.Y), ("Z", self.Z)):
            if len(anchors) != self.d:
                raise ValueError(f"{name} must have exactly d = {self.d} anchors")
            if any(a <= 0 for a in anchors):
                raise ValueError(f"{name} anchors must be positive")
        if len(self.coefficients) != 3 or any(c == 0 for c in self.coefficients):
            raise ValueError("need three nonzero coefficients")
        if self.A is not None and self.A < 0:
            raise ValueError("A must be non-negative")

    @property
    def delta(self) -> Fraction:
        """max_i of X_i * Y_i * Z_i."""
        return max(x * y * z for x, y, z in zip(self.X, self.Y, self.Z))

    def deviations(self) -> tuple[str, ...]:
        """Ways this box strays from the shape produced by triple reduction.

        Toy boxes (anchors below 1, non-coprime or oversized coefficients)
        are legal inputs for count_bd; this just reports the straying.
        """
        out = []
        if any(a < 1 for a in self.X + self.Y + self.Z):
            out.append("anchor below 1")
        c1, c2, c3 = self.coefficients
        if gcd(c1, c2) > 1 or gcd(c1, c3) > 1 or gcd(c2, c3) > 1:
            out.append("coefficients not pairwise coprime")
        if self.A is not None:
            dl = self.delta
            for c in self.coefficients:
                if cmp_pow(abs(c), self.A.denominator, dl, self.A.numerator) > 0:
                    out.append(f"coefficient {c} exceeds Delta^A")
        return tuple(out)


def _rational_power(x: int, e: Fraction) -> Fraction:
    """x**e as an exact rational; refuses when the value is irrational."""
    if e < 0:
        return 1 / _rational_power(x, -e)
    check_power("box_for", x, e.numerator)
    root = exact_root(x ** e.numerator, e.denominator)
    if root is None:
        raise ValueError(f"{x}^{e} is irrational; pick X a compatible power")
    return Fraction(root)


def box_for(cfg, X: int) -> BoxSpec:
    """Dyadic box with anchors X**a_i, X**b_i, X**c_i taken from an exponent
    configuration (anything with d/a/b/c attributes), coefficients (1, 1, 1).

    Every anchor must come out rational, so X has to be a perfect power
    compatible with the exponent denominators -- e.g. X = 4096 for twelfths.
    """
    anchors = [
        tuple(_rational_power(X, e) for e in getattr(cfg, name))
        for name in ("a", "b", "c")
    ]
    return BoxSpec(
        d=cfg.d,
        coefficients=(1, 1, 1),
        X=anchors[0], Y=anchors[1], Z=anchors[2],
    )


@dataclass(frozen=True)
class TernaryQuery:
    """Parameters for counting a1*x^p + a2*y^q + a3*z^r = 0 over nonzero,
    pairwise-coprime integers with |x| <= X, |y| <= Y, |z| <= Z."""

    exponents: tuple[int, int, int]
    coefficients: tuple[int, int, int]
    limits: tuple[int, int, int]

    def __post_init__(self):
        if len(self.exponents) != 3 or any(e < 1 for e in self.exponents):
            raise ValueError("exponents must be three integers >= 1")
        if len(self.coefficients) != 3 or any(c == 0 for c in self.coefficients):
            raise ValueError("coefficients must be three nonzero integers")
        if len(self.limits) != 3 or any(l < 1 for l in self.limits):
            raise ValueError("limits must be three integers >= 1")


def check_budget(operation: str, estimate: int, budget: int) -> None:
    """Refuse with BudgetExceeded when the work estimate exceeds the budget."""
    if estimate > budget:
        raise BudgetExceeded(operation, estimate, budget)


def _saturated(e: Fraction, X: int, top: int, operation: str) -> Fraction:
    """The exponent a count on 1..X reads in place of e: ``top`` once
    e >= top, where the oracle's tests stop changing, and 0 once
    2 * p * bitlen(X) <= q (e = p/q).  Then X**(2*p) < 2**q, so every n**e
    with n <= X lies in [1, sqrt 2), and each test answers as at e = 0: a
    radical r <= n**e is 1, the window (X**e, 2 * X**e] holds only 2, and
    no rad(abc) >= 2 lies below c**e.  Both rules compare fractions and bit
    lengths; neither builds a power.  The oracles raise numbers up to about
    X to the p or q read, so X**max(p, q) is sized first (check_power)."""
    if e >= top:
        e = Fraction(top)
    elif 2 * e.numerator * X.bit_length() <= e.denominator:
        e = Fraction(0)
    check_power(operation, X, max(e.numerator, e.denominator))
    return e


# --- exceptional abc triples -------------------------------------------------

def count_exceptional_triples(
    X: int,
    lam: Fraction,
    *,
    ordered: bool = True,
    strategy: str = "ca",
    budget: int = DEFAULT_BUDGET,
) -> CountResult:
    """#{(a, b, c): a + b = c <= X, gcd(a, b) = 1, rad(abc) < c**lam}.

    The radical inequality is strict, matching the exceptional-set
    definition.  ``ordered`` counts (a, b) and (b, a) separately;
    otherwise only a <= b.  Strategies:

    * 'ca' scans every unordered pair {a, c - a}, a <= c/2, against the
      prime-power division sieve's table, X**2/4 candidates: the
      brute-force oracle.  Each pair that passes counts twice when
      ``ordered``, except (1, 1, 2), its own mirror.  It skips only the
      rows c whose exact threshold is empty (c**lam <= rad c, e.g. every
      squarefree c at lam <= 1), where no pair can pass since
      rad a * rad b >= 1.  Every other row goes through an exact
      prefilter first: since r >= 2**(bitlen(r) - 1), a pair with
      rad a * rad b <= t has bitlen(rad a) + bitlen(rad b) <= bitlen(t) + 1.
      That sum is formed for a whole row at once, one byte per pair, and
      only the pairs it keeps get the exact radical and gcd tests.  A row
      whose bound bitlen(t) + 1 reaches 2 * bitlen(c - 1), where the
      prefilter would keep every pair (both radicals are < c), skips it
      and tests every pair, as every row does at lam = 3.
    * 'ab' enumerates by small radical, over its own multiplicative
      distinct-prime sieve.  Since min(rad a, rad b)**2 <= rad a * rad b,
      every counted triple has a member n < c with
      (rad(n)**2 * rad c)**q < c**p (lam = p/q), so for each c only the
      integers of smallest radical are walked, from one index array of
      the members ordered by radical.  Its budget estimate is X plus an
      upper bound on the members walked, computed from the radicals and
      the class sizes before the index is built; at lam = 1 that is about
      1.2 * 10**6 for X = 10**5.  It holds about 12 bytes per n.

    Since rad(abc) <= abc < c**3, every lam >= 3 counts as lam = 3, and a
    lam = p/q with 2 * p * bitlen(X) <= q counts as 0, and a power past the
    size cap is refused (_saturated); the query names lam as given.
    """
    lam = Fraction(lam)
    if X < 1 or lam < 0:
        raise ValueError("need X >= 1 and lam >= 0")
    if strategy not in ("ca", "ab"):
        raise ValueError(f"unknown strategy {strategy!r}")
    p, q = _saturated(lam, X, 3, "count_exceptional_triples").as_integer_ratio()
    if strategy == "ca":
        # the half-row scan visits about X**2/4 pairs in either order
        check_budget("count_exceptional_triples", X * X // 4 + X, budget)
        count = _exceptional_ca(X, p, q, ordered)
    else:
        count = _exceptional_ab(X, p, q, ordered, budget)
    query = (
        f"count_exceptional_triples(X={X}, lam={format_rational(lam)}, "
        f"ordered={ordered})"
    )
    return CountResult(query=query, count=count, strategy=strategy)


def _ones(row: bytes):
    """The indices a >= 1 with row[a] == 1, ascending."""
    find = row.find
    a = find(1, 1)
    while a > 0:
        yield a
        a = find(1, a + 1)


def _exceptional_ca(X: int, p: int, q: int, ordered: bool) -> int:
    """Every unordered pair {a, c - a}: rad(a) * rad(b) against one integer
    threshold per c, behind an exact prefilter on bit lengths."""
    rad_of = build_radical_table(X)
    # one byte per n; every bit length is <= 127 while X < 2**127, so the sum
    # of two such byte strings read as integers never carries between bytes
    bl = bytes(map(int.bit_length, rad_of))
    keeps: dict[int, bytes] = {}  # t: translate table sending 0..t to 1, the rest to 0
    count = 0
    for c in range(2, X + 1):
        # R**q < c**p  <=>  R <= iroot(c**p - 1, q), and x * r <= t  <=>  x <= t // r
        lim = iroot(c**p - 1, q) // rad_of[c]
        if lim == 0:
            continue
        hi = c // 2 + 1
        # Since r >= 2**(bl(r) - 1), a pair with rad a * rad b <= lim has
        # bl(rad a) + bl(rad b) <= t.  Both radicals are < c, so once
        # t >= 2 * bl(c - 1) every pair of the row passes that.
        t = lim.bit_length() + 1
        if t >= 2 * (c - 1).bit_length():
            survivors = range(1, hi)
        else:
            # byte a of the sum is bl(rad a) + bl(rad(c - a)) for a < hi
            # (byte 0 pairs 0 with c and is never read)
            s = int.from_bytes(bl[:hi], "big") + int.from_bytes(bl[c:c - hi:-1], "big")
            keep = keeps.get(t) or keeps.setdefault(t, b"\x01" * (t + 1) + bytes(255 - t))
            survivors = _ones(s.to_bytes(hi, "big").translate(keep))
        # a, b, c pairwise coprime, so rad(abc) splits multiplicatively
        k = 0
        for a in survivors:
            if rad_of[a] * rad_of[c - a] <= lim and gcd(a, c) == 1:
                k += 1
        # a = c - a is coprime to c only in (1, 1, 2), its own mirror
        count += 2 * k - (c == 2 and k) if ordered else k
    return count


def _exceptional_ab(X: int, p: int, q: int, ordered: bool, budget: int) -> int:
    """Small-radical enumeration: for each c, the members n < c of the
    radical classes r with (r**2 * rad c)**q < c**p, each pair {n, c - n}
    tested from its member of smaller radical.  Two members of one class
    r > 1 share a prime, so a tie never passes the gcd.

    Every table is a flat array of machine words, about 12 bytes per n:
    the radicals, the members ordered by radical (a counting sort), and
    the class offsets.  The budget is checked before the member index is
    built.  The distinct-prime sieve is its own, not radicals.primes_to:
    'ca' reads build_radical_table, which sieves with primes_to, and the
    two strategies share no radical source."""
    if X > budget:
        # the sieve alone exceeds the budget: refuse before allocating it,
        # with the table-free bound on sieve entries plus members walked
        raise BudgetExceeded("count_exceptional_triples", X * (X + 1) // 2, budget)
    word = "I" if X < 2**32 else "Q"  # every entry is <= X + 1
    # distinct-prime sieve: m is prime when no smaller prime has touched it
    rad = array(word, [1]) * (X + 1)
    for m in range(2, X + 1):
        if rad[m] == 1:
            rad[m::m] = array(word, map(mul, rad[m::m], repeat(m)))

    def depth(c: int) -> int:
        # the largest radical c walks: r < c and r**2 * rad c <= iroot(c**p - 1, q)
        return min(c - 1, isqrt(iroot(c**p - 1, q) // rad[c]))

    # cum[r]: the number of n <= X with rad n <= r
    cum = array(word, [0]) * (X + 2)
    for r in islice(rad, 1, None):
        cum[r] += 1
    cum = array(word, accumulate(cum))
    est = X + sum(min(c - 1, cum[depth(c)]) for c in range(2, X + 1))
    check_budget("count_exceptional_triples", est, budget)
    # counting sort, n descending into the back of its class: members
    # ascend within a class, and cum[r] ends as the offset of class r
    order = array(word, [0]) * X
    for n in range(X, 0, -1):
        r = rad[n]
        k = cum[r] = cum[r] - 1
        order[k] = n
    count = 0
    for c in range(2, X + 1):
        cp, rc = c**p, rad[c]
        for r in range(1, depth(c) + 1):
            for n in order[cum[r]:cum[r + 1]]:
                if n >= c:
                    break
                m = c - n
                rm = rad[m]
                if rm < r:
                    continue  # the pair is tested from m
                if gcd(n, m) == 1 and (r * rm * rc) ** q < cp:
                    count += 2 if ordered and m != n else 1
    return count


# --- refined radical-window counts -------------------------------------------

def count_s(
    X: int,
    alpha: Fraction,
    beta: Fraction,
    gamma: Fraction,
    *,
    star: bool = False,
    strategy: str = "ca",
    budget: int = DEFAULT_BUDGET,
) -> CountResult:
    """Coprime solutions of a + b = c with per-member radical constraints.

    Plain form (star=False): a, b, c <= X with rad(a) <= a**alpha,
    rad(b) <= b**beta, rad(c) <= c**gamma (all non-strict).

    Localized form (star=True): c in [ceil(X/2), X] and each radical in a
    dyadic window, rad(a) in (X**alpha, 2*X**alpha], etc.

    Each member's test depends on one integer only, so it is computed once
    per n <= X and exponent e = p/q, exactly: rad(n)**q <= n**p in the
    plain form, and in the localized form two integer roots per exponent,
    iroot(X**p, q) < rad(n) <= iroot(2**q * X**p, q).  Every candidate pair
    is still tested, against those three tables, and gcd runs only on the
    pairs that pass.  'ca' sweeps c over the sieve table and tests a whole
    row at once: the a- and the reversed b-table are each packed once as one
    byte per n in an integer, so one shift and one AND give, for every a,
    whether a and c - a pass.  The a that pass are read off the row by
    compress when more than one byte in eight is set, else by a bytes.find
    walk (_ones) that skips the runs of zeros.  'ab' keeps the per-element
    form: it sweeps a, then b, pair by pair, and takes each radical from
    radicals.radical, whose trial division walks factorize's mod-30 wheel
    and never reads primes_to, so the strategies share no prime list.
    Negative exponents are refused.

    Every test saturates at exponent 1: rad(n) <= n <= n**e, and the window
    (X**e, 2 X**e] holds no radical <= X once e >= 1 (at X = 1 it does not
    depend on e).  So an exponent e >= 1 counts as 1, and an e = p/q with
    2 * p * bitlen(X) <= q counts as 0, and a power past the size cap is
    refused (_saturated); the query names the exponents as given.
    """
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    if X < 1:
        raise ValueError("need X >= 1")
    if min(alpha, beta, gamma) < 0:
        raise ValueError("need alpha, beta, gamma >= 0")
    if strategy not in ("ca", "ab"):
        raise ValueError(f"unknown strategy {strategy!r}")
    est = X * (X - 1) // 2
    check_budget("count_s", est, budget)
    exps = [_saturated(e, X, 1, "count_s") for e in (alpha, beta, gamma)]

    def member_tests(rads: list[int], expo: Fraction) -> list[bool]:
        # entry n: does n, of radical rads[n], pass; entry 0 never does
        p, q = expo.as_integer_ratio()
        if star:  # X**e < r <= 2 * X**e  <=>  lo < r <= hi: two roots per exponent
            lo, hi = iroot(X**p, q), iroot(X**p << q, q)
            return [False] + [lo < r <= hi for r in rads[1:]]
        return [False] + [r**q <= n**p for n, r in enumerate(rads[1:], 1)]

    count = 0
    c_lo = (X + 1) // 2 if star else 2
    if strategy == "ca":
        rad_of = build_radical_table(X)
        ok_a, ok_b, ok_c = (member_tests(rad_of, e) for e in exps)
        # one byte per n: byte a of A is ok_a[a], byte i of B is ok_b[X - i]
        A = int.from_bytes(bytes(ok_a), "little")
        B = int.from_bytes(bytes(ok_b[::-1]), "little")
        for c in compress(range(c_lo, X + 1), ok_c[c_lo:]):
            # byte a of the row is ok_a[a] and ok_b[c - a]; bytes 0 and c are
            # 0, since entry 0 never passes
            row = (A & B >> 8 * (X - c)).to_bytes(c + 1, "little")
            hits = compress(range(c + 1), row) if 8 * row.count(1) > c else _ones(row)
            count += list(map(gcd, hits, repeat(c))).count(1)  # gcd(a, c - a) = gcd(a, c)
    else:
        rads = [0, *map(radical, range(1, X + 1))]
        ok_a, ok_b, ok_c = (member_tests(rads, e) for e in exps)
        for a in compress(range(1, X), ok_a[1:X]):
            # b runs up from b0 while c = a + b runs up from a + b0 to X
            b0 = max(1, c_lo - a)
            hits = compress(range(b0, X - a + 1), map(and_, ok_b[b0:X - a + 1], ok_c[a + b0:]))
            count += list(map(gcd, hits, repeat(a))).count(1)
    query = (
        f"count_s(X={X}, alpha={format_rational(alpha)}, "
        f"beta={format_rational(beta)}, gamma={format_rational(gamma)}, star={star})"
    )
    return CountResult(query=query, count=count, strategy=strategy)


# --- radical-bounded integers ------------------------------------------------

def count_radical_bounded(
    x: int,
    lam: Fraction,
    *,
    strategy: str = "scan",
    budget: int = DEFAULT_BUDGET,
) -> CountResult:
    """#{n <= x : rad(n) <= x**lam}, the radical-bounded integer count.

    The comparison is non-strict, and rad(n)**q <= x**p (lam = p/q) holds
    exactly when rad(n) <= t = iroot(x**p, q).  Strategies: 'scan' sweeps
    1..x through the sieve's blocks (radicals.radical_segments), testing
    every entry against t, whose bracket t**q <= x**p < (t + 1)**q it
    checks itself; it holds one block, never the table, so its memory is
    O(sqrt(x)) words plus one block.  'radical-first' walks the squarefree
    r <= t depth first, as products of ascending primes, which it reads
    from an Eratosthenes sieve of its own, t + 1 bytes (one per integer
    <= t).  At each r it counts the n <= x of radical exactly r, n = r * m
    with m built from the primes of r, spreading the exponents over the
    largest prime first.  Its budget (t + x) is checked before the sieve
    is built.  The sieve is not radicals.primes_to: the strategies share
    no plumbing, so 'scan' (whose radical_segments reads primes_to) stays
    a cross-check, and t bytes are smaller than a cached tuple of the
    primes up to t.

    Since rad(n) <= n <= x, every lam >= 1 counts as lam = 1, and a
    lam = p/q with 2 * p * bitlen(x) <= q counts as 0, and a power past the
    size cap is refused (_saturated); the query names lam as given.
    """
    lam = Fraction(lam)
    if x < 1 or lam < 0:
        raise ValueError("need x >= 1 and lam >= 0")
    if strategy not in ("scan", "radical-first"):
        raise ValueError(f"unknown strategy {strategy!r}")
    p, q = _saturated(lam, x, 1, "count_radical_bounded").as_integer_ratio()
    if strategy == "scan":
        check_budget("count_radical_bounded", x, budget)
        # r**q <= x**p  <=>  r <= t, for the one integer t checked here
        xp = x**p
        t = iroot(xp, q)
        if not t**q <= xp < (t + 1) ** q:
            raise ArithmeticError(f"iroot({xp}, {q}) returned {t}")
        count = sum(sum(map(t.__ge__, block)) for _, block in radical_segments(x))
    else:
        # largest integer r with r^q <= x^p
        t = iroot(x**p, q)
        check_budget("count_radical_bounded", t + x, budget)
        sieve = bytearray([1]) * (t + 1)  # sieve[n]: n is prime; t >= 1
        sieve[:2] = bytes(2)
        for n in range(2, isqrt(t) + 1):
            if sieve[n]:
                sieve[n * n::n] = bytes(len(range(n * n, t + 1, n)))
        primes: list[int] = []  # those of r, ascending

        def spread(k: int, m: int) -> int:
            # #{n <= m built from primes[:k]}, largest prime first
            p = primes[k - 1]
            total = 0
            while m:
                total += spread(k - 1, m) if k > 1 else 1
                m //= p
            return total

        def walk(r: int, p: int) -> int:
            # r squarefree, with largest prime p: the n <= x of radical r,
            # r * m with m built from the primes of r, then r's extensions
            total = spread(len(primes), x // r) if primes else 1
            p = sieve.find(1, p + 1)
            while 0 < p <= t // r:
                primes.append(p)
                total += walk(r * p, p)
                primes.pop()
                p = sieve.find(1, p + 1)
            return total

        count = walk(1, 1)
    query = f"count_radical_bounded(x={x}, lam={format_rational(lam)})"
    return CountResult(query=query, count=count, strategy=strategy)


# --- dyadic box counts for the monomial equation ------------------------------

def _ranges(anchors: tuple[Fraction, ...]) -> list[range]:
    """The integer range of each anchor's dyadic window."""
    return [range(lo, hi + 1) for lo, hi in map(dyadic_range, anchors)]


def _family(ranges: list[range]) -> list[tuple[int, int]]:
    """All tuples in the box of the given ranges, in itertools.product
    order, reduced to (prod v_j^j, prod v_j): built one coordinate at a
    time, each power v**j taken once per value."""
    family = [(1, 1)]
    for j, r in enumerate(ranges, start=1):
        powers = [(v**j, v) for v in r]
        family = [(pw * vp, pl * v) for pw, pl in family for vp, v in powers]
    return family


def count_bd(
    spec: BoxSpec,
    *,
    strategy: str = "mitm",
    budget: int = DEFAULT_BUDGET,
) -> CountResult:
    """Count solutions of c1*prod(x_j^j) + c2*prod(y_j^j) = c3*prod(z_j^j)
    in the dyadic boxes of ``spec`` with gcd(c1*prod x_j, c2*prod y_j,
    c3*prod z_j) = 1.

    Strategies: 'nested' checks every (x, y, z) combination, each (x, y)
    against the whole z column at once: a list scan of c3*prod(z_j^j),
    computed once per z, that still compares every z; 'mitm' indexes the
    z side by its power product and meets it from the (x, y) side.
    """
    if strategy not in ("nested", "mitm"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rx, ry, rz = boxes = [_ranges(a) for a in (spec.X, spec.Y, spec.Z)]
    # range sizes by subtraction: len() of a range past sys.maxsize overflows
    nx, ny, nz = (prod(max(0, r.stop - r.start) for r in rs) for rs in boxes)
    est = nx * ny * nz if strategy == "nested" else nz + nx * ny
    check_budget("count_bd", est, budget)
    c1, c2, c3 = spec.coefficients
    anchors = ",".join(
        "[" + ";".join(format_rational(a) for a in fam) + "]"
        for fam in (spec.X, spec.Y, spec.Z)
    )
    query = f"count_bd(d={spec.d}, c={spec.coefficients}, anchors={anchors})"
    count = 0
    if min(nx, ny, nz) == 0:
        return CountResult(query=query, count=0, strategy=strategy)
    if strategy == "nested":
        fx, fy, fz = _family(rx), _family(ry), _family(rz)
        zpow = [c3 * pz for pz, _ in fz]
        for px, sx in fx:
            u = c1 * px
            for py, sy in fy:
                lhs = u + c2 * py
                if lhs not in zpow:  # compares every z's c3*prod(z_j^j)
                    continue
                for (_, sz), w in zip(fz, zpow):
                    if w == lhs and gcd(c1 * sx, c2 * sy, c3 * sz) == 1:
                        count += 1
    else:
        by_power: dict[int, list[int]] = {}
        for pz, sz in _family(rz):
            by_power.setdefault(c3 * pz, []).append(c3 * sz)
        fx, fy = _family(rx), _family(ry)
        for px, sx in fx:
            u = c1 * px
            g1 = c1 * sx
            for py, sy in fy:
                hits = by_power.get(u + c2 * py)
                if hits:
                    g2 = gcd(g1, c2 * sy)
                    count += sum(1 for h in hits if gcd(g2, h) == 1)
    return CountResult(query=query, count=count, strategy=strategy)


# --- signed ternary equations --------------------------------------------------

def count_ternary(
    query: TernaryQuery,
    *,
    strategy: str = "solve-z",
    budget: int = DEFAULT_BUDGET,
) -> CountResult:
    """Count nonzero pairwise-coprime (x, y, z) in the signed boxes with
    a1*x^p + a2*y^q + a3*z^r = 0.

    Strategies: 'nested' sweeps all three variables, comparing every
    (x, y) against every z's a3*z**r, each term computed once per value;
    'solve-z' sweeps (x, y) and recovers z by exact integer root extraction.
    """
    if strategy not in ("nested", "solve-z"):
        raise ValueError(f"unknown strategy {strategy!r}")
    p, q, r = query.exponents
    a1, a2, a3 = query.coefficients
    X, Y, Z = query.limits
    est = 4 * X * Y * (2 * Z if strategy == "nested" else 1)
    check_budget("count_ternary", est, budget)
    for limit, e in zip(query.limits, query.exponents):
        check_power("count_ternary", limit, e)

    def signed(limit):
        for v in range(1, limit + 1):
            yield v
            yield -v

    count = 0
    if strategy == "nested":
        zs = list(signed(Z))
        zpow = [a3 * z**r for z in zs]
        ys = [(y, a2 * y**q) for y in signed(Y)]
        for x in signed(X):
            ax = a1 * x**p
            for y, ay in ys:
                if gcd(x, y) != 1:
                    continue
                neg = -(ax + ay)
                if neg not in zpow:  # compares every z's a3*z**r
                    continue
                for z, w in zip(zs, zpow):
                    if w == neg and gcd(x, z) == 1 and gcd(y, z) == 1:
                        count += 1
    else:
        for x in signed(X):
            for y in signed(Y):
                if gcd(x, y) != 1:
                    continue
                # z**r = m = -(a1 * x**p + a2 * y**q) / a3, an integer; z is
                # nonzero, and an even power is positive
                m, rest = divmod(-(a1 * x**p + a2 * y**q), a3)
                if rest or m == 0 or (m < 0 and r % 2 == 0):
                    continue
                root = exact_root(abs(m), r)
                if root is None:
                    continue
                # even r: both signs; odd r: the sign of m
                for z in (root, -root) if r % 2 == 0 else (root if m > 0 else -root,):
                    if abs(z) <= Z and gcd(x, z) == 1 and gcd(y, z) == 1:
                        count += 1
    qstr = (
        f"count_ternary(p={p}, q={q}, r={r}, a={query.coefficients}, "
        f"limits={query.limits})"
    )
    return CountResult(query=qstr, count=count, strategy=strategy)
