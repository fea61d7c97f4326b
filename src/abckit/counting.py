"""Exact brute-force counts: exceptional abc triples, radical-constrained
triples, box-counted monomial equations, and signed ternary equations.

Every operation here is a finite, exact enumeration.  Each one ships with
two independently written strategies (different loop structure *and*
different radical/arithmetic plumbing) so that a bug in one cannot silently
agree with the same bug in the other; the test suite pins them against each
other and against hand-computed values.

All threshold comparisons (rad(abc) < c**lambda and friends) clear
denominators and compare integer powers -- no floating point, ever.

A per-call budget caps the number of candidate evaluations.  Calls whose
work estimate exceeds the budget refuse up front with the estimate attached,
so a script can adapt instead of hanging.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, product
from math import gcd, isqrt, prod

from .exact import cmp_pow, dyadic_range, exact_root, format_rational, iroot
from .radicals import BudgetExceeded, build_radical_table, factorize

DEFAULT_BUDGET = 10**9


@dataclass(frozen=True)
class CountResult:
    """One finished count: what was asked, the answer, and how it was run."""

    query: str
    count: int
    strategy: str
    elapsed_seconds: float


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
    base = x ** e.numerator
    if e.denominator == 1:
        return Fraction(base)
    root = exact_root(base, e.denominator)
    if root is None:
        raise ValueError(f"{x}^{e} is irrational; pick X a compatible power")
    return Fraction(root)


def box_for(cfg, X: int, coefficients: tuple[int, int, int] = (1, 1, 1)) -> BoxSpec:
    """Dyadic box with anchors X**a_i, X**b_i, X**c_i taken from an exponent
    configuration (anything with d/a/b/c attributes).

    Every anchor must come out rational, so X has to be a perfect power
    compatible with the exponent denominators -- e.g. X = 4096 for twelfths.
    """
    anchors = [
        tuple(_rational_power(X, e) for e in getattr(cfg, name))
        for name in ("a", "b", "c")
    ]
    return BoxSpec(
        d=cfg.d,
        coefficients=tuple(coefficients),  # type: ignore[arg-type]
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


def _check_budget(operation: str, estimate: int, budget: int | None) -> None:
    limit = DEFAULT_BUDGET if budget is None else budget
    if estimate > limit:
        raise BudgetExceeded(operation, estimate, limit)


def _memo_radical():
    """Tiny memoized radical by bare trial division -- deliberately
    independent of the sieve used by the 'ca' strategies."""
    cache: dict[int, int] = {1: 1}

    def rad(n: int) -> int:
        if n in cache:
            return cache[n]
        m, r, f = n, 1, 2
        while f * f <= m:
            if m % f == 0:
                r *= f
                while m % f == 0:
                    m //= f
            f += 1
        if m > 1:
            r *= m
        cache[n] = r
        return r

    return rad


# --- exceptional abc triples -------------------------------------------------

def count_exceptional_triples(
    X: int,
    lam: Fraction,
    *,
    ordered: bool = True,
    strategy: str = "ca",
    budget: int | None = None,
) -> CountResult:
    """#{(a, b, c): a + b = c <= X, gcd(a, b) = 1, rad(abc) < c**lam}.

    The radical inequality is strict, matching the exceptional-set
    definition.  ``ordered`` counts (a, b) and (b, a) separately;
    otherwise only a <= b.  Strategies:

    * 'ca' scans every pair (c, a) against a smallest-prime-factor sieve
      table, X**2/2 candidates: the brute-force oracle.  It skips only
      the rows c whose exact threshold is empty (c**lam <= rad c, e.g.
      every squarefree c at lam <= 1), where no pair can pass since
      rad a * rad b >= 1; every other row is scanned in full.
    * 'ab' enumerates by small radical, over a distinct-prime sieve.  Since
      min(rad a, rad b)**2 <= rad a * rad b, every counted triple has a
      member n < c with (rad(n)**2 * rad c)**q < c**p (lam = p/q), so for
      each c only the integers of smallest radical are walked.  Its budget
      estimate is X plus an up-front upper bound on the members walked;
      at lam = 1 that is about 10**6 for X = 10**5.
    """
    lam = Fraction(lam)
    if X < 1 or lam < 0:
        raise ValueError("need X >= 1 and lam >= 0")
    if strategy not in ("ca", "ab"):
        raise ValueError(f"unknown strategy {strategy!r}")
    p, q = lam.numerator, lam.denominator
    t0 = time.perf_counter()
    if strategy == "ca":
        est = X * (X - 1) // 2 if ordered else X * X // 4 + X
        _check_budget("count_exceptional_triples", est, budget)
        count = _exceptional_ca(X, p, q, ordered)
    else:
        count = _exceptional_ab(X, p, q, ordered, budget)
    elapsed = time.perf_counter() - t0
    query = (
        f"count_exceptional_triples(X={X}, lam={format_rational(lam)}, "
        f"ordered={ordered})"
    )
    return CountResult(query=query, count=count, strategy=strategy, elapsed_seconds=elapsed)


def _exceptional_ca(X: int, p: int, q: int, ordered: bool) -> int:
    """Every (c, a): rad(a) * rad(b) against one integer threshold per c."""
    rad_of = build_radical_table(X)
    count = 0
    for c in range(2, X + 1):
        # R**q < c**p  <=>  R <= iroot(c**p - 1, q), and x * r <= t  <=>  x <= t // r
        lim = iroot(c**p - 1, q) // rad_of[c]
        if lim == 0:
            continue
        hi = c if ordered else c // 2 + 1
        # a runs up from 1 while b = c - a runs down from c - 1; a, b, c
        # pairwise coprime, so rad(abc) splits multiplicatively
        count += sum(
            1
            for a, ra, rb in zip(range(1, hi), rad_of[1:hi], rad_of[c - 1:c - hi:-1])
            if ra * rb <= lim and gcd(a, c - a) == 1
        )
    return count


def _exceptional_ab(X: int, p: int, q: int, ordered: bool, budget: int | None) -> int:
    """Small-radical enumeration: for each c, the members n < c of the
    radical classes r with (r**2 * rad c)**q < c**p, each pair {n, c - n}
    tested from its member of smaller radical.  Two members of one class
    r > 1 share a prime, so a tie never passes the gcd."""
    limit = DEFAULT_BUDGET if budget is None else budget
    if X > limit:
        # the sieve alone exceeds the budget: refuse before allocating it,
        # with the table-free bound on sieve entries plus members walked
        raise BudgetExceeded("count_exceptional_triples", X * (X + 1) // 2, limit)
    # distinct-prime sieve: m is prime when no smaller prime has touched it
    rad = [1] * (X + 1)
    for m in range(2, X + 1):
        if rad[m] == 1:
            rad[m::m] = [v * m for v in rad[m::m]]
    members: dict[int, list[int]] = {}
    for n in range(1, X + 1):
        members.setdefault(rad[n], []).append(n)
    classes = sorted(members.items())  # ascending radical, members ascending
    radicals = [r for r, _ in classes]
    reach = list(accumulate(len(ns) for _, ns in classes))
    # depth[c]: the number of classes c walks, those with r < c and
    # r**2 * rad c <= iroot(c**p - 1, q)
    depth = [0, 0] + [
        bisect_right(radicals, min(c - 1, isqrt(iroot(c**p - 1, q) // rad[c])))
        for c in range(2, X + 1)
    ]
    est = X + sum(min(c - 1, reach[k - 1]) for c, k in enumerate(depth) if k)
    _check_budget("count_exceptional_triples", est, budget)
    count = 0
    for c in range(2, X + 1):
        cp, rc = c**p, rad[c]
        for r, ns in islice(classes, depth[c]):
            for n in ns:
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
    budget: int | None = None,
) -> CountResult:
    """Coprime solutions of a + b = c with per-member radical constraints.

    Plain form (star=False): a, b, c <= X with rad(a) <= a**alpha,
    rad(b) <= b**beta, rad(c) <= c**gamma (all non-strict).

    Localized form (star=True): c in [ceil(X/2), X] and each radical in a
    dyadic window, rad(a) in (X**alpha, 2*X**alpha], etc.
    """
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    if X < 1:
        raise ValueError("need X >= 1")
    if strategy not in ("ca", "ab"):
        raise ValueError(f"unknown strategy {strategy!r}")
    est = X * (X - 1) // 2
    _check_budget("count_s", est, budget)
    t0 = time.perf_counter()

    def window(r: int, expo: Fraction) -> bool:
        # r in (X^expo, 2*X^expo] via r^q vs X^p and vs 2^q * X^p
        pp, qq = expo.numerator, expo.denominator
        rq = r**qq
        xp = X**pp
        return rq > xp and rq <= 2**qq * xp

    def plain(r: int, n: int, expo: Fraction) -> bool:
        return r ** expo.denominator <= n ** expo.numerator

    count = 0
    c_lo = (X + 1) // 2 if star else 2
    if strategy == "ca":
        rad_of = build_radical_table(X)
        for c in range(c_lo, X + 1):
            okc = window(rad_of[c], gamma) if star else plain(rad_of[c], c, gamma)
            if not okc:
                continue
            for a in range(1, c):
                if gcd(a, c - a) != 1:
                    continue
                b = c - a
                oka = window(rad_of[a], alpha) if star else plain(rad_of[a], a, alpha)
                if not oka:
                    continue
                okb = window(rad_of[b], beta) if star else plain(rad_of[b], b, beta)
                if okb:
                    count += 1
    else:
        rad = _memo_radical()
        for a in range(1, X):
            oka = window(rad(a), alpha) if star else plain(rad(a), a, alpha)
            if not oka:
                continue
            for b in range(1, X - a + 1):
                c = a + b
                if c < c_lo or gcd(a, b) != 1:
                    continue
                okb = window(rad(b), beta) if star else plain(rad(b), b, beta)
                if not okb:
                    continue
                okc = window(rad(c), gamma) if star else plain(rad(c), c, gamma)
                if okc:
                    count += 1
    elapsed = time.perf_counter() - t0
    query = (
        f"count_s(X={X}, alpha={format_rational(alpha)}, "
        f"beta={format_rational(beta)}, gamma={format_rational(gamma)}, star={star})"
    )
    return CountResult(query=query, count=count, strategy=strategy, elapsed_seconds=elapsed)


# --- radical-bounded integers ------------------------------------------------

def count_radical_bounded(
    x: int,
    lam: Fraction,
    *,
    strategy: str = "scan",
    budget: int | None = None,
) -> CountResult:
    """#{n <= x : rad(n) <= x**lam}, the radical-bounded integer count.

    The comparison is non-strict.  Strategies: 'scan' sweeps 1..x with a
    sieve table; 'radical-first' enumerates squarefree radicals r up to the
    threshold and counts, for each, the n <= x whose radical is exactly r.
    """
    lam = Fraction(lam)
    if x < 1 or lam < 0:
        raise ValueError("need x >= 1 and lam >= 0")
    if strategy not in ("scan", "radical-first"):
        raise ValueError(f"unknown strategy {strategy!r}")
    p, q = lam.numerator, lam.denominator
    t0 = time.perf_counter()
    if strategy == "scan":
        _check_budget("count_radical_bounded", x, budget)
        rad_of = build_radical_table(x)
        xp = x**p
        count = sum(1 for n in range(1, x + 1) if rad_of[n] ** q <= xp)
    else:
        # largest integer r with r^q <= x^p
        threshold = iroot(x**p, q)
        _check_budget("count_radical_bounded", threshold + x, budget)
        count = 0
        for r in range(1, threshold + 1):
            fac = factorize(r)
            if any(e > 1 for e in fac.values()):
                continue
            primes = sorted(fac)

            def spread(i: int, value: int) -> int:
                # n <= x whose radical is exactly r: raise each prime to >= 1
                if i == len(primes):
                    return 1
                total = 0
                v = value * primes[i]
                while v <= x:
                    total += spread(i + 1, v)
                    v *= primes[i]
                return total

            count += spread(0, 1)
    elapsed = time.perf_counter() - t0
    query = f"count_radical_bounded(x={x}, lam={format_rational(lam)})"
    return CountResult(query=query, count=count, strategy=strategy, elapsed_seconds=elapsed)


# --- dyadic box counts for the monomial equation ------------------------------

def _family(anchors: tuple[Fraction, ...]) -> list[tuple[int, int]]:
    """All tuples in the dyadic box, reduced to (prod v_j^j, prod v_j)."""
    ranges = []
    for a in anchors:
        lo, hi = dyadic_range(a)
        ranges.append(range(lo, hi + 1))
    out = []
    for tup in product(*ranges):
        pw = 1
        for j, v in enumerate(tup, start=1):
            pw *= v**j
        out.append((pw, prod(tup)))
    return out


def _family_size(anchors: tuple[Fraction, ...]) -> int:
    n = 1
    for a in anchors:
        lo, hi = dyadic_range(a)
        n *= max(0, hi - lo + 1)
    return n


def count_bd(
    spec: BoxSpec,
    *,
    strategy: str = "mitm",
    budget: int | None = None,
) -> CountResult:
    """Count solutions of c1*prod(x_j^j) + c2*prod(y_j^j) = c3*prod(z_j^j)
    in the dyadic boxes of ``spec`` with gcd(c1*prod x_j, c2*prod y_j,
    c3*prod z_j) = 1.

    Strategies: 'nested' checks every (x, y, z) combination; 'mitm' indexes
    the z side by its power product and meets it from the (x, y) side.
    """
    if strategy not in ("nested", "mitm"):
        raise ValueError(f"unknown strategy {strategy!r}")
    nx, ny, nz = (_family_size(a) for a in (spec.X, spec.Y, spec.Z))
    est = nx * ny * nz if strategy == "nested" else nz + nx * ny
    _check_budget("count_bd", est, budget)
    c1, c2, c3 = spec.coefficients
    anchors = ",".join(
        "[" + ";".join(format_rational(a) for a in fam) + "]"
        for fam in (spec.X, spec.Y, spec.Z)
    )
    query = f"count_bd(d={spec.d}, c={spec.coefficients}, anchors={anchors})"
    t0 = time.perf_counter()
    count = 0
    if min(nx, ny, nz) == 0:
        return CountResult(query=query, count=0, strategy=strategy,
                           elapsed_seconds=time.perf_counter() - t0)
    if strategy == "nested":
        fx, fy, fz = _family(spec.X), _family(spec.Y), _family(spec.Z)
        for px, sx in fx:
            for py, sy in fy:
                lhs = c1 * px + c2 * py
                for pz, sz in fz:
                    if lhs == c3 * pz and gcd(c1 * sx, c2 * sy, c3 * sz) == 1:
                        count += 1
    else:
        by_power: dict[int, list[int]] = {}
        for pz, sz in _family(spec.Z):
            by_power.setdefault(c3 * pz, []).append(c3 * sz)
        fx, fy = _family(spec.X), _family(spec.Y)
        for px, sx in fx:
            u = c1 * px
            g1 = c1 * sx
            for py, sy in fy:
                hits = by_power.get(u + c2 * py)
                if hits:
                    g2 = gcd(g1, c2 * sy)
                    count += sum(1 for h in hits if gcd(g2, h) == 1)
    elapsed = time.perf_counter() - t0
    return CountResult(query=query, count=count, strategy=strategy, elapsed_seconds=elapsed)


# --- signed ternary equations --------------------------------------------------

def count_ternary(
    query: TernaryQuery,
    *,
    strategy: str = "solve-z",
    budget: int | None = None,
) -> CountResult:
    """Count nonzero pairwise-coprime (x, y, z) in the signed boxes with
    a1*x^p + a2*y^q + a3*z^r = 0.

    Strategies: 'nested' sweeps all three variables; 'solve-z' sweeps
    (x, y) and recovers z by exact integer root extraction.
    """
    if strategy not in ("nested", "solve-z"):
        raise ValueError(f"unknown strategy {strategy!r}")
    p, q, r = query.exponents
    a1, a2, a3 = query.coefficients
    X, Y, Z = query.limits
    est = 4 * X * Y * (2 * Z if strategy == "nested" else 1)
    _check_budget("count_ternary", est, budget)

    def signed(limit):
        for v in range(1, limit + 1):
            yield v
            yield -v

    t0 = time.perf_counter()
    count = 0
    if strategy == "nested":
        for x in signed(X):
            for y in signed(Y):
                if gcd(x, y) != 1:
                    continue
                partial = a1 * x**p + a2 * y**q
                for z in signed(Z):
                    if partial + a3 * z**r == 0 and gcd(x, z) == 1 and gcd(y, z) == 1:
                        count += 1
    else:
        for x in signed(X):
            for y in signed(Y):
                if gcd(x, y) != 1:
                    continue
                w = -(a1 * x**p + a2 * y**q)
                if w % a3:
                    continue
                m = w // a3
                if m == 0:
                    continue  # z must be nonzero
                roots = []
                if r % 2 == 0:
                    if m > 0:
                        root = exact_root(m, r)
                        if root is not None:
                            roots = [root, -root]
                else:
                    root = exact_root(abs(m), r)
                    if root is not None:
                        roots = [root if m > 0 else -root]
                for z in roots:
                    if abs(z) <= Z and gcd(x, z) == 1 and gcd(y, z) == 1:
                        count += 1
    elapsed = time.perf_counter() - t0
    qstr = (
        f"count_ternary(p={p}, q={q}, r={r}, a={query.coefficients}, "
        f"limits={query.limits})"
    )
    return CountResult(query=qstr, count=count, strategy=strategy, elapsed_seconds=elapsed)
