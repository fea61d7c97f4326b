"""Radicals (squarefree kernels) and exact integer factorization.

The radical rad(n) is the product of the distinct primes dividing n, with
rad(1) = 1.  Everything here is exact: bulk work goes through a
segmented prime-power division sieve, which yields rad(n) in blocks of
SEGMENT machine words and holds only one block and the prime powers up to
the limit (radical_segments; build_radical_table gathers the blocks into
one flat table), and a single argument is fully factored with trial
division plus deterministic primality testing.  primes_to(n) is the one
sieve of Eratosthenes that the radical sieve and the bound evaluators
share.  No probabilistic shortcut is ever allowed to decide a count:
above the proven Miller-Rabin bound a prime cannot be certified here, so
factorize refuses with BudgetExceeded rather than search for ever.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain, compress, repeat
from math import gcd, isqrt, prod
from operator import floordiv

# Deterministic Miller-Rabin witness set: testing against the first 13
# primes is a proven primality test for every n below this bound.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

_TRIAL_CAP = 10_000  # trial-divide this far before switching to rho

# rho iterations one split may spend; composites below 10**18 with three
# prime factors above the trial cap split within about 2**16
_RHO_CAP = 1 << 22


def _trial_blocks():
    """The mod-30 wheel candidates 7 <= f <= _TRIAL_CAP (those coprime to
    2, 3 and 5) in blocks of 64, each as (candidates, last candidate, their
    product).  One gcd with a block's product, about 850 bits, costs far
    less than its 64 trial divisions."""
    cands = sorted(chain.from_iterable(
        range(r, _TRIAL_CAP + 1, 30) for r in (7, 11, 13, 17, 19, 23, 29, 31)
    ))
    runs = [tuple(cands[k:k + 64]) for k in range(0, len(cands), 64)]
    return tuple((run, run[-1], prod(run)) for run in runs)


_BLOCKS = _trial_blocks()

# entries per radical_segments block: 256 KiB of machine words
SEGMENT = 2**15


class BudgetExceeded(RuntimeError):
    """Raised when an operation would do more work than allowed.

    ``estimate`` is the work counted and ``budget`` the most allowed.  The
    message says what was counted: estimated candidate evaluations, unless
    ``detail`` gives the text after the operation name instead."""

    def __init__(self, operation: str, estimate: int, budget: int,
                 detail: str | None = None):
        self.operation = operation
        self.estimate = estimate
        self.budget = budget
        if detail is None:
            detail = (f"estimated {estimate} candidate evaluations "
                      f"exceeds budget {budget}")
        super().__init__(f"{operation}: {detail}")


@lru_cache(maxsize=64)
def primes_to(n: int) -> tuple[int, ...]:
    """The primes p <= n, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = bytes(2)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return tuple(compress(range(n + 1), sieve))


def radical_segments(limit: int):
    """rad(n) for 1 <= n <= limit, yielded block by block as (lo, block)
    with block[i] = rad(lo + i), each an array('Q').  Block k covers
    [k * SEGMENT, (k + 1) * SEGMENT) clipped to [1, limit], so the first
    lo is 1 and each block starts where the last one ended.

    A prime-power division sieve: a block starts as its n themselves, and
    for each prime p <= sqrt(limit) and each power p**k >= p**2 up to the
    limit, every multiple of p**k in the block is divided by p once.  An n
    with p**e exactly dividing it is divided e - 1 times, which leaves one
    p.  The powers are listed once; each (block, power) pair with a
    multiple in the block is one slice assignment, about 0.77 * limit
    element operations in all.  Only the powers and one block are held,
    O(sqrt(limit)) words plus SEGMENT.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    powers = []  # (p**k, p), ascending in p**k
    for p in primes_to(isqrt(limit)):
        pk = p * p
        while pk <= limit:
            powers.append((pk, p))
            pk *= p
    powers.sort()

    # a generator of its own, so a bad limit is refused at the call
    def blocks():
        lo = 1
        while lo <= limit:
            hi = min(lo - lo % SEGMENT + SEGMENT, limit + 1)
            block = array("Q", range(lo, hi))
            for pk, p in powers:
                if pk >= hi:
                    break  # no multiple of pk, nor of a later power, below hi
                first = -lo % pk
                if first < hi - lo:
                    block[first::pk] = array(
                        "Q", map(floordiv, block[first::pk], repeat(p)))
            yield lo, block
            lo = hi

    return blocks()


def build_radical_table(limit: int) -> array:
    """Table rad_of[n] = rad(n) for 0 <= n <= limit (rad_of[0] = 0), as an
    array('Q'): 8 bytes per entry, allocated once and filled block by block
    from radical_segments.  A caller that reads the radicals once, in
    order, walks radical_segments itself and holds one block, not this.
    """
    rad = array("Q", [0]) * (limit + 1)
    for lo, block in radical_segments(limit):
        rad[lo:lo + len(block)] = block
    return rad


def _is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin on the 13 bases, a proof
    below _MR_LIMIT.  Above it a witness still proves n composite, but a
    number that passes every base is only a probable prime, and is
    refused with BudgetExceeded (its proof would need trial division to
    sqrt(n))."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise BudgetExceeded(
            "factorize", isqrt(n), _RHO_CAP,
            f"cannot prove the probable prime {n} prime: it is above the "
            f"Miller-Rabin bound {_MR_LIMIT}")
    return True


def _rho_factor(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle method).

    Deterministic: polynomial offsets are tried in a fixed order, and the
    returned value is verified by gcd, so the answer is always a true factor.
    Refuses with BudgetExceeded before its iterations would pass _RHO_CAP.
    """
    if n % 2 == 0:
        return 2
    spent = 0
    for c in range(1, n):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            # one round steps y 2r times (r to catch up, r in blocks of m)
            spent += 2 * r
            if spent > _RHO_CAP:
                raise BudgetExceeded("factorize", spent, _RHO_CAP,
                                     f"{spent} rho iterations exceed the cap {_RHO_CAP}")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def factorize(n: int) -> dict[int, int]:
    """Exact prime factorization {p: exponent} of n >= 1.

    Trial division walks the mod-30 wheel up to _TRIAL_CAP in blocks,
    never primes_to: a sieve that lost a prime (say 7) would then give the
    same wrong radical (49 for 49) through both factorize and
    radical_segments, and their agreement would prove nothing.  A
    block that lies wholly below sqrt(n) and is coprime to n (one gcd with
    the product of its candidates) is skipped, since none of its
    candidates divides n.  Every other block, so every block for small n,
    is trial-divided candidate by candidate, and the factors come out in
    the same order as without the skip.

    Raises BudgetExceeded when a factor above 3.3 * 10**24 is a probable
    prime that cannot be proven here, or when rho needs more than
    _RHO_CAP iterations to split a cofactor.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    for run, last, block in _BLOCKS:
        # a block wholly below sqrt(n) and coprime to n divides nothing
        if last * last <= n and gcd(n, block) == 1:
            continue
        for f in run:
            if f * f > n:
                break
            while n % f == 0:
                out[f] = out.get(f, 0) + 1
                n //= f
        else:
            continue
        break
    else:
        f = _TRIAL_CAP + 1  # every candidate up to the cap was tried
    # every prime below f is divided out, so a cofactor below f*f is 1 or
    # prime; a larger one is built from primes beyond the cap
    if n < f * f:
        if n > 1:
            out[n] = 1
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho_factor(m)
        stack.append(d)
        stack.append(m // d)
    return out


def radical(n: int) -> int:
    """rad(n): the product of the distinct primes dividing n (rad(1) = 1)."""
    if n < 1:
        raise ValueError("radical requires n >= 1")
    r = 1
    for p in factorize(n):
        r *= p
    return r


def is_squarefree(n: int) -> bool:
    """True when no prime square divides n."""
    if n < 1:
        raise ValueError("is_squarefree requires n >= 1")
    return all(e == 1 for e in factorize(n).values())
