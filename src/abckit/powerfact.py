"""Power factorizations: n = c * prod_{j<=M} x_j**j with a small leftover c.

Given 1 <= n <= X and a quality parameter epsilon, split n by exponent
classes: y_j is the product of the primes appearing in n with exponent
exactly j.  Classes up to M = floor(10/eps^2) become parts directly; the
high classes (j > M) are folded into the K-th part, K = 2*ceil(1/eps),
leaving a coefficient c.  The parts are pairwise coprime, c and x_K are at
most X**(eps/2), and prod x_j tracks rad(n) within a factor X**eps.

Applied with eps^2/2 to each member of an abc triple, this rewrites
a + b = c as a ternary equation in d = floor(40/eps^4) power classes with
coefficients at most X**(eps^2/4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .exact import check_power
from .radicals import factorize, radical


@dataclass(frozen=True)
class PowerFactorization:
    """Result of power_factorize: n = c * prod(x**j for j, x in nontrivial).

    Only the parts larger than 1 are stored, as ascending (j, x_j) pairs;
    every other x_j with 1 <= j <= M is 1.  M = floor(10/eps^2) reaches
    2.5*10**8 at eps = 1/5000, while a number has few exponent classes.
    """

    n: int
    X: int
    epsilon: Fraction
    K: int
    M: int
    c: int
    nontrivial: tuple[tuple[int, int], ...]

    def part(self, j: int) -> int:
        """x_j for 1 <= j <= M."""
        if not 1 <= j <= self.M:
            raise IndexError(f"part index {j} outside 1..{self.M}")
        for i, x in self.nontrivial:
            if i == j:
                return x
        return 1

    @property
    def nontrivial_parts(self) -> dict[int, int]:
        """{j: x_j} restricted to parts larger than 1."""
        return dict(self.nontrivial)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an invariant audit: ok, plus one line per violation."""

    ok: bool
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class TripleReduction:
    """An abc triple rewritten as coeff_a*A + coeff_b*B = coeff_c*C.

    A, B, C are the part-power products of the three power factorizations,
    all taken at quality epsilon**2/2, so the number of power classes is
    d = floor(40/epsilon**4) and each coefficient is at most X**(epsilon**2/4).
    """

    a: int
    b: int
    c: int
    X: int
    epsilon: Fraction
    fa: PowerFactorization
    fb: PowerFactorization
    fc: PowerFactorization

    @property
    def d(self) -> int:
        """Number of power classes shared by the three factorizations."""
        return self.fa.M

    @property
    def coefficients(self) -> tuple[int, int, int]:
        """(coeff_a, coeff_b, coeff_c) -- the three leftover factors."""
        return self.fa.c, self.fb.c, self.fc.c


def _class_products(n: int) -> dict[int, int]:
    """{j: y_j} where y_j is the product of primes with exponent exactly j."""
    classes: dict[int, int] = {}
    for p, e in factorize(n).items():
        classes[e] = classes.get(e, 1) * p
    return classes


def power_factorize(n: int, X: int, epsilon: Fraction) -> PowerFactorization:
    """Split n into c * prod_{j=1}^{M} x_j**j (see module docstring).

    Requires 1 <= n <= X and epsilon in (0, 1/2].
    """
    # Fraction(eps) of a Fraction costs a sixth of a call: reuse it
    eps = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)
    p, q = eps.numerator, eps.denominator
    if not 0 < 2 * p <= q:
        raise ValueError(f"epsilon must lie in (0, 1/2], got {eps}")
    if not 1 <= n <= X:
        raise ValueError(f"need 1 <= n <= X, got n={n}, X={X}")
    K = 2 * -(-q // p)  # 2 * ceil(1/eps)
    M = 10 * q * q // (p * p)  # floor(10/eps^2)
    parts: dict[int, int] = {}
    c = 1
    for m, y in _class_products(n).items():
        if m <= M:
            parts[m] = parts.get(m, 1) * y
        else:  # m > M >= K, so the folded power y**(m // K) exceeds 1
            parts[K] = parts.get(K, 1) * y ** (m // K)
            c *= y ** (m % K)
    return PowerFactorization(
        n=n, X=X, epsilon=eps, K=K, M=M, c=c, nontrivial=tuple(sorted(parts.items()))
    )


def verify_power_factorization(pf: PowerFactorization) -> CheckResult:
    """Audit every invariant of a PowerFactorization, exactly.

    Checks: reconstruction, pairwise coprimality of the parts, the
    X**(eps/2) ceilings on c and x_K, and the two-sided radical bracket
    X**(-eps) * prod(x_j) <= rad(n) <= X**(eps) * prod(x_j).
    Only the stored parts are walked: the parts equal to 1 change no
    product and no gcd.  All power comparisons are integer comparisons
    against X**p, with eps = p/q (never floats), each sized first
    (exact.check_power): a power past the cap is refused with
    BudgetExceeded.  rad(n) is factorized afresh, never read off the parts
    under audit.
    """
    failures = []
    p, q = pf.epsilon.numerator, pf.epsilon.denominator
    if pf.c * prod(x**j for j, x in pf.nontrivial) != pf.n:
        failures.append("reconstruction: c * prod(x_j^j) != n")
    xs = [x for _, x in pf.nontrivial]
    for i in range(len(xs)):
        for k in range(i + 1, len(xs)):
            if gcd(xs[i], xs[k]) != 1:
                failures.append(f"coprimality: gcd({xs[i]}, {xs[k]}) > 1")
    op = "verify_power_factorization"
    check_power(op, pf.X, p)
    Xp = pf.X**p
    xK = pf.part(pf.K)
    check_power(op, max(pf.c, xK), 2 * q)
    if pf.c ** (2 * q) > Xp:  # c <= X^(eps/2)
        failures.append("coefficient bound: c^(2q) > X^p")
    if xK ** (2 * q) > Xp:  # x_K <= X^(eps/2)
        failures.append("folded part bound: x_K^(2q) > X^p")
    r = radical(pf.n)
    w = prod(xs)
    # equal products pass both brackets when X^p >= 1, and are the rule
    # unless a class folds; skipping them spares powers of q*log2(r) bits
    if w != r or Xp < 1:
        check_power(op, max(w, r), q)
        if w**q > r**q * Xp:  # prod(x_j) <= rad(n) * X^eps
            failures.append("radical bracket: prod(x_j) > rad(n) * X^eps")
        if r**q > w**q * Xp:  # rad(n) <= prod(x_j) * X^eps
            failures.append("radical bracket: rad(n) > prod(x_j) * X^eps")
    return CheckResult(ok=not failures, failures=tuple(failures))


def reduce_triple(a: int, b: int, c: int, X: int, epsilon: Fraction) -> TripleReduction:
    """Rewrite a coprime triple a + b = c in power-class form.

    Each member is power-factorized at quality epsilon**2/2, so epsilon may
    range over (0, 1].  Requires 1 <= a, b, c <= X, a + b = c, gcd(a, b) = 1.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {eps}")
    if a < 1 or b < 1 or a + b != c:
        raise ValueError(f"not an additive triple: {a} + {b} != {c}")
    if c > X:
        raise ValueError(f"triple exceeds the window: c={c} > X={X}")
    if gcd(a, b) != 1:
        raise ValueError(f"triple is not coprime: gcd({a}, {b}) > 1")
    inner = eps * eps / 2
    return TripleReduction(
        a=a, b=b, c=c, X=X, epsilon=eps,
        fa=power_factorize(a, X, inner),
        fb=power_factorize(b, X, inner),
        fc=power_factorize(c, X, inner),
    )
