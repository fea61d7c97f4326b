"""Exact evaluators for the five exponent bounds on dyadic box counts.

An ExponentConfiguration holds three vectors of non-negative rationals
(a, b, c), one entry per power class, plus slack parameters delta and
epsilon.  Writing Sum(v) for the entry sum of a vector, the five bounds
assign to each configuration a rational exponent:

  trivial      min over vector pairs {u, v} of  Sum(u) + Sum(v)
  fourier      min over pairs of  (1 + delta + sum_i max(u_i, v_i)
                                     - max_{m >= 2} max(u_m, v_m)) / 2
  geometry     delta + min over subsets I, I', I'' of the classes of
                   max(1, W) - S,  with W the weighted (i * entry) and S
                   the plain sum of the selected entries
  determinant  min over ordered pairs (u, v) and classes p, q of
                   1 + delta - u_p - v_q + min(u_p / q, v_q / p)
  thue         1 + delta - max over pairs and p >= 2 of
                   sum_{p | i} (u_i + v_i)

plus an extended fourier variant whose subtracted term pools a divisor
class of the second vector; it never exceeds the plain fourier value.

Each method has one implementation: an integer core that reads the three
vectors as numerators over a common scale (delta too) and returns the
exact value as (numerator, denominator) with its minimizing witness (the
pair / subsets / indices).  One table, _METHODS, pairs each method name
with its core and its replay.  Each configuration is put on the grid of
its own denominators once, as ExponentConfiguration.grid, and keeps it;
the public evaluators run a core on that grid and return a BoundReport
with an exact Fraction, and fast_best runs the same cores on a caller's
grid for bulk search.  Two independent checks stay beside the cores:
evaluate_at replays a defining formula at a witness in integers, over
the lcm of the denominators of delta and of the entries the witness
names, taken afresh on each call (never cfg.grid nor fast_scale),
refusing a witness outside the formula's domain; and the geometry subset
search, by branch-and-bound, can be cross-checked by an exact
enumeration of every subset triple, met in the middle: it sums the
subsets of each half of the 3d items once, at most 2 * 2**(3d/2) of
them, and shares no code with the search.

The geometry search covers the deficit that the free class-1 entries
leave with items of rate (i - 1)/i, in rate order.  Its completion bound
is the lesser of the cheapest single remaining item that overshoots the
deficit and the fractional fill of the deficit by the items that do not,
any rest left uncovered at rate 1 (Dantzig's fractional knapsack bound);
every comparison is in integers.  The bound is admissible and the search
runs to exhaustion, so the value is the certified optimum.  A pruned
subtree holds no leaf below the incumbent, so the search records the
same leaves, in the same order, under any admissible bound: the witness
and every stop_at result are those of the plain search-order enumeration.
The search counts steps, each node it searches and each item a
completion-bound scan reads, and refuses with BudgetExceeded past
COVER_NODE_CAP of them, so the cap bounds its time, not only its nodes.

Given a floor, fast_best decides in up to three stages.  First, in O(d):
lower bounds on the other methods from each vector's sum, maximum and
class-1 entry, against one greedy cover taken in rate order; then the
exact cores, determinant still by its O(d) bound, against a geometry
search that stops under their cap; last, the exact minimum.  The winning
method stays exact, and so does any value at or above the floor, while a
value below it is only an upper bound that is itself below the floor.  A
search for the largest value never keeps such a sample, so its result is
unchanged.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, mul
from typing import Iterable, Sequence

from .radicals import BudgetExceeded, primes_to

Rat = Fraction | int

VECTOR_NAMES = ("a", "b", "c")

METHOD_NAMES = ("trivial", "fourier", "geometry", "determinant", "thue")
EXTENDED_METHOD = "extended-fourier"

EXHAUSTIVE_LIMIT = 10  # most classes geometry_bound(mode="exhaustive") takes
COVER_NODE_CAP = 2 * 10**7  # most steps (nodes plus items scanned) of one cover search


class SubsetSearchRefusal(ValueError):
    """Exhaustive geometry subset search refused: too many power classes
    for the full enumeration."""


def _rat(value: Rat) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class ExponentConfiguration:
    """Three exponent vectors over d power classes, with slacks.

    Entries are non-negative rationals; delta >= 0 and epsilon >= 0 are
    the additive slack and the localization parameter carried alongside.
    The integer form the evaluators read, ``grid``, is computed on first
    use and kept on the instance; it is not a field.
    """

    d: int
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    delta: Fraction = Fraction(0)
    epsilon: Fraction = Fraction(0)

    def __post_init__(self):
        for name in VECTOR_NAMES:
            object.__setattr__(self, name, tuple(map(_rat, getattr(self, name))))
        object.__setattr__(self, "delta", _rat(self.delta))
        object.__setattr__(self, "epsilon", _rat(self.epsilon))
        if self.d < 1:
            raise ValueError("d must be >= 1")
        for name in VECTOR_NAMES:
            vec = getattr(self, name)
            if len(vec) != self.d:
                raise ValueError(f"vector {name} must have d = {self.d} entries")
            if any(x.numerator < 0 for x in vec):
                raise ValueError(f"vector {name} has a negative entry")
        if self.delta.numerator < 0 or self.epsilon.numerator < 0:
            raise ValueError("delta and epsilon must be non-negative")

    @cached_property
    def grid(self) -> tuple:
        """(vecs, delta_num, scale): the three vectors and delta as integer
        numerators over scale, the lcm of their denominators; the arguments
        of every integer core."""
        scale = lcm(self.delta.denominator,
                    *(f.denominator for f in self.a + self.b + self.c))
        vecs, dn = fast_scale(self, scale)
        return vecs, dn, scale

    def vector(self, name: str) -> tuple[Fraction, ...]:
        if name not in VECTOR_NAMES:
            raise KeyError(f"no vector named {name!r}")
        return getattr(self, name)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: method tag, exact value, minimizing witness."""

    method: str
    value: Fraction
    witness: dict


# --- integer cores -------------------------------------------------------------
#
# Each core takes (vecs, dn, scale): the three entry vectors as integer
# numerators over scale, and delta as dn / scale.  It returns the exact
# value as (numerator, denominator) and the first minimizer in scan order
# as the witness.


def _pair(ui: int, vi: int) -> list[str]:
    return [VECTOR_NAMES[ui], VECTOR_NAMES[vi]]


def _trivial(vecs, dn, scale):
    ta, tb, tc = map(sum, vecs)
    # a tie on the value falls to the names, which sort in scan order
    best, u, v = min((ta + tb, "a", "b"), (ta + tc, "a", "c"), (tb + tc, "b", "c"))
    return best, scale, {"pair": [u, v]}


def _fourier(vecs, dn, scale):
    # symmetric in (u, v): (v, u) never beats the earlier (u, v)
    d = len(vecs[0])
    best = None
    for ui in range(3):
        for vi in range(ui + 1, 3):
            u, v = vecs[ui], vecs[vi]
            series = sub = 0
            m_at = 2 if d > 1 else None  # the first class m >= 2 at the maximum
            for i in range(d):
                top = u[i] if u[i] >= v[i] else v[i]
                series += top
                if i and top > sub:
                    sub, m_at = top, i + 1
            t = scale + dn + series - sub
            if best is None or t < best:
                best, at = t, (ui, vi, m_at)
    ui, vi, m_at = at
    return best, 2 * scale, {"pair": _pair(ui, vi), "m": m_at}


def _class_sums(v) -> list[int]:
    """The pooled divisor classes sum_{p | i} v_i of v, one per prime
    p <= d, in the order of primes_to(d).  A composite class never pools
    more than its least prime factor, which comes first in every scan, so
    the primes alone give each core's value and first minimizer."""
    return [sum(v[p - 1::p]) for p in primes_to(len(v))]


def _extended_fourier(vecs, dn, scale):
    # per vector: its largest pooled divisor class, and the first i >= 2 at it
    primes = primes_to(len(vecs[0]))
    pooled = []
    for sums in map(_class_sums, vecs):
        top = max(sums, default=0)
        pooled.append((top, primes[sums.index(top)] if sums else None))
    # sum_i max(u_i, v_i) is symmetric: one series per unordered pair,
    # scanned over the ordered pairs (u, v)
    a, b, c = vecs
    ab, ac, bc = sum(map(max, a, b)), sum(map(max, a, c)), sum(map(max, b, c))
    best = None
    for ui, vi, series in ((0, 1, ab), (0, 2, ac), (1, 0, ab),
                           (1, 2, bc), (2, 0, ac), (2, 1, bc)):
        t = series - pooled[vi][0]
        if best is None or t < best:
            best, at = t, (ui, vi)
    ui, vi = at
    return scale + dn + best, 2 * scale, {"pair": _pair(ui, vi), "i": pooled[vi][1]}


def _determinant(vecs, dn, scale):
    # term(p, q) = min(A, B), A = 1 + delta - (1 - 1/q) u_p - v_q and
    # B = 1 + delta - u_p - (1 - 1/p) v_q.  For each q, A is least first at
    # the first p of the largest u_p (at p = 1 when q = 1: A is flat in p);
    # B likewise at the first q of the largest v_q.  Each of a pair's 2d
    # candidates is num / (scale * k); they are compared with the best so
    # far, bn / (scale * bk), by cross-multiplication, and the witness is
    # read only on a tie, which goes to the least (pair, p, q), as in a scan
    head = scale + dn
    bn, bk, at = 1, 0, None  # 1/0, above every candidate
    for ui, vi in ((0, 1), (0, 2), (1, 2)):
        u, v = vecs[ui], vecs[vi]
        mu, mv = max(u), max(v)
        pu, qv = u.index(mu) + 1, v.index(mv) + 1
        p = q = 1  # A(p, 1) and B(1, q) are flat
        hk = k = 0
        for uk, vk in zip(u, v):
            k += 1
            hk += head
            if k == 2:
                p, q = pu, qv
            num = hk - (k - 1) * mu - k * vk  # A(p, k)
            lhs, rhs = num * bk, bn * k
            if lhs < rhs or lhs == rhs and (ui, vi, p, k) < at:
                bn, bk, at = num, k, (ui, vi, p, k)
            num = hk - k * uk - (k - 1) * mv  # B(k, q)
            lhs, rhs = num * bk, bn * k
            if lhs < rhs or lhs == rhs and (ui, vi, k, q) < at:
                bn, bk, at = num, k, (ui, vi, k, q)
    ui, vi, p, q = at
    return bn, scale * bk, {"pair": _pair(ui, vi), "p": p, "q": q}


def _thue(vecs, dn, scale):
    primes = primes_to(len(vecs[0]))
    a, b, c = map(_class_sums, vecs)
    sub, at = 0, None
    for ui, vi, su, sv in ((0, 1, a, b), (0, 2, a, c), (1, 2, b, c)):
        for p, pooled in zip(primes, map(add, su, sv)):
            if pooled > sub:
                sub, at = pooled, (ui, vi, p)
    if at is None:  # nothing pooled: just 1 + delta
        return scale + dn, scale, {"pair": None, "p": None}
    ui, vi, p = at
    return scale + dn - sub, scale, {"pair": _pair(ui, vi), "p": p}


# --- geometry: integer subset search ------------------------------------------


def _subset_sums(items: Sequence[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """The W and the S of every subset of items, each at the subset's mask."""
    ws, ss = [0], [0]
    for w, s in items:
        ws += [x + w for x in ws]
        ss += [x + s for x in ss]
    return ws, ss


def _running_min(keys: Iterable) -> list:
    """The least key so far, at each position: list(accumulate(keys, min)),
    without a call to min per key, which takes about twice as long."""
    out, top = [], None
    for key in keys:
        if top is None or key < top:
            top = key
        out.append(top)
    return out


def _cover_exhaustive(entries: Sequence[tuple[int, ...]], target: int):
    """Minimize max(target, W) - S over all subset triples, by enumeration.

    entries: per vector, the scaled integer entries.  Returns
    (best_value_scaled, masks): the first minimizer in (ma, mb, mc) order.

    Meet in the middle (Horowitz and Sahni): the 3d items (class i,
    entry v) -> (W, S) = (i v, v) sit at the bits of
    M = ma << 2d | mb << d | mc, so ascending M is (ma, mb, mc) order.  An
    item of entry 0 only raises M, so the first minimizer holds none; the
    other items keep their bit order and are split into a low and a high
    half.  The low half's subsets are sorted by W.  For a high part
    (W_h, S_h) the low parts with W_l <= target - W_h form a prefix, worth
    target - S_h - S_l, and the rest a suffix, worth
    W_h - S_h + (W_l - S_l); a running minimum of (-S_l, mask) over
    prefixes and of (W_l - S_l, mask) over suffixes answers each high part
    with one bisection.  Each answer is the least (value, low mask), the
    first minimizer within its high part; high parts are walked in
    ascending order and an answer kept only when strictly lower, so the
    result is the first minimizer in M order.
    """
    d = len(entries[0])
    flat = [(i, v) for vec in reversed(entries) for i, v in enumerate(vec, 1)]
    bits = [k for k, (_, v) in enumerate(flat) if v]  # the bit of M of each item
    items = [(i * v, v) for i, v in flat if v]
    cut = len(items) // 2
    lw, ls = _subset_sums(items[:cut])
    order = sorted(range(len(lw)), key=lw.__getitem__)
    low_w = [lw[m] for m in order]
    prefix = _running_min(zip([-ls[m] for m in order], order))
    rev = order[::-1]
    suffix = _running_min(zip([lw[m] - ls[m] for m in rev], rev))[::-1]
    best = None
    hw, hs = _subset_sums(items[cut:])
    for mh, wh in enumerate(hw):
        j = bisect_right(low_w, target - wh)
        if j:
            v, ml = prefix[j - 1]
            cand = (target + v, ml)
            if j < len(order):
                v, ml = suffix[j]
                if (wh + v, ml) < cand:
                    cand = (wh + v, ml)
        else:
            v, ml = suffix[0]
            cand = (wh + v, ml)
        value = cand[0] - hs[mh]
        if best is None or value < best[0]:
            best = (value, mh << cut | cand[1])
    value, mask = best
    m = sum(1 << k for j, k in enumerate(bits) if mask >> j & 1)
    full = (1 << d) - 1
    return value, (m >> 2 * d, m >> d & full, m & full)


def _cover_branch_bound(
    entries: Sequence[tuple[int, ...]],
    target: int,
    *,
    stop_at: int | None = None,
):
    """Same minimum as _cover_exhaustive, by branch-and-bound.

    Items with class 1 cost nothing and only help coverage, so they are
    all taken.  A class-i item of entry v costs w = (i - 1) v and covers
    u = i v.  The others are searched depth first in rate order (class,
    then larger coverage first), taking an item before skipping it; a
    node whose deficit rem is covered (rem <= 0) or whose items have run
    out is a leaf worth cost + max(rem, 0).  The search keeps its open
    nodes on an explicit stack, the skip child pushed under the take
    child, so its depth is not bounded by the interpreter's recursion
    limit.

    Every completion of a node with cost C and deficit rem > 0 either
    takes some remaining item with u >= rem, and costs at least C plus
    that item's w, or takes only items with u < rem, and costs at least
    C plus their fractional fill of rem in rate order, with any rest left
    uncovered at rate 1 (Dantzig's bound for the fractional knapsack).  A
    node is pruned when both are >= the incumbent, compared in integers.
    The cheaper bound C + rem * (i - 1)/i, at the class i of the node's
    first item, is at most both and is tested first; the O(n) scan joins
    it only once the search has passed 4n nodes, so small searches pay
    nothing for it.  The search runs to exhaustion, so the result is the
    certified optimum.

    A new incumbent needs a leaf strictly below the current one, and a
    pruned subtree holds none, so every admissible bound visits the same
    record leaves in the same order: the first optimum in search order
    and its masks do not depend on which bound prunes.

    A search whose steps pass COVER_NODE_CAP is refused with
    BudgetExceeded("geometry_bound", steps, cap): a step is a node the
    cheap bound keeps or an item the O(n) scan reads, so the cap bounds
    the time a search takes.

    ``stop_at`` ends the search as soon as the incumbent is <= stop_at.
    The value returned then lies between the optimum and stop_at (the
    masks attain it); when no subset triple gets that low the search runs
    to exhaustion and returns the optimum, as without it.  Either way it
    is the first record leaf <= stop_at, so it too is independent of the
    bound.
    """
    taken_masks = [0, 0, 0]
    base_cover = 0
    items = []  # (class, w, u, vec_index, entry_index)
    for vi, vec in enumerate(entries):
        for ei, v in enumerate(vec):
            if v == 0:
                continue
            i = ei + 1
            if i == 1:
                taken_masks[vi] |= 1
                base_cover += v
            else:
                items.append((i, (i - 1) * v, i * v, vi, ei))
    deficit = target - base_cover
    if deficit <= 0 or not items:
        return max(deficit, 0), tuple(taken_masks)
    # A class-i item costs w = (i - 1) v for u = i v of coverage: its rate
    # w/u = (i - 1)/i grows with the class and stays below 1, the rate of
    # leaving deficit uncovered.  So sorting by class is cheapest-rate-first
    # (larger coverage breaks ties), and the cheapest rate among the items
    # from k on is the rate of item k itself.
    items.sort(key=lambda t: (t[0], -t[2]))
    n = len(items)
    stop = -1 if stop_at is None else stop_at  # every value is >= 0
    best_cost = deficit  # take nothing beyond the free items
    best_sets: tuple[int, ...] = ()
    scan_after = 4 * n  # nodes searched on the cheap bound alone
    nodes = steps = 0  # nodes searched; nodes plus items the scans read
    cap = COVER_NODE_CAP

    def prunable(k: int, budget: int, rem: int) -> bool:
        """Whether every completion from item k of a node with deficit rem
        adds at least budget to its cost: the overshoot bound and the
        fractional fill are both >= budget.  Each item read is a step."""
        nonlocal steps
        fill, left = 0, rem  # the fill's cost so far, and the deficit left
        for j in range(k, n):
            i, w, u, _, _ = items[j]
            if u >= rem:
                if w < budget:
                    break
            elif left:
                if u < left:
                    fill += w
                    left -= u
                else:  # the fill ends in this item: fill + left * (i - 1)/i
                    if fill * i + left * (i - 1) < budget * i:
                        break
                    left = 0
        else:
            steps += n - k
            return not left or fill + left >= budget
        steps += j - k + 1
        return False

    stack = [(0, 0, deficit, ())] if deficit > stop else []
    while stack:
        k, cost, rem, chosen = stack.pop()
        if rem <= 0 or k == n:
            total = cost + (rem if rem > 0 else 0)
            if total < best_cost:
                best_cost, best_sets = total, chosen
                if total <= stop:
                    break
            continue
        i, w, u, _, _ = items[k]
        # cost + rem * (i - 1)/i >= best_cost, in integers
        if cost * i + rem * (i - 1) >= best_cost * i:
            continue
        nodes += 1
        steps += 1
        if steps > cap:
            raise BudgetExceeded("geometry_bound", steps, cap, f"{steps} search "
                                 f"steps (nodes plus items scanned) exceed the cap {cap}")
        if nodes > scan_after and prunable(k, best_cost - cost, rem):
            continue
        stack.append((k + 1, cost, rem, chosen))
        stack.append((k + 1, cost + w, rem - u, chosen + (k,)))
    masks = list(taken_masks)
    for k in best_sets:
        _, _, _, vi, ei = items[k]
        masks[vi] |= 1 << ei
    return best_cost, tuple(masks)


def _mask_to_classes(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _geometry(vecs, dn, scale, *, exhaustive: bool = False):
    search = _cover_exhaustive if exhaustive else _cover_branch_bound
    cover, masks = search(vecs, scale)
    witness = {
        key: _mask_to_classes(mask) for key, mask in zip(("I", "Ip", "Ipp"), masks)
    }
    return dn + cover, scale, witness


# --- canonical evaluators ------------------------------------------------------


def fast_scale(cfg: ExponentConfiguration, grid: int) -> tuple:
    """Entry numerators of cfg, and delta's, on the given grid: the
    integers the cores and fast_best read.  ExponentConfiguration.grid
    calls it with the lcm of cfg's denominators, which always fits.

    Raises ValueError if any entry or delta is off-grid.
    """
    out = []
    for name in VECTOR_NAMES:
        row = []
        for f in cfg.vector(name):
            n, r = divmod(f.numerator * grid, f.denominator)
            if r:
                raise ValueError(f"entry {f} not representable on grid {grid}")
            row.append(n)
        out.append(tuple(row))
    dn, r = divmod(cfg.delta.numerator * grid, cfg.delta.denominator)
    if r:
        raise ValueError(f"delta {cfg.delta} not representable on grid {grid}")
    return tuple(out), dn


def _report(method: str, cfg: ExponentConfiguration, **options) -> BoundReport:
    """Run the method's core on cfg.grid, cfg on its own denominators,
    computed once per configuration and shared by every evaluator."""
    num, den, witness = _METHODS[method][0](*cfg.grid, **options)
    return BoundReport(method, Fraction(num, den), witness)


def trivial_bound(cfg: ExponentConfiguration) -> BoundReport:
    """min over vector pairs of the two entry sums."""
    return _report("trivial", cfg)


def fourier_bound(cfg: ExponentConfiguration) -> BoundReport:
    """(1 + delta + sum of entrywise maxima - largest high-class maximum) / 2,
    minimized over vector pairs.  The subtracted term is 0 when d < 2."""
    return _report("fourier", cfg)


def extended_fourier_bound(cfg: ExponentConfiguration) -> BoundReport:
    """Fourier variant subtracting half of a pooled divisor class
    sum_{j = 0 mod i} w_j of the second vector; never above plain fourier."""
    return _report(EXTENDED_METHOD, cfg)


def determinant_bound(cfg: ExponentConfiguration) -> BoundReport:
    """1 + delta - u_p - v_q + min(u_p / q, v_q / p), minimized over ordered
    vector pairs and class indices p, q.

    The term is symmetric under swapping (u, p) with (v, q), so only
    unordered pairs are read; the first minimizer is the same.  In closed
    form the term is min(A, B), A = 1 + delta - (1 - 1/q) u_p - v_q and
    B = 1 + delta - u_p - (1 - 1/p) v_q, so a pair's minimum is the least of
    the 2d values 1 + delta - (1 - 1/q) max u - v_q and
    1 + delta - u_p - (1 - 1/p) max v, read in one pass per pair.  The
    witness is the first minimizer over (pair, p, q) in that order."""
    return _report("determinant", cfg)


def thue_bound(cfg: ExponentConfiguration) -> BoundReport:
    """1 + delta - (largest pooled class sum_{p | i} (u_i + v_i) over vector
    pairs and p >= 2); just 1 + delta when d < 2."""
    return _report("thue", cfg)


def geometry_bound(
    cfg: ExponentConfiguration, *, mode: str = "branch-and-bound"
) -> BoundReport:
    """delta + min over class subsets I, I', I'' of max(1, W) - S.

    W weights each selected entry by its class index; S is the plain sum.
    Both modes return the certified optimum; 'exhaustive' covers all
    2**(3d) subset triples by meeting in the middle, a sort and a walk over
    the 2**(3d/2) subsets of each half of the items: about 50 ms at
    d = 10 with every entry nonzero, and about three times longer per
    further class, so it refuses when d exceeds EXHAUSTIVE_LIMIT (10),
    which covers the d = 10 that verify region runs at; branch-and-bound
    takes any d, but refuses with BudgetExceeded a search that passes
    COVER_NODE_CAP steps (nodes plus items scanned).
    """
    if mode not in ("branch-and-bound", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    exhaustive = mode == "exhaustive"
    if exhaustive and cfg.d > EXHAUSTIVE_LIMIT:
        raise SubsetSearchRefusal(
            f"exhaustive subset search over d = {cfg.d} classes exceeds "
            f"the limit {EXHAUSTIVE_LIMIT}"
        )
    return _report("geometry", cfg, exhaustive=exhaustive)


EVALUATORS = {
    "trivial": trivial_bound,
    "fourier": fourier_bound,
    "geometry": geometry_bound,
    "determinant": determinant_bound,
    "thue": thue_bound,
    EXTENDED_METHOD: extended_fourier_bound,
}


def resolve_methods(methods: Sequence[str] | None) -> tuple[str, ...]:
    """The method names to run: METHOD_NAMES by default, else the given
    names, refused when empty, when one is not an EVALUATORS key, or when
    one is listed twice."""
    if methods is None:
        return METHOD_NAMES
    names = tuple(methods)
    if not names:
        raise ValueError("methods must not be empty")
    for k, name in enumerate(names):
        if name not in EVALUATORS:
            raise ValueError(f"unknown method {name!r}")
        if name in names[:k]:
            raise ValueError(f"method {name!r} is listed twice")
    return names


def best_bound(
    cfg: ExponentConfiguration,
    *,
    methods: Sequence[str] | None = None,
) -> BoundReport:
    """Minimum of the selected bounds (the five of METHOD_NAMES by default;
    extended-fourier may be listed too).  Ties go to the method listed first.

    The witness names the winning method and holds that method's witness.
    Geometry runs its branch-and-bound search.
    """
    names = resolve_methods(methods)
    return best_of(EVALUATORS[name](cfg) for name in names)


def best_of(reports: Iterable[BoundReport]) -> BoundReport:
    """The "best" report over evaluated reports: the least value, a tie
    going to the report listed first."""
    best = None
    for rep in reports:
        if best is None or rep.value < best.value:
            best = rep
    return BoundReport("best", best.value, {"method": best.method, "witness": best.witness})


def _over(delta: Fraction, entries: Sequence[Fraction]) -> tuple[int, int, list[int]]:
    """(scale, dn, nums): scale the lcm of the denominators of delta and
    the entries, dn and nums their numerators over it."""
    pairs = [f.as_integer_ratio() for f in entries]
    scale = lcm(delta.denominator, *[q for _, q in pairs])
    return (scale, delta.numerator * (scale // delta.denominator),
            [n * (scale // q) for n, q in pairs])


def _fields(method: str, witness, *keys: str) -> list:
    """The values of a witness at keys, refused unless it is a dict of
    just those keys."""
    if isinstance(witness, dict) and len(witness) == len(keys):
        try:
            return [witness[key] for key in keys]
        except KeyError:
            pass
    raise ValueError(f"{method} witness must be a dict of the keys {', '.join(keys)}")


def _pair_of(method: str, cfg, pair) -> tuple:
    """The two vectors of cfg a witness pair names, refused unless it names
    two different ones."""
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        u, v = pair
        if u != v and u in VECTOR_NAMES and v in VECTOR_NAMES:
            return getattr(cfg, u), getattr(cfg, v)
    raise ValueError(f"{method} witness pair {pair!r} does not name two different vectors")


def _class_index(method: str, key: str, i, d: int, low: int = 1) -> int:
    """The 0-based position of class i, refused unless i is an int with
    1 <= i <= d and i >= low."""
    if type(i) is not int:
        raise ValueError(f"{method} witness: {key} = {i!r} is not a class index")
    if not 1 <= i <= d:
        raise ValueError(f"class index {i} outside 1..{d}")
    if i < low:
        raise ValueError(f"{method} witness: {key} = {i} is below {low}")
    return i - 1


def _high_class(method: str, key: str, i, d: int) -> int | None:
    """The 0-based position of a subtracted class i in 2..d, or None for
    i = None, which subtracts nothing and is refused unless d = 1."""
    if i is None:
        if d > 1:
            raise ValueError(f"{method} witness: {key} = None subtracts nothing, "
                             f"but d = {d} has classes 2..{d}")
        return None
    return _class_index(method, key, i, d, 2)


def _replay_trivial(cfg, witness):
    (pair,) = _fields("trivial", witness, "pair")
    u, v = _pair_of("trivial", cfg, pair)
    scale, _, nums = _over(cfg.delta, u + v)
    return sum(nums), scale


def _replay_fourier(cfg, witness):
    # (1 + delta + series - sub) / 2, over 2 * scale
    pair, m = _fields("fourier", witness, "pair", "m")
    u, v = _pair_of("fourier", cfg, pair)
    k = _high_class("fourier", "m", m, cfg.d)
    scale, dn, nums = _over(cfg.delta, u + v)
    uv, vv = nums[:cfg.d], nums[cfg.d:]
    series = sum(map(max, uv, vv))
    sub = 0 if k is None else max(uv[k], vv[k])
    return scale + dn + series - sub, 2 * scale


def _replay_extended_fourier(cfg, witness):
    # as fourier, the subtracted term pooling class i of the second vector
    pair, i = _fields(EXTENDED_METHOD, witness, "pair", "i")
    u, v = _pair_of(EXTENDED_METHOD, cfg, pair)
    k = _high_class(EXTENDED_METHOD, "i", i, cfg.d)
    scale, dn, nums = _over(cfg.delta, u + v)
    series = sum(map(max, nums[:cfg.d], nums[cfg.d:]))
    sub = 0 if k is None else sum(nums[cfg.d + k::i])
    return scale + dn + series - sub, 2 * scale


def _replay_geometry(cfg, witness):
    # delta + max(1, W) - S, over scale; each subset lists distinct classes
    keys = ("I", "Ip", "Ipp")
    d, weights, entries = cfg.d, [], []
    for vec, key, classes in zip((cfg.a, cfg.b, cfg.c), keys, _fields("geometry", witness, *keys)):
        if not isinstance(classes, (list, tuple)):
            raise ValueError(f"geometry witness: {key} = {classes!r} is not a list of classes")
        entries += [vec[_class_index("geometry", key, i, d)] for i in classes]
        if len(set(classes)) < len(classes):
            raise ValueError(f"geometry witness: {key} = {classes!r} repeats a class")
        weights += classes
    scale, dn, nums = _over(cfg.delta, entries)
    return dn + max(scale, sum(map(mul, weights, nums))) - sum(nums), scale


def _replay_determinant(cfg, witness):
    # over scale * p * q, min(u_p / q, v_q / p) is min(U * p, V * q)
    pair, p, q = _fields("determinant", witness, "pair", "p", "q")
    u, v = _pair_of("determinant", cfg, pair)
    scale, dn, (up, vq) = _over(cfg.delta, (u[_class_index("determinant", "p", p, cfg.d)],
                                            v[_class_index("determinant", "q", q, cfg.d)]))
    pq = p * q
    return (scale + dn - up - vq) * pq + min(up * p, vq * q), scale * pq


def _replay_thue(cfg, witness):
    pair, p = _fields("thue", witness, "pair", "p")
    if pair is None and p is None:  # nothing pooled
        scale, dn, _ = _over(cfg.delta, ())
        return scale + dn, scale
    u, v = _pair_of("thue", cfg, pair)
    k = _class_index("thue", "p", p, cfg.d, 2)
    scale, dn, nums = _over(cfg.delta, u[k::p] + v[k::p])
    return scale + dn - sum(nums), scale


# each method's integer core and its independent replay
_METHODS = {
    "trivial": (_trivial, _replay_trivial),
    "fourier": (_fourier, _replay_fourier),
    "geometry": (_geometry, _replay_geometry),
    "determinant": (_determinant, _replay_determinant),
    "thue": (_thue, _replay_thue),
    EXTENDED_METHOD: (_extended_fourier, _replay_extended_fourier),
}


def evaluate_at(cfg: ExponentConfiguration, method: str, witness: dict) -> Fraction:
    """Replay a bound formula at a pinned witness, exactly.

    For the minimizing methods this reproduces BoundReport.value, which is
    what the report-validity tests assert.  Each call puts delta and the
    entries the witness names (both vectors of the pair for trivial and
    the two fourier methods, the listed classes for geometry, u_p and v_q
    for determinant, the pooled classes for thue) over the lcm of their
    denominators alone, and evaluates the formula in integers; the one
    Fraction it builds is the result.  It shares no code with the integer
    cores, and reads neither cfg.grid nor fast_scale, so it checks them.

    A witness outside the formula's domain is refused with ValueError: one
    that is not a dict of just the method's keys, a pair that does not
    name two different vectors, a class index that is not an int in 1..d
    (in 2..d for fourier's m, extended-fourier's i and thue's p), or a
    geometry subset that repeats a class.  Every refusal but the range of
    a class index names the method.  None for m, i or p subtracts nothing:
    fourier's m and extended-fourier's i may be None only at d = 1, where
    no class 2..d exists, and thue's None p comes with a None pair, at any
    d.
    """
    if method == "best":
        method, witness = _fields("best", witness, "method", "witness")
        if not isinstance(method, str) or method not in _METHODS:
            raise ValueError(f"best witness: unknown method {method!r}")
    elif method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    return Fraction(*_METHODS[method][1](cfg, witness))


# --- bulk search on a caller's grid --------------------------------------------


def _lower_bounds(vecs, dn, scale) -> dict[str, tuple[int, int]]:
    """Lower bounds (numerator, denominator) on the trivial, fourier,
    determinant and thue cores' values, in O(d) from each vector's sum T,
    maximum M and class-1 entry:

      trivial      the least T_u + T_v over pairs: its exact value
      fourier      (1 + delta + the second least T - M) / 2: with m the
                   subtracted class, sum_{i != m} max(u_i, v_i) is at least
                   T_u - M_u and T_v - M_v
      determinant  1 + delta minus the two largest maxima, since
                   min(u_p / q, v_q / p) >= 0
      thue         1 + delta minus the two largest T - (class-1 entry): no
                   class p >= 2 pools class 1
    """
    a, b, c = vecs
    ta, tb, tc = sum(a), sum(b), sum(c)
    ma, mb, mc = max(a), max(b), max(c)
    head = scale + dn
    rest = sorted((ta - ma, tb - mb, tc - mc))
    tops = sorted((ma, mb, mc))
    pooled = sorted((ta - a[0], tb - b[0], tc - c[0]))
    return {"trivial": (ta + tb + tc - max(ta, tb, tc), scale),
            "fourier": (head + rest[1], 2 * scale),
            "determinant": (head - tops[1] - tops[2], scale),
            "thue": (head - pooled[1] - pooled[2], scale)}


def _greedy_cover(entries: Sequence[tuple[int, ...]], target: int) -> int:
    """An upper bound on the cover minimum of _cover_branch_bound in O(d):
    max(target, W) - S at one subset triple.

    The triple takes every class-1 entry, then whole classes in rate order
    while each leaves some deficit.  In the class that would cover it, it
    takes entries largest first, and ends either at the entry that covers
    the deficit or just before it, whichever is cheaper: the best prefix of
    that order, the empty one (nothing beyond class 1) included, since
    before that entry each entry taken lowers the value."""
    a, b, c = entries
    rem = target - a[0] - b[0] - c[0]
    if rem <= 0:
        return 0
    cost = 0
    for i in range(2, len(a) + 1):
        col = (a[i - 1], b[i - 1], c[i - 1])
        s = col[0] + col[1] + col[2]
        if i * s < rem:
            cost += (i - 1) * s
            rem -= i * s
            continue
        for v in sorted(col, reverse=True):
            if i * v >= rem:
                return cost + min(rem, (i - 1) * v)
            cost += (i - 1) * v
            rem -= i * v
    return cost + rem


def _cover_limit(limit: int, names, values, dn: int, scale: int) -> int:
    """The largest cover c, at most limit, with (dn + c) / scale below the
    value num / den of values[name] for each name listed before geometry
    and at most it for each one after: a cover under it makes geometry
    the winner."""
    strict = True
    for name in names:
        if name == "geometry":
            strict = False
            continue
        num, den = values[name]
        limit = min(limit, (num * scale - strict) // den - dn)
    return limit


def fast_best(
    vecs: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]],
    delta_num: int,
    scale: int,
    methods: Sequence[str] | None = None,
    *,
    floor: tuple[int, int] | None = None,
) -> tuple[int, int, str]:
    """Exact best bound over integer-grid entries: (numerator, denominator,
    winning method).

    ``vecs`` holds the three entry vectors as numerators over ``scale``;
    ``delta_num`` is delta on the same scale.  Ties go to the method listed
    first, as in best_bound, whose evaluators run the same cores.

    ``floor = (num, den)`` is for callers that only need to know whether
    the minimum reaches num/den.  The method name is always exact, and so
    is the value whenever it is >= the floor.  Below the floor the value
    may be any upper bound v on the minimum with v < floor.  When geometry
    is listed, a floor runs three stages, each only if the one before could
    not decide:

    1. O(d): _lower_bounds gives trivial's value and bounds fourier,
       determinant and thue from below from sums and maxima; a method
       with no such bound (extended-fourier) runs its exact core.
       Geometry wins, at _greedy_cover's value, if that cover is under the
       cap these values and the floor leave.
    2. Every method but determinant runs its exact core, determinant
       keeps its O(d) bound, and geometry's search stops at the first
       subset triple under the cap they leave.
    3. The exact minimum over every listed method.

    A cover under the cap is below the floor and wins, since each bound is
    at most its method's value.  The cap is strict for the floor and the
    methods listed before geometry, non-strict for those after it.  Stage
    1 decides most samples of a region search, where geometry usually
    wins by a margin.
    """
    names = METHOD_NAMES if methods is None else methods
    values: dict[str, tuple[int, int]] = {}  # name: exact (num, den)
    if floor is not None and "geometry" in names:
        top = (floor[0] * scale - 1) // floor[1] - delta_num  # the floor's cap
        lower = _lower_bounds(vecs, delta_num, scale)
        for name in names:
            if name != "geometry" and name not in lower:
                values[name] = _METHODS[name][0](vecs, delta_num, scale)[:2]
        cover = _greedy_cover(vecs, scale)
        if cover <= _cover_limit(top, names, {**lower, **values}, delta_num, scale):
            return delta_num + cover, scale, "geometry"
        for name in names:
            if name not in values and name not in ("geometry", "determinant"):
                values[name] = _METHODS[name][0](vecs, delta_num, scale)[:2]
        limit = _cover_limit(top, names, {**values, "determinant": lower["determinant"]},
                             delta_num, scale)
        cover, _ = _cover_branch_bound(vecs, scale, stop_at=limit)
        if cover <= limit:
            return delta_num + cover, scale, "geometry"
        values["geometry"] = (delta_num + cover, scale)
    best = None  # (num, den, name)
    for name in names:
        num, den = values.get(name) or _METHODS[name][0](vecs, delta_num, scale)[:2]
        if best is None or num * best[1] < best[0] * den:
            best = (num, den, name)
    return best
