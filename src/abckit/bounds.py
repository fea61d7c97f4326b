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
pair / subsets / indices).  The public evaluators put a configuration on
the grid of its own denominators, run the core and return a BoundReport
with an exact Fraction; fast_best runs the same cores on a caller's grid
for bulk search.  Two independent checks stay beside the cores:
evaluate_at replays a defining formula at a witness in Fraction
arithmetic, and the geometry subset search, by branch-and-bound, can be
cross-checked by full enumeration.

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

Given a floor, fast_best may stop a geometry search early: the winning
method stays exact, and so does any value at or above the floor, while a
value below it is only an upper bound that is itself below the floor.  A
search for the largest value never keeps such a sample, so its result is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Rat = Fraction | int

VECTOR_NAMES = ("a", "b", "c")

METHOD_NAMES = ("trivial", "fourier", "geometry", "determinant", "thue")
EXTENDED_METHOD = "extended-fourier"

EXHAUSTIVE_LIMIT = 12  # most classes geometry_bound(mode="exhaustive") takes
# most items (nonzero entries of class >= 2) the cover search takes: it
# recurses once per item, and this stays clear of the default recursion
# limit of 1000 with room for the caller's frames
COVER_ITEM_LIMIT = 750


class SubsetSearchRefusal(ValueError):
    """Geometry subset search refused: too many power classes for the
    exhaustive enumeration, or too many items for the cover search."""


def _rat_tuple(values: Iterable[Rat]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class ExponentConfiguration:
    """Three exponent vectors over d power classes, with slacks.

    Entries are non-negative rationals; delta >= 0 and epsilon >= 0 are
    the additive slack and the localization parameter carried alongside.
    """

    d: int
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    delta: Fraction = Fraction(0)
    epsilon: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a", _rat_tuple(self.a))
        object.__setattr__(self, "b", _rat_tuple(self.b))
        object.__setattr__(self, "c", _rat_tuple(self.c))
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.d < 1:
            raise ValueError("d must be >= 1")
        for name in VECTOR_NAMES:
            vec = getattr(self, name)
            if len(vec) != self.d:
                raise ValueError(f"vector {name} must have d = {self.d} entries")
            if any(x < 0 for x in vec):
                raise ValueError(f"vector {name} has a negative entry")
        if self.delta < 0 or self.epsilon < 0:
            raise ValueError("delta and epsilon must be non-negative")

    def vector(self, name: str) -> tuple[Fraction, ...]:
        if name not in VECTOR_NAMES:
            raise KeyError(f"no vector named {name!r}")
        return getattr(self, name)

    def total(self, name: str) -> Fraction:
        return sum(self.vector(name), Fraction(0))

    @property
    def totals(self) -> tuple[Fraction, Fraction, Fraction]:
        return self.total("a"), self.total("b"), self.total("c")

    # Deviations of each entry sum from 1/3, and their combinations.

    def slack(self, name: str) -> Fraction:
        """1/3 - Sum(vector): positive when the vector runs light."""
        return Fraction(1, 3) - self.total(name)

    @property
    def slack_ab(self) -> Fraction:
        return self.slack("a") + self.slack("b")

    @property
    def slack_ac(self) -> Fraction:
        return self.slack("a") + self.slack("c")

    @property
    def slack_bc(self) -> Fraction:
        return self.slack("b") + self.slack("c")

    @property
    def slack_total(self) -> Fraction:
        """1 - (sum of all three entry sums)."""
        return self.slack("a") + self.slack("b") + self.slack("c")

    @property
    def class_sums(self) -> tuple[Fraction, ...]:
        """s_i = a_i + b_i + c_i."""
        return tuple(x + y + z for x, y, z in zip(self.a, self.b, self.c))


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


def _extended_fourier(vecs, dn, scale):
    d = len(vecs[0])
    # per vector: its largest pooled divisor class, and the first i >= 2 at it
    pooled = []
    for v in vecs:
        sums = [sum(v[i - 1::i]) for i in range(2, d + 1)]
        top = max(sums, default=0)
        pooled.append((top, sums.index(top) + 2 if sums else None))
    best = None
    for ui in range(3):
        for vi in range(3):
            if ui == vi:
                continue
            u, v = vecs[ui], vecs[vi]
            series = 0
            for i in range(d):
                series += u[i] if u[i] >= v[i] else v[i]
            sub, i_at = pooled[vi]
            t = scale + dn + series - sub
            if best is None or t < best:
                best, witness = t, {"pair": _pair(ui, vi), "i": i_at}
    return best, 2 * scale, witness


def _determinant(vecs, dn, scale):
    # over scale * L, L = lcm(1..d), both u_p / q and v_q / p are integers
    d = len(vecs[0])
    L = lcm(*range(1, d + 1))
    head = (scale + dn) * L
    best = None
    for ui in range(3):
        for vi in range(ui + 1, 3):
            for p, up in enumerate(vecs[ui], 1):
                upl = up * L
                for q, vq in enumerate(vecs[vi], 1):
                    lo = upl // q
                    alt = vq * L // p
                    if alt < lo:
                        lo = alt
                    t = head - upl - vq * L + lo
                    if best is None or t < best:
                        best, at = t, (ui, vi, p, q)
    ui, vi, p, q = at
    return best, scale * L, {"pair": _pair(ui, vi), "p": p, "q": q}


def _thue(vecs, dn, scale):
    d = len(vecs[0])
    sub, at = 0, None
    for ui in range(3):
        for vi in range(ui + 1, 3):
            u, v = vecs[ui], vecs[vi]
            for p in range(2, d + 1):
                pooled = sum(u[p - 1::p]) + sum(v[p - 1::p])
                if pooled > sub:
                    sub, at = pooled, (ui, vi, p)
    if at is None:  # nothing pooled: just 1 + delta
        return scale + dn, scale, {"pair": None, "p": None}
    ui, vi, p = at
    return scale + dn - sub, scale, {"pair": _pair(ui, vi), "p": p}


# --- geometry: integer subset search ------------------------------------------


def _cover_exhaustive(entries: Sequence[tuple[int, ...]], target: int):
    """Minimize max(target, W) - S over all subset triples, by enumeration.

    entries: per vector, the scaled integer entries.  Returns
    (best_value_scaled, masks).
    """
    per_vec = []
    for vec in entries:
        sums = []
        n = len(vec)
        for mask in range(1 << n):
            w = s = 0
            m = mask
            i = 0
            while m:
                if m & 1:
                    w += (i + 1) * vec[i]
                    s += vec[i]
                m >>= 1
                i += 1
            sums.append((w, s, mask))
        per_vec.append(sums)
    best = None
    best_masks = None
    for wa, sa, ma in per_vec[0]:
        for wb, sb, mb in per_vec[1]:
            wab, sab = wa + wb, sa + sb
            for wc, sc, mc in per_vec[2]:
                w = wab + wc
                val = (w if w > target else target) - (sab + sc)
                if best is None or val < best:
                    best, best_masks = val, (ma, mb, mc)
    return best, best_masks


class _Reached(Exception):
    """Ends a cover search whose incumbent has reached its stop_at value."""


def _cover_branch_bound(
    entries: Sequence[tuple[int, ...]],
    target: int,
    *,
    track: bool = True,
    stop_at: int | None = None,
):
    """Same minimum as _cover_exhaustive, by branch-and-bound.

    Items with class 1 cost nothing and only help coverage, so they are
    all taken.  A class-i item of entry v costs w = (i - 1) v and covers
    u = i v.  The others are searched depth first in rate order (class,
    then larger coverage first), taking an item before skipping it; a
    node whose deficit rem is covered (rem <= 0) or whose items have run
    out is a leaf worth cost + max(rem, 0).

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
    certified optimum.  ``track=False`` skips witness bookkeeping for
    bulk-search callers.

    A new incumbent needs a leaf strictly below the current one, and a
    pruned subtree holds none, so every admissible bound visits the same
    record leaves in the same order: the first optimum in search order
    and its masks do not depend on which bound prunes.

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
    if len(items) > COVER_ITEM_LIMIT:
        raise SubsetSearchRefusal(
            f"cover search over {len(items)} items (nonzero entries of class "
            f">= 2) exceeds the limit {COVER_ITEM_LIMIT}"
        )
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
    nodes = 0

    def prunable(k: int, budget: int, rem: int) -> bool:
        """Whether every completion from item k of a node with deficit rem
        adds at least budget to its cost: the overshoot bound and the
        fractional fill are both >= budget."""
        fill, left = 0, rem  # the fill's cost so far, and the deficit left
        for j in range(k, n):
            i, w, u, _, _ = items[j]
            if u >= rem:
                if w < budget:
                    return False
            elif left:
                if u < left:
                    fill += w
                    left -= u
                else:  # the fill ends in this item: fill + left * (i - 1)/i
                    if fill * i + left * (i - 1) < budget * i:
                        return False
                    left = 0
        return not left or fill + left >= budget

    def dfs(k: int, cost: int, rem: int, chosen: tuple[int, ...]):
        nonlocal best_cost, best_sets, nodes
        if rem <= 0 or k == n:
            total = cost + (rem if rem > 0 else 0)
            if total < best_cost:
                best_cost, best_sets = total, chosen
                if total <= stop:
                    raise _Reached
            return
        i, w, u, _, _ = items[k]
        # cost + rem * (i - 1)/i >= best_cost, in integers
        if cost * i + rem * (i - 1) >= best_cost * i:
            return
        nodes += 1
        if nodes > scan_after and prunable(k, best_cost - cost, rem):
            return
        dfs(k + 1, cost + w, rem - u, chosen + (k,) if track else chosen)
        dfs(k + 1, cost, rem, chosen)

    if deficit > stop:
        try:
            dfs(0, 0, deficit, ())
        except _Reached:
            pass
    masks = list(taken_masks)
    for k in best_sets:
        _, _, _, vi, ei = items[k]
        masks[vi] |= 1 << ei
    return best_cost, tuple(masks)


def _mask_to_classes(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _geometry(vecs, dn, scale, *, exhaustive: bool = False, track: bool = True):
    """The geometry core; without track the witness is None."""
    if exhaustive:
        cover, masks = _cover_exhaustive(vecs, scale)
    else:
        cover, masks = _cover_branch_bound(vecs, scale, track=track)
    witness = None
    if track:
        witness = {
            key: _mask_to_classes(mask) for key, mask in zip(("I", "Ip", "Ipp"), masks)
        }
    return dn + cover, scale, witness


_CORES = {
    "trivial": _trivial,
    "fourier": _fourier,
    "geometry": _geometry,
    "determinant": _determinant,
    "thue": _thue,
    EXTENDED_METHOD: _extended_fourier,
}


# --- canonical evaluators ------------------------------------------------------


def fast_scale(cfg: ExponentConfiguration, grid: int) -> tuple:
    """Entry numerators of cfg on the given grid, for fast_best.

    Raises ValueError if any entry or delta is off-grid; callers fall back
    to the canonical evaluators in that case.
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


def _report(method: str, core, cfg: ExponentConfiguration, **options) -> BoundReport:
    """Run a core on cfg's own grid, the lcm of all its denominators."""
    scale = lcm(cfg.delta.denominator, *(f.denominator for f in cfg.a + cfg.b + cfg.c))
    vecs, dn = fast_scale(cfg, scale)
    num, den, witness = core(vecs, dn, scale, **options)
    return BoundReport(method, Fraction(num, den), witness)


def trivial_bound(cfg: ExponentConfiguration) -> BoundReport:
    """min over vector pairs of the two entry sums."""
    return _report("trivial", _trivial, cfg)


def fourier_bound(cfg: ExponentConfiguration) -> BoundReport:
    """(1 + delta + sum of entrywise maxima - largest high-class maximum) / 2,
    minimized over vector pairs.  The subtracted term is 0 when d < 2."""
    return _report("fourier", _fourier, cfg)


def extended_fourier_bound(cfg: ExponentConfiguration) -> BoundReport:
    """Fourier variant subtracting half of a pooled divisor class
    sum_{j = 0 mod i} w_j of the second vector; never above plain fourier."""
    return _report(EXTENDED_METHOD, _extended_fourier, cfg)


def determinant_bound(cfg: ExponentConfiguration) -> BoundReport:
    """1 + delta - u_p - v_q + min(u_p / q, v_q / p), minimized over ordered
    vector pairs and class indices p, q.

    The term is symmetric under swapping (u, p) with (v, q), so only
    unordered pairs are scanned; the first minimizer is the same."""
    return _report("determinant", _determinant, cfg)


def thue_bound(cfg: ExponentConfiguration) -> BoundReport:
    """1 + delta - (largest pooled class sum_{p | i} (u_i + v_i) over vector
    pairs and p >= 2); just 1 + delta when d < 2."""
    return _report("thue", _thue, cfg)


def geometry_bound(
    cfg: ExponentConfiguration, *, mode: str = "branch-and-bound"
) -> BoundReport:
    """delta + min over class subsets I, I', I'' of max(1, W) - S.

    W weights each selected entry by its class index; S is the plain sum.
    Both modes return the certified optimum; 'exhaustive' enumerates all
    2**(3d) subset triples and refuses when d exceeds EXHAUSTIVE_LIMIT, and
    branch-and-bound refuses more than COVER_ITEM_LIMIT items.
    """
    if mode not in ("branch-and-bound", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    exhaustive = mode == "exhaustive"
    if exhaustive and cfg.d > EXHAUSTIVE_LIMIT:
        raise SubsetSearchRefusal(
            f"exhaustive subset search over d = {cfg.d} classes exceeds "
            f"the limit {EXHAUSTIVE_LIMIT}"
        )
    return _report("geometry", _geometry, cfg, exhaustive=exhaustive)


EVALUATORS = {
    "trivial": trivial_bound,
    "fourier": fourier_bound,
    "geometry": geometry_bound,
    "determinant": determinant_bound,
    "thue": thue_bound,
    EXTENDED_METHOD: extended_fourier_bound,
}


def best_bound(
    cfg: ExponentConfiguration,
    *,
    methods: Sequence[str] | None = None,
) -> BoundReport:
    """Minimum of the selected bounds (the five of METHOD_NAMES by default;
    extended-fourier may be listed too).  Ties go to the method listed first.

    The witness names the winning method and holds that method's witness.
    Geometry runs its branch-and-bound search; a refusal there (too many
    items) propagates.
    """
    names = METHOD_NAMES if methods is None else tuple(methods)
    if not names:
        raise ValueError("methods must not be empty")
    for name in names:
        if name not in EVALUATORS:
            raise ValueError(f"unknown method {name!r}")
    best = None
    for name in names:
        # geometry by its module name, so a traced run (bench/layers.py) sees it
        rep = geometry_bound(cfg) if name == "geometry" else EVALUATORS[name](cfg)
        if best is None or rep.value < best.value:
            best = rep
    return BoundReport("best", best.value, {"method": best.method, "witness": best.witness})


def evaluate_at(cfg: ExponentConfiguration, method: str, witness: dict) -> Fraction:
    """Replay a bound formula at a pinned witness, exactly.

    For the minimizing methods this reproduces BoundReport.value, which is
    what the report-validity tests assert.  It shares no code with the
    integer cores, so it checks them.
    """
    if method == "trivial":
        u, v = witness["pair"]
        return cfg.total(u) + cfg.total(v)
    if method == "fourier":
        u, v = witness["pair"]
        uv, vv = cfg.vector(u), cfg.vector(v)
        series = sum((max(x, y) for x, y in zip(uv, vv)), Fraction(0))
        m = witness["m"]
        sub = max(uv[m - 1], vv[m - 1]) if m is not None else Fraction(0)
        return (1 + cfg.delta + series - sub) / 2
    if method == EXTENDED_METHOD:
        u, v = witness["pair"]
        uv, vv = cfg.vector(u), cfg.vector(v)
        series = sum((max(x, y) for x, y in zip(uv, vv)), Fraction(0))
        i = witness["i"]
        sub = (
            sum((vv[j - 1] for j in range(i, cfg.d + 1, i)), Fraction(0))
            if i is not None
            else Fraction(0)
        )
        return (1 + cfg.delta + series - sub) / 2
    if method == "geometry":
        w = s = Fraction(0)
        for name, key in zip(VECTOR_NAMES, ("I", "Ip", "Ipp")):
            vec = cfg.vector(name)
            for i in witness[key]:
                w += i * vec[i - 1]
                s += vec[i - 1]
        return cfg.delta + max(Fraction(1), w) - s
    if method == "determinant":
        u, v = witness["pair"]
        up = cfg.vector(u)[witness["p"] - 1]
        vq = cfg.vector(v)[witness["q"] - 1]
        return 1 + cfg.delta - up - vq + min(up / witness["q"], vq / witness["p"])
    if method == "thue":
        if witness["p"] is None:
            return 1 + cfg.delta
        u, v = witness["pair"]
        uv, vv = cfg.vector(u), cfg.vector(v)
        sub = sum(
            (uv[i - 1] + vv[i - 1] for i in range(witness["p"], cfg.d + 1, witness["p"])),
            Fraction(0),
        )
        return 1 + cfg.delta - sub
    if method == "best":
        return evaluate_at(cfg, witness["method"], witness["witness"])
    raise ValueError(f"unknown method {method!r}")


# --- bulk search on a caller's grid --------------------------------------------


def _run(name: str, vecs, dn, scale):
    """A core's (num, den, witness); geometry skips its witness bookkeeping."""
    if name == "geometry":
        return _geometry(vecs, dn, scale, track=False)
    return _CORES[name](vecs, dn, scale)


def _determinant_floor(vecs, dn, scale):
    """A lower bound on the determinant core's value in O(d):
    min(u_p/q, v_q/p) >= 0, so every term is at least 1 + delta minus the
    two largest vector maxima."""
    tops = sorted(max(v) for v in vecs)
    return scale + dn - tops[1] - tops[2], scale


def _geometry_below(vecs, dn, scale, names, floor, values):
    """fast_best's early exit: (num, den, "geometry") when geometry wins and
    some subset triple shows it below ``floor``, else None.

    Every method but geometry and determinant is evaluated exactly and
    determinant through _determinant_floor; together with the floor they
    cap the cover value geometry may take: strictly below the methods
    listed before it (ties go to the first listed), at most the ones after
    it, and strictly below the floor.  The cover search stops at the first
    subset triple under that cap.  The exact values computed on the way,
    geometry's too when its search runs to exhaustion, are left in
    ``values``.
    """

    def cap(num, den, strict):
        # largest cover c with (dn + c) / scale < num / den, or <= if not strict
        return (num * scale - strict) // den - dn

    limit = cap(*floor, True)
    after = False
    for name in names:
        if name == "geometry":
            after = True
            continue
        if name == "determinant":
            num, den = _determinant_floor(vecs, dn, scale)
        else:
            num, den, _ = values[name] = _CORES[name](vecs, dn, scale)
        limit = min(limit, cap(num, den, not after))
    cover, _ = _cover_branch_bound(vecs, scale, track=False, stop_at=limit)
    if cover <= limit:
        return dn + cover, scale, "geometry"
    values["geometry"] = (dn + cover, scale, None)
    return None


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
    may be any upper bound v on the minimum with v < floor: when geometry
    wins, its search stops at the first subset triple that proves both.
    """
    names = METHOD_NAMES if methods is None else methods
    values: dict[str, tuple] = {}  # name: (num, den, witness)
    if floor is not None and "geometry" in names:
        hit = _geometry_below(vecs, delta_num, scale, names, floor, values)
        if hit is not None:
            return hit
    best = None  # (num, den, name)
    for name in names:
        num, den, _ = values.get(name) or _run(name, vecs, delta_num, scale)
        if best is None or num * best[1] < best[0] * den:
            best = (num, den, name)
    return best
