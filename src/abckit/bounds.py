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

Every evaluator returns a BoundReport carrying a witness (the minimizing
pair / subsets / indices), and evaluate_at replays the defining formula at
a witness so reports can be audited independently.  All values are exact
Fractions; the geometry subset search runs in integer arithmetic on a
common denominator, by branch-and-bound (certified: admissible completion
bounds, searched to exhaustion) or by full enumeration for cross-checks.

For bulk search work there is a value-only fast path over integer grids
(fast_best), tested to agree with the canonical evaluators.  Given a
floor, fast_best may stop a geometry search early: the winning method
stays exact, and so does any value at or above the floor, while a value
below it is only an upper bound that is itself below the floor.  A
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
_ORDERED_PAIRS = tuple(
    (u, v) for u in VECTOR_NAMES for v in VECTOR_NAMES if u != v
)
_UNORDERED_PAIRS = (("a", "b"), ("a", "c"), ("b", "c"))

METHOD_NAMES = ("trivial", "fourier", "geometry", "determinant", "thue")
EXTENDED_METHOD = "extended-fourier"

DEFAULT_EXHAUSTIVE_LIMIT = 12


class SubsetSearchRefusal(ValueError):
    """Exhaustive geometry enumeration refused: too many power classes."""


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

    # Entry-wise combinations used throughout the case analysis.

    @property
    def class_sums(self) -> tuple[Fraction, ...]:
        """s_i = a_i + b_i + c_i."""
        return tuple(x + y + z for x, y, z in zip(self.a, self.b, self.c))

    @property
    def max_ab(self) -> tuple[Fraction, ...]:
        return tuple(max(x, y) for x, y in zip(self.a, self.b))

    @property
    def min_ab(self) -> tuple[Fraction, ...]:
        return tuple(min(x, y) for x, y in zip(self.a, self.b))

    @property
    def sum_bc(self) -> tuple[Fraction, ...]:
        return tuple(y + z for y, z in zip(self.b, self.c))

    def sorted_by_third(self) -> "ExponentConfiguration":
        """Relabel the vectors so the third entries are non-increasing.

        The bound evaluators are symmetric under relabeling, so this is a
        harmless normal form for case-by-case exploration.  Constraint
        checking is *not* symmetric (the c vector carries its own window),
        so never feed the relabeled configuration back into it.
        """
        if self.d < 3:
            raise ValueError("sorted_by_third needs at least three classes")
        vecs = sorted(
            (self.vector(n) for n in VECTOR_NAMES),
            key=lambda v: v[2],
            reverse=True,
        )
        return ExponentConfiguration(
            d=self.d, a=vecs[0], b=vecs[1], c=vecs[2],
            delta=self.delta, epsilon=self.epsilon,
        )


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: method tag, exact value, minimizing witness."""

    method: str
    value: Fraction
    witness: dict


# --- canonical evaluators ------------------------------------------------------


def trivial_bound(cfg: ExponentConfiguration) -> BoundReport:
    """min over vector pairs of the two entry sums."""
    best_pair, best = None, None
    for u, v in _UNORDERED_PAIRS:
        val = cfg.total(u) + cfg.total(v)
        if best is None or val < best:
            best, best_pair = val, (u, v)
    return BoundReport("trivial", best, {"pair": list(best_pair)})


def _fourier_value(cfg, u, v):
    uv, vv = cfg.vector(u), cfg.vector(v)
    series = sum((max(x, y) for x, y in zip(uv, vv)), Fraction(0))
    sub, m_at = Fraction(0), None
    for m in range(2, cfg.d + 1):
        cand = max(uv[m - 1], vv[m - 1])
        if m_at is None or cand > sub:
            sub, m_at = cand, m
    return (1 + cfg.delta + series - sub) / 2, m_at


def fourier_bound(cfg: ExponentConfiguration) -> BoundReport:
    """(1 + delta + sum of entrywise maxima - largest high-class maximum) / 2,
    minimized over vector pairs.  The subtracted term is 0 when d < 2."""
    best, best_pair, best_m = None, None, None
    # symmetric in (u, v): (v, u) never beats the earlier (u, v)
    for u, v in _UNORDERED_PAIRS:
        val, m_at = _fourier_value(cfg, u, v)
        if best is None or val < best:
            best, best_pair, best_m = val, (u, v), m_at
    return BoundReport("fourier", best, {"pair": list(best_pair), "m": best_m})


def extended_fourier_bound(cfg: ExponentConfiguration) -> BoundReport:
    """Fourier variant subtracting half of a pooled divisor class
    sum_{j = 0 mod i} w_j of the second vector; never above plain fourier."""
    best, best_pair, best_i = None, None, None
    for u, v in _ORDERED_PAIRS:
        uv, vv = cfg.vector(u), cfg.vector(v)
        series = sum((max(x, y) for x, y in zip(uv, vv)), Fraction(0))
        sub, i_at = Fraction(0), None
        for i in range(2, cfg.d + 1):
            cand = sum((vv[j - 1] for j in range(i, cfg.d + 1, i)), Fraction(0))
            if i_at is None or cand > sub:
                sub, i_at = cand, i
        val = (1 + cfg.delta + series - sub) / 2
        if best is None or val < best:
            best, best_pair, best_i = val, (u, v), i_at
    return BoundReport(EXTENDED_METHOD, best, {"pair": list(best_pair), "i": best_i})


def determinant_bound(cfg: ExponentConfiguration) -> BoundReport:
    """1 + delta - u_p - v_q + min(u_p / q, v_q / p), minimized over ordered
    vector pairs and class indices p, q.

    Swapping (u, p) with (v, q) leaves the term unchanged, so the pair (v, u)
    repeats the values of the earlier (u, v) and only unordered pairs are
    scanned; the first minimizer, and so the witness, is the same."""
    best, best_w = None, None
    for u, v in _UNORDERED_PAIRS:
        uv, vv = cfg.vector(u), cfg.vector(v)
        for p in range(1, cfg.d + 1):
            up = uv[p - 1]
            for q in range(1, cfg.d + 1):
                vq = vv[q - 1]
                val = 1 + cfg.delta - up - vq + min(up / q, vq / p)
                if best is None or val < best:
                    best, best_w = val, {"pair": [u, v], "p": p, "q": q}
    return BoundReport("determinant", best, best_w)


def thue_bound(cfg: ExponentConfiguration) -> BoundReport:
    """1 + delta - (largest pooled class sum_{p | i} (u_i + v_i) over vector
    pairs and p >= 2); just 1 + delta when d < 2."""
    best_sub, best_w = Fraction(0), {"pair": None, "p": None}
    for u, v in _UNORDERED_PAIRS:
        uv, vv = cfg.vector(u), cfg.vector(v)
        for p in range(2, cfg.d + 1):
            cand = sum(
                (uv[i - 1] + vv[i - 1] for i in range(p, cfg.d + 1, p)),
                Fraction(0),
            )
            if cand > best_sub:
                best_sub, best_w = cand, {"pair": [u, v], "p": p}
    return BoundReport("thue", 1 + cfg.delta - best_sub, best_w)


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
    all taken.  Remaining items are searched cheapest-rate-first with the
    admissible completion bound cost + deficit * (min remaining w/u); the
    search runs to exhaustion, so the result is the certified optimum.
    ``track=False`` skips witness bookkeeping for bulk-search callers.

    ``stop_at`` ends the search as soon as the incumbent is <= stop_at.
    The value returned then lies between the optimum and stop_at (the
    masks attain it); when no subset triple gets that low the search runs
    to exhaustion and returns the optimum, as without it.
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

    def dfs(k: int, cost: int, rem: int, chosen: tuple[int, ...]):
        nonlocal best_cost, best_sets
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


def geometry_bound(
    cfg: ExponentConfiguration,
    *,
    mode: str = "branch-and-bound",
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> BoundReport:
    """delta + min over class subsets I, I', I'' of max(1, W) - S.

    W weights each selected entry by its class index; S is the plain sum.
    Both modes return the certified optimum; 'exhaustive' enumerates all
    2**(3d) subset triples and refuses when d exceeds exhaustive_limit.
    """
    if mode not in ("branch-and-bound", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    scale = lcm(*(f.denominator for vec in (cfg.a, cfg.b, cfg.c) for f in vec), 1)
    entries = tuple(
        tuple(int(f * scale) for f in cfg.vector(name)) for name in VECTOR_NAMES
    )
    if mode == "exhaustive":
        if cfg.d > exhaustive_limit:
            raise SubsetSearchRefusal(
                f"exhaustive subset search over d = {cfg.d} classes exceeds "
                f"the limit {exhaustive_limit}"
            )
        val, masks = _cover_exhaustive(entries, scale)
    else:
        val, masks = _cover_branch_bound(entries, scale)
    witness = {
        "I": _mask_to_classes(masks[0]),
        "Ip": _mask_to_classes(masks[1]),
        "Ipp": _mask_to_classes(masks[2]),
    }
    return BoundReport("geometry", cfg.delta + Fraction(val, scale), witness)


# --- combined bound ------------------------------------------------------------

_EVALUATORS = {
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
    extended: bool = False,
    geometry_mode: str = "branch-and-bound",
) -> BoundReport:
    """Minimum of the selected bounds (all five by default).

    ``extended`` adds the extended fourier variant.  If the geometry
    evaluator refuses (exhaustive mode over the class limit) the minimum
    is taken over the rest and the witness is flagged geometry_skipped.
    """
    names = list(METHOD_NAMES if methods is None else methods)
    for name in names:
        if name not in _EVALUATORS or name == EXTENDED_METHOD:
            raise ValueError(f"unknown method {name!r}")
    if extended:
        names.append(EXTENDED_METHOD)
    skipped = False
    best = None
    for name in names:
        if name == "geometry":
            try:
                rep = geometry_bound(cfg, mode=geometry_mode)
            except SubsetSearchRefusal:
                skipped = True
                continue
        else:
            rep = _EVALUATORS[name](cfg)
        if best is None or rep.value < best.value:
            best = rep
    if best is None:
        raise ValueError("no bound method could be evaluated")
    witness = {"method": best.method, "witness": best.witness}
    if skipped:
        witness["geometry_skipped"] = True
    return BoundReport("best", best.value, witness)


def evaluate_at(cfg: ExponentConfiguration, method: str, witness: dict) -> Fraction:
    """Replay a bound formula at a pinned witness, exactly.

    For the minimizing methods this reproduces BoundReport.value, which is
    what the report-validity tests assert.
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


# --- value-only fast path on integer grids -------------------------------------
#
# The search loops evaluate millions of configurations; building Fractions
# there would dominate the runtime.  These twins take entry numerators on a
# shared integer scale and return exact (numerator, denominator) pairs.
# They are separate implementations on purpose, and the test suite pins
# them against the canonical evaluators on random grid configurations.


def _fast_trivial(vecs, dn, scale):
    ta, tb, tc = (sum(v) for v in vecs)
    return min(ta + tb, ta + tc, tb + tc), scale


def _fast_fourier(vecs, dn, scale):
    d = len(vecs[0])
    best = None
    for ui in range(3):
        for vi in range(ui + 1, 3):
            u, v = vecs[ui], vecs[vi]
            series = 0
            sub = 0
            for i in range(d):
                m = u[i] if u[i] >= v[i] else v[i]
                series += m
                if i >= 1 and m > sub:
                    sub = m
            t = scale + dn + series - sub
            if best is None or t < best:
                best = t
    return best, 2 * scale


def _fast_extended_fourier(vecs, dn, scale):
    d = len(vecs[0])
    best = None
    for ui in range(3):
        for vi in range(3):
            if ui == vi:
                continue
            u, v = vecs[ui], vecs[vi]
            series = 0
            for i in range(d):
                series += u[i] if u[i] >= v[i] else v[i]
            sub = 0
            for i in range(2, d + 1):
                cand = 0
                for j in range(i, d + 1, i):
                    cand += v[j - 1]
                if cand > sub:
                    sub = cand
            t = scale + dn + series - sub
            if best is None or t < best:
                best = t
    return best, 2 * scale


def _fast_geometry(vecs, dn, scale):
    val, _ = _cover_branch_bound(vecs, scale, track=False)
    return dn + val, scale


def _fast_determinant(vecs, dn, scale):
    d = len(vecs[0])
    L = lcm(*range(1, d + 1))
    head = (scale + dn) * L
    best = None
    for ui in range(3):
        for vi in range(ui + 1, 3):  # symmetric, as in determinant_bound
            u, v = vecs[ui], vecs[vi]
            for p in range(1, d + 1):
                up = u[p - 1]
                upl = up * L
                for q in range(1, d + 1):
                    vq = v[q - 1]
                    lo = upl // q
                    alt = vq * L // p
                    if alt < lo:
                        lo = alt
                    t = head - (up + vq) * L + lo
                    if best is None or t < best:
                        best = t
    return best, scale * L


def _fast_thue(vecs, dn, scale):
    d = len(vecs[0])
    sub = 0
    for ui in range(3):
        for vi in range(ui + 1, 3):
            u, v = vecs[ui], vecs[vi]
            for p in range(2, d + 1):
                cand = 0
                for i in range(p, d + 1, p):
                    cand += u[i - 1] + v[i - 1]
                if cand > sub:
                    sub = cand
    return scale + dn - sub, scale


_FAST = {
    "trivial": _fast_trivial,
    "fourier": _fast_fourier,
    "geometry": _fast_geometry,
    "determinant": _fast_determinant,
    "thue": _fast_thue,
    EXTENDED_METHOD: _fast_extended_fourier,
}


def _determinant_floor(vecs, dn, scale):
    """A lower bound on _fast_determinant in O(d): min(u_p/q, v_q/p) >= 0,
    so every term is at least 1 + delta minus the two largest vector maxima."""
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
            num, den = values[name] = _FAST[name](vecs, dn, scale)
        limit = min(limit, cap(num, den, not after))
    cover, _ = _cover_branch_bound(vecs, scale, track=False, stop_at=limit)
    if cover <= limit:
        return dn + cover, scale, "geometry"
    values["geometry"] = (dn + cover, scale)
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
    first, matching best_bound's canonical order.

    ``floor = (num, den)`` is for callers that only need to know whether
    the minimum reaches num/den.  The method name is always exact, and so
    is the value whenever it is >= the floor.  Below the floor the value
    may be any upper bound v on the minimum with v < floor: when geometry
    wins, its search stops at the first subset triple that proves both.
    """
    names = METHOD_NAMES if methods is None else methods
    values: dict[str, tuple[int, int]] = {}
    if floor is not None and "geometry" in names:
        hit = _geometry_below(vecs, delta_num, scale, names, floor, values)
        if hit is not None:
            return hit
    best = None  # (num, den, name)
    for name in names:
        num, den = values.get(name) or _FAST[name](vecs, delta_num, scale)
        if best is None or num * best[1] < best[0] * den:
            best = (num, den, name)
    return best


def fast_scale(cfg: ExponentConfiguration, grid: int) -> tuple:
    """Entry numerators of cfg on the given grid, for fast_best.

    Raises ValueError if any entry or delta is off-grid; callers fall back
    to the canonical evaluators in that case.
    """
    out = []
    for name in VECTOR_NAMES:
        row = []
        for f in cfg.vector(name):
            n = f * grid
            if n.denominator != 1:
                raise ValueError(f"entry {f} not representable on grid {grid}")
            row.append(n.numerator)
        out.append(tuple(row))
    dn = cfg.delta * grid
    if dn.denominator != 1:
        raise ValueError(f"delta {cfg.delta} not representable on grid {grid}")
    return tuple(out), dn.numerator
