"""Feasible-region machinery: constraint checking, sampling, and the
falsification search for the 0.66 exponent threshold.

The feasible region lives in the space of ExponentConfigurations.  Writing
T_a, T_b, T_c for the entry sums, the defining constraints are

  C1  weighted sums:  sum(i * a_i) <= 1,  sum(i * b_i) <= 1,
                      1 - eps^2 <= sum(i * c_i) <= 1
  C2  pairwise totals:  T_u + T_v >= 0.66 - eps^2  for each pair
  C3  grand total:      T_a + T_b + T_c <= 1 + delta - eps
  C4  each total:       0.32 - delta <= T_v <= 0.34 + delta - eps/2

plus derived ranges R1-R3 on the deviations from 1/3 (reported, but not
part of feasibility).  Everything is exact; the sampler works on an
integer lattice (entries are multiples of 1/scale) so window membership
is plain integer comparison and results are reproducible bit for bit.

maximize_nu is a falsification search, not a proof: it samples the region
(including targeted corner generators near the tight boundary structures),
hill-climbs the best samples, and reports the maximum of best_bound it
managed to find.  A certified supremum over the polytope is out of scope.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from random import Random
from typing import Sequence

from .bounds import (
    EXTENDED_METHOD,
    METHOD_NAMES,
    ExponentConfiguration,
    best_bound,
    fast_best,
)
from .cases import TRIANGLE_VERTICES
from .exact import format_rational

F = Fraction

BASE_GRID = 3_000_000  # divisible by every denominator the windows use

# Exact window constants.
TOTAL_LOW = F(8, 25)  # 0.32
TOTAL_HIGH = F(17, 50)  # 0.34
PAIR_LOW = F(33, 50)  # 0.66
GRAND_CAP = F(1)
SLACK_LOW = F(-1, 150)  # -0.00666...
SLACK_HIGH = F(1, 75)  # 0.01333...
PAIR_SLACK_HIGH = F(1, 150)
TOTAL_SLACK_HIGH = F(1, 100)

DEFAULT_THRESHOLD = F(33, 50)


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


@dataclass(frozen=True)
class ConstraintRecord:
    """One atomic inequality: non-negative slack means satisfied (strict
    inequalities need positive slack)."""

    name: str
    satisfied: bool
    slack: Fraction
    strict: bool = False


@dataclass(frozen=True)
class ConstraintReport:
    """All constraint evaluations for one configuration."""

    lam: Fraction
    records: tuple[ConstraintRecord, ...]

    @property
    def feasible(self) -> bool:
        """True when every C-family constraint holds (R's are informational)."""
        return all(r.satisfied for r in self.records if r.name.startswith("C"))

    def record(self, name: str) -> ConstraintRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)


def check_constraints(
    cfg: ExponentConfiguration, lam: Fraction = F(1)
) -> ConstraintReport:
    """Evaluate C1-C4 and R1-R3 exactly; feasibility is C1-C4.

    lam is recorded for reporting only -- it enters the analysis through
    delta (lam < 1 + delta - eps), which the configuration already carries.
    """
    lam = F(lam)
    dl, ep = cfg.delta, cfg.epsilon
    recs: list[ConstraintRecord] = []

    def add(name, slack, strict=False):
        ok = slack > 0 if strict else slack >= 0
        recs.append(ConstraintRecord(name, ok, slack, strict))

    weighted = {
        name: sum(
            (i * x for i, x in enumerate(cfg.vector(name), start=1)), F(0)
        )
        for name in ("a", "b", "c")
    }
    add("C1-weighted-a", 1 - weighted["a"])
    add("C1-weighted-b", 1 - weighted["b"])
    add("C1-weighted-c-upper", 1 - weighted["c"])
    add("C1-weighted-c-lower", weighted["c"] - (1 - ep * ep))
    ta, tb, tc = cfg.totals
    pair_low = PAIR_LOW - ep * ep
    add("C2-ab", ta + tb - pair_low)
    add("C2-ac", ta + tc - pair_low)
    add("C2-bc", tb + tc - pair_low)
    add("C3-grand-total", (GRAND_CAP + dl - ep) - (ta + tb + tc))
    lo, hi = TOTAL_LOW - dl, TOTAL_HIGH + dl - ep / 2
    for name, t in zip(("a", "b", "c"), (ta, tb, tc)):
        add(f"C4-{name}-lower", t - lo)
        add(f"C4-{name}-upper", hi - t)
    for name in ("a", "b", "c"):
        sl = cfg.slack(name)
        add(f"R1-{name}-lower", sl - (SLACK_LOW - dl))
        add(f"R1-{name}-upper", (SLACK_HIGH + dl + ep) - sl)
    pair_slack_hi = PAIR_SLACK_HIGH + ep * ep
    add("R2-ab", pair_slack_hi - cfg.slack_ab)
    add("R2-ac", pair_slack_hi - cfg.slack_ac)
    add("R2-bc", pair_slack_hi - cfg.slack_bc)
    add("R3-lower", cfg.slack_total + dl, strict=True)
    add("R3-upper", (TOTAL_SLACK_HIGH + ep) - cfg.slack_total)
    return ConstraintReport(lam=lam, records=tuple(recs))


# --- integer-lattice windows -----------------------------------------------


@dataclass(frozen=True)
class _Windows:
    """All feasibility thresholds, scaled to integers on the lattice."""

    scale: int
    tot_lo: int
    tot_hi: int
    pair_lo: int
    grand_hi: int
    wc_lo: int
    w_hi: int

    def totals_ok(self, ta: int, tb: int, tc: int) -> bool:
        return (
            ta + tb >= self.pair_lo
            and ta + tc >= self.pair_lo
            and tb + tc >= self.pair_lo
            and ta + tb + tc <= self.grand_hi
        )


def _windows_for(d: int, delta: Fraction, epsilon: Fraction, grid: int | None) -> _Windows:
    dl, ep = F(delta), F(epsilon)
    bounds = [
        TOTAL_LOW - dl,
        TOTAL_HIGH + dl - ep / 2,
        PAIR_LOW - ep * ep,
        GRAND_CAP + dl - ep,
        1 - ep * ep,
    ]
    if grid is None:
        scale = lcm(BASE_GRID, *(b.denominator for b in bounds))
    else:
        scale = grid
    return _Windows(
        scale=scale,
        tot_lo=_ceil(bounds[0] * scale),
        tot_hi=_floor(bounds[1] * scale),
        pair_lo=_ceil(bounds[2] * scale),
        grand_hi=_floor(bounds[3] * scale),
        wc_lo=_ceil(bounds[4] * scale),
        w_hi=scale,
    )


def _weighted(vec: Sequence[int]) -> int:
    return sum(i * x for i, x in enumerate(vec, start=1))


def _vectors_feasible(win: _Windows, vecs) -> bool:
    """Full integer feasibility re-check (used after hill-climb moves)."""
    ta, tb, tc = (sum(v) for v in vecs)
    if not (win.tot_lo <= ta <= win.tot_hi):
        return False
    if not (win.tot_lo <= tb <= win.tot_hi):
        return False
    if not (win.tot_lo <= tc <= win.tot_hi):
        return False
    if not win.totals_ok(ta, tb, tc):
        return False
    if _weighted(vecs[0]) > win.w_hi or _weighted(vecs[1]) > win.w_hi:
        return False
    wc = _weighted(vecs[2])
    return win.wc_lo <= wc <= win.w_hi


def _skeleton(total: int, target_w: int, lo_idx: int, hi_idx: int, d: int) -> list[int]:
    """Composition of `total` on indices [lo_idx, hi_idx] (1-based) with
    weighted sum exactly target_w.  Requires lo_idx*total <= target_w <=
    hi_idx*total."""
    x = [0] * d
    extra = target_w - lo_idx * total
    span = hi_idx - lo_idx
    if span == 0:
        assert extra == 0, "weighted target out of reach at a single index"
        x[lo_idx - 1] = total
        return x
    q, rem = divmod(extra, span)
    x[hi_idx - 1] += q
    base = total - q
    if rem:
        x[lo_idx + rem - 1] += 1
        base -= 1
    x[lo_idx - 1] += base
    return x


def _randint(bits, lo: int, hi: int) -> int:
    """Random.randint(lo, hi) drawn through `bits`, a Random's getrandbits.

    The loop is CPython's _randbelow_with_getrandbits (k is the bit length
    of the width n, not of n - 1; redraw while >= n), so a stream consumes
    the same words and yields the same integers as randint/randrange.
    tests/test_region.py checks the match against the running interpreter.
    """
    n = hi - lo + 1
    if n < 1:
        raise ValueError(f"empty sampling range [{lo}, {hi}]")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return lo + r


def _vector_with(total: int, w_lo: int, w_hi: int, d: int, bits):
    """Random length-d composition of `total` whose weighted sum lands in
    [w_lo, w_hi]; None when impossible.

    Each attempt cuts a random share t_shape of the total into d parts at
    d - 1 uniform cut points (a shape) and places the rest with _skeleton
    so that the weighted sum lands in the window.
    """
    lo = max(w_lo, total)
    hi = min(w_hi, d * total)
    if lo > hi:
        return None
    for _ in range(6):
        t_shape = _randint(bits, 0, total)
        n = t_shape + 1  # _randint(bits, 0, t_shape), inlined for the cuts
        k = n.bit_length()
        cuts = []
        for _ in range(d - 1):
            r = bits(k)
            while r >= n:
                r = bits(k)
            cuts.append(r)
        # the shape's parts are the gaps between the sorted cuts, and their
        # weighted sum telescopes to d * t_shape - sum(cuts)
        w_shape = d * t_shape - sum(cuts)
        t_skel = total - t_shape
        s_lo = max(lo - w_shape, t_skel)
        s_hi = min(hi - w_shape, d * t_skel)
        if s_lo <= s_hi:
            skel = _skeleton(t_skel, _randint(bits, s_lo, s_hi), 1, d, d)
            cuts.sort()
            cuts.append(t_shape)
            prev = 0
            for i, c in enumerate(cuts):
                skel[i] += c - prev
                prev = c
            return skel
    return _skeleton(total, _randint(bits, lo, hi), 1, d, d)


def _draw(win: _Windows, d: int, bits):
    """One feasible (a, b, c) integer-vector triple, or None."""
    # three _randint(bits, tot_lo, tot_hi) per attempt, inlined as offsets
    # from tot_lo; most attempts fail totals_ok, tested here on the offsets
    lo = win.tot_lo
    n = win.tot_hi - lo + 1
    if n < 1:
        raise ValueError(f"empty sampling range [{lo}, {win.tot_hi}]")
    k = n.bit_length()
    pair_lo = win.pair_lo - 2 * lo
    grand_hi = win.grand_hi - 3 * lo
    for _ in range(64):
        oa = bits(k)
        while oa >= n:
            oa = bits(k)
        ob = bits(k)
        while ob >= n:
            ob = bits(k)
        oc = bits(k)
        while oc >= n:
            oc = bits(k)
        if (
            oa + ob < pair_lo
            or oa + oc < pair_lo
            or ob + oc < pair_lo
            or oa + ob + oc > grand_hi
        ):
            continue
        cvec = _vector_with(lo + oc, win.wc_lo, win.w_hi, d, bits)
        if cvec is None:
            continue
        avec = _vector_with(lo + oa, 0, win.w_hi, d, bits)
        bvec = _vector_with(lo + ob, 0, win.w_hi, d, bits)
        if avec is None or bvec is None:
            continue
        return (tuple(avec), tuple(bvec), tuple(cvec))
    return None


# --- corner generators ------------------------------------------------------


def _split_three(total: int) -> tuple[int, int, int]:
    q, r = divmod(total, 3)
    return q + (1 if r > 0 else 0), q + (1 if r > 1 else 0), q


def _config_with_s1s2(win: _Windows, d: int, s1u: int, s2u: int, bits):
    """Feasible integer vectors with class sums s_1, s_2 hit exactly, mass
    for the remaining totals placed on indices 3..d; None when blocked."""
    if d < 3:
        return None
    firsts = _split_three(s1u)
    seconds = _split_three(s2u)
    for _ in range(32):
        rest_lo = [max(0, win.tot_lo - f - s) for f, s in zip(firsts, seconds)]
        rest_hi = []
        for vi, (f, s) in enumerate(zip(firsts, seconds)):
            base_w = f + 2 * s
            cap = (win.w_hi - base_w) // 3  # keep the weighted sum reachable
            hi = min(win.tot_hi - f - s, cap)
            if vi == 2:
                lo_needed = -(-max(0, win.wc_lo - base_w) // d)
                rest_lo[vi] = max(rest_lo[vi], lo_needed)
            if hi < rest_lo[vi]:
                return None
            rest_hi.append(hi)
        rests = [_randint(bits, rest_lo[i], rest_hi[i]) for i in range(3)]
        totals = [f + s + r for f, s, r in zip(firsts, seconds, rests)]
        if not win.totals_ok(*totals):
            continue
        vecs = []
        ok = True
        for vi in range(3):
            f, s, r = firsts[vi], seconds[vi], rests[vi]
            base_w = f + 2 * s
            w_lo = max(3 * r, (win.wc_lo - base_w) if vi == 2 else 0)
            w_hi = min(d * r, win.w_hi - base_w)
            if w_lo > w_hi:
                ok = False
                break
            skel = _skeleton(r, _randint(bits, w_lo, w_hi), 3, d, d)
            skel[0] += f
            skel[1] += s
            vecs.append(tuple(skel))
        if ok:
            return tuple(vecs)
    return None


def _corner_triples(win: _Windows, d: int, delta: Fraction, bits):
    """Deterministic boundary-hugging starts: triangle-T vertices, the
    s1 + s2 capacity boundary, and third-class mass near 0.32."""
    out = []
    scale = win.scale
    targets = []
    for s1, s2 in TRIANGLE_VERTICES:
        s1u, s2u = s1 * scale, s2 * scale
        if s1u.denominator == 1 and s2u.denominator == 1:
            targets.append((s1u.numerator, s2u.numerator))
    cap = TOTAL_HIGH + delta  # s1 + s2 boundary from the case split
    capu = cap * scale
    if capu.denominator == 1:
        for s1_frac in (F(1, 40), F(49, 800), F(1, 10)):
            s1u = s1_frac * scale
            if s1u.denominator == 1 and s1u.numerator < capu.numerator:
                targets.append((s1u.numerator, capu.numerator - s1u.numerator))
    for s1u, s2u in targets:
        trip = _config_with_s1s2(win, d, s1u, s2u, bits)
        if trip is not None:
            out.append(trip)
    # a_3 pinned at 0.32: the S1/S2 hinge
    a3 = TOTAL_LOW * scale
    if a3.denominator == 1 and d >= 3:
        a3u = a3.numerator
        for _ in range(8):
            ta = _randint(bits, max(win.tot_lo, a3u), win.tot_hi)
            avec = [0] * d
            avec[2] = a3u
            avec[0] = ta - a3u
            if _weighted(avec) > win.w_hi:
                continue
            tb = _randint(bits, win.tot_lo, win.tot_hi)
            tc = _randint(bits, win.tot_lo, win.tot_hi)
            if not win.totals_ok(ta, tb, tc):
                continue
            cvec = _vector_with(tc, win.wc_lo, win.w_hi, d, bits)
            bvec = _vector_with(tb, 0, win.w_hi, d, bits)
            if cvec is None or bvec is None:
                continue
            out.append((tuple(avec), tuple(bvec), tuple(cvec)))
            break
    return out


def _to_config(vecs, scale: int, delta: Fraction, epsilon: Fraction, d: int):
    return ExponentConfiguration(
        d=d,
        a=tuple(F(x, scale) for x in vecs[0]),
        b=tuple(F(x, scale) for x in vecs[1]),
        c=tuple(F(x, scale) for x in vecs[2]),
        delta=delta,
        epsilon=epsilon,
    )


def corner_config(
    d: int,
    delta: Fraction,
    epsilon: Fraction,
    s1: Fraction,
    s2: Fraction,
    seed: int = 0,
):
    """A feasible configuration with class sums (s_1, s_2) hit exactly, or
    None when the targets cannot be realized on the lattice at this d."""
    if d < 3:
        raise ValueError("corner targets need d >= 3")
    dl, ep, s1, s2 = F(delta), F(epsilon), F(s1), F(s2)
    win = _windows_for(d, dl, ep, None)
    scale = lcm(win.scale, s1.denominator, s2.denominator)
    if scale != win.scale:
        win = _windows_for(d, dl, ep, scale)
    bits = Random(seed).getrandbits
    trip = _config_with_s1s2(win, d, int(s1 * scale), int(s2 * scale), bits)
    if trip is None:
        return None
    cfg = _to_config(trip, scale, dl, ep, d)
    assert check_constraints(cfg).feasible
    return cfg


def _provably_empty(d: int, delta: Fraction, epsilon: Fraction) -> bool:
    """The weighted-capacity argument: sum(i * c_i) <= d * T_c <= d * C4-max,
    which cannot reach 1 - eps^2 at small d."""
    return d * (TOTAL_HIGH + delta - epsilon / 2) < 1 - epsilon * epsilon


def sample_feasible(
    d: int,
    delta: Fraction,
    epsilon: Fraction,
    count: int,
    seed: int,
    *,
    grid: int | None = None,
) -> list[ExponentConfiguration]:
    """Deterministic feasible samples (the same arguments always return the
    same list).  Corner generators lead, then lattice rejection sampling.

    May return fewer than count (with a warning) if the region is thin at
    these parameters; entries are multiples of 1/grid when grid is given.
    """
    if d < 3:
        raise ValueError("the region is empty for d < 3 at small slacks")
    if count < 1:
        raise ValueError("count must be >= 1")
    dl, ep = F(delta), F(epsilon)
    win = _windows_for(d, dl, ep, grid)
    bits = Random(seed * 1_000_003 + 1).getrandbits
    out: list[ExponentConfiguration] = []
    for trip in _corner_triples(win, d, dl, bits):
        if len(out) < count:
            out.append(_to_config(trip, win.scale, dl, ep, d))
    attempts = 0
    while len(out) < count and attempts < 60 * count:
        attempts += 1
        trip = _draw(win, d, bits)
        if trip is not None:
            out.append(_to_config(trip, win.scale, dl, ep, d))
    if len(out) < count:
        warnings.warn(
            f"sampler returned {len(out)}/{count} configurations: the region "
            f"is thin or empty at d={d}, delta={dl}, epsilon={ep}",
            stacklevel=2,
        )
    return out


# --- the falsification search -------------------------------------------------


@dataclass(frozen=True)
class RegionSearchReport:
    """Outcome of maximize_nu.

    This is a falsification search, not a proof: `maximum` is the largest
    best_bound value seen over the feasible samples (None when no feasible
    sample was found), and `verdict` says whether it stayed at or below
    `threshold`.  `maximum` always equals best_bound re-evaluated at
    `argmax`.  Seed and streams pin the run exactly.
    """

    d: int
    delta: Fraction
    epsilon: Fraction
    lam: Fraction
    threshold: Fraction
    budget: int
    seed: int
    streams: int
    methods: tuple[str, ...]
    strategy_mix: dict
    samples: int
    feasible: int
    maximum: Fraction | None
    argmax: ExponentConfiguration | None
    method_wins: dict
    verdict: bool
    outcome: str
    note: str = (
        "falsification search over sampled configurations; "
        "not a certified supremum"
    )


_HILL_FRACTION = F(15, 100)


def _hill_steps(scale: int) -> tuple[int, ...]:
    return tuple(
        s for s in (scale // 100, scale // 1000, scale // 10000) if s > 0
    ) or (1,)


def _beats(cand, best) -> bool:
    """Whether cand = (num, den, vecs) is preferred to best (None or of the
    same shape): a larger value num/den, then on a tie the smaller vecs."""
    if best is None:
        return True
    num, den, vecs = cand
    bn, bd, bv = best
    return num * bd > bn * den or (num * bd == bn * den and vecs < bv)


def _stream_task(win, d, seed, stream, draws, climbs, methods, delta):
    """One search stream: corner starts (stream 0 only), `draws` sampling
    draws and `climbs` hill-climb moves from the stream's exact best.
    Returns (best, wins, feasible, evaluated, corner_count)."""
    bits = Random(seed * 1_000_003 + 7919 * (stream + 1)).getrandbits
    scale = win.scale
    dn = (delta * scale).numerator
    best = None  # (num, den, vecs)
    wins: dict[str, int] = {}
    feasible = 0
    evaluated = 0
    corner_count = 0

    def consider(vecs):
        nonlocal best, feasible
        feasible += 1
        # below the stream's best, fast_best may return an upper bound that
        # is still below it; such a sample is never kept, so best is exact
        floor = None if best is None else best[:2]
        num, den, method = fast_best(vecs, dn, scale, methods, floor=floor)
        wins[method] = wins.get(method, 0) + 1
        cand = (num, den, vecs)
        if _beats(cand, best):
            best = cand

    if stream == 0:
        for trip in _corner_triples(win, d, delta, bits):
            corner_count += 1
            evaluated += 1
            consider(trip)
    for _ in range(draws):
        evaluated += 1
        trip = _draw(win, d, bits)
        if trip is not None:
            consider(trip)
    steps = _hill_steps(scale)
    used = 0
    while best is not None and used < climbs:
        improved = False
        for step in steps:
            for _ in range(max(1, climbs // (len(steps) * 4))):
                if used >= climbs:
                    break
                used += 1
                evaluated += 1
                vecs = best[2]
                move = _randint(bits, 0, 1)
                lv = [list(v) for v in vecs]
                if move == 0:  # mass between classes inside one vector
                    vi = _randint(bits, 0, 2)
                    i, j = _randint(bits, 0, d - 1), _randint(bits, 0, d - 1)
                    m = min(step, lv[vi][i])
                    lv[vi][i] -= m
                    lv[vi][j] += m
                else:  # mass between vectors at one class
                    ui, vi = _randint(bits, 0, 2), _randint(bits, 0, 2)
                    i = _randint(bits, 0, d - 1)
                    m = min(step, lv[ui][i])
                    lv[ui][i] -= m
                    lv[vi][i] += m
                cand = tuple(tuple(v) for v in lv)
                if cand == vecs or not _vectors_feasible(win, cand):
                    continue
                prev = best
                consider(cand)
                if best is not prev:
                    improved = True
        if not improved:
            break
    return best, wins, feasible, evaluated, corner_count


def _resolve_methods(methods) -> tuple[str, ...]:
    if methods is None:
        return METHOD_NAMES
    names = tuple(methods)
    allowed = set(METHOD_NAMES) | {EXTENDED_METHOD}
    for m in names:
        if m not in allowed:
            raise ValueError(f"unknown method {m!r}")
    if not names:
        raise ValueError("methods must not be empty")
    return names


def maximize_nu(
    d: int,
    delta: Fraction,
    epsilon: Fraction,
    lam: Fraction = F(1),
    budget: int = 100_000,
    seed: int = 0,
    threshold: Fraction = DEFAULT_THRESHOLD,
    *,
    methods: Sequence[str] | None = None,
    streams: int = 8,
    grid: int | None = None,
) -> RegionSearchReport:
    """Search the feasible region for the largest best_bound value.

    `budget` counts sampling draws; hill-climbing adds ~15% more
    evaluations on top, from each stream's best sample, with steps
    1/100, 1/1000, 1/10000 projected back to feasibility.  The streams
    run one after another, and the result is deterministic in
    (parameters, seed, streams).
    """
    dl, ep, lam = F(delta), F(epsilon), F(lam)
    threshold = F(threshold)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if streams < 1:
        raise ValueError("streams must be >= 1")
    method_names = _resolve_methods(methods)
    base_kwargs = dict(
        d=d, delta=dl, epsilon=ep, lam=lam, threshold=threshold,
        budget=budget, seed=seed, streams=streams, methods=method_names,
    )

    def empty(reason: str) -> RegionSearchReport:
        return RegionSearchReport(
            **base_kwargs,
            strategy_mix={"draws": 0, "hill": 0, "corners": 0},
            samples=0, feasible=0, maximum=None, argmax=None,
            method_wins={}, verdict=True, outcome="region-empty",
            note=f"region empty at d={d}: {reason}; nothing to search",
        )

    if d < 3:
        if not _provably_empty(d, dl, ep):
            raise ValueError(
                "d < 3 is only supported where the weighted-capacity "
                "argument proves the region empty; these slacks are too large"
            )
        return empty("the weighted c-sum cannot reach 1 - eps^2")
    win = _windows_for(d, dl, ep, grid)
    if (dl * win.scale).denominator != 1:
        raise ValueError("grid does not contain delta; pick a finer lattice")
    if win.tot_lo > win.tot_hi:
        lo, hi = (format_rational(F(t, win.scale)) for t in (win.tot_lo, win.tot_hi))
        return empty(f"the C4 totals window [{lo}, {hi}] is empty")
    climbs_total = int(budget * _HILL_FRACTION)
    per_draw = [budget // streams] * streams
    per_draw[0] += budget % streams
    per_climb = [climbs_total // streams] * streams
    per_climb[0] += climbs_total % streams
    best = None
    wins: dict[str, int] = {}
    feasible = samples = corners = 0
    for k in range(streams):
        sbest, swins, sfeas, seval, scorn = _stream_task(
            win, d, seed, k, per_draw[k], per_climb[k], method_names, dl
        )
        feasible += sfeas
        samples += seval
        corners += scorn
        for m, v in swins.items():
            wins[m] = wins.get(m, 0) + v
        if sbest is not None and _beats(sbest, best):
            best = sbest
    mix = {"draws": budget, "hill": climbs_total, "corners": corners}
    if best is None:
        return RegionSearchReport(
            **base_kwargs, strategy_mix=mix, samples=samples, feasible=0,
            maximum=None, argmax=None, method_wins={}, verdict=True,
            outcome="region-empty",
            note=f"no feasible sample found at d={d}, delta={dl}, "
            f"epsilon={ep}; region empty or too thin for this sampler",
        )
    num, den, vecs = best
    argmax = _to_config(vecs, win.scale, dl, ep, d)
    maximum = best_bound(argmax, methods=method_names).value
    assert maximum == F(num, den), "fast path disagrees with canonical evaluator"
    return RegionSearchReport(
        **base_kwargs, strategy_mix=mix, samples=samples, feasible=feasible,
        maximum=maximum, argmax=argmax,
        method_wins=dict(sorted(wins.items())),
        verdict=maximum <= threshold, outcome="ok",
    )


@dataclass(frozen=True)
class ThetaReport:
    """Empirical theta exploration: the smallest threshold the search could
    not falsify, which is exactly the empirical sup of best_bound.  Never a
    certificate."""

    d: int
    delta: Fraction
    epsilon: Fraction
    lam: Fraction
    budget: int
    seed: int
    methods: tuple[str, ...]
    rounds: tuple[tuple[Fraction, bool], ...]
    sup: Fraction | None
    argmax: ExponentConfiguration | None
    theta_estimate: Fraction | None
    certified: bool = False


def explore_theta(
    d: int,
    delta: Fraction,
    epsilon: Fraction,
    lam: Fraction = F(1),
    budget: int = 80_000,
    seed: int = 0,
    *,
    methods: Sequence[str] | None = None,
    rounds: int = 8,
    streams: int = 8,
) -> ThetaReport:
    """Bisect candidate thresholds over [0.66 - eps^2, 1], run maximize_nu
    at each, and report the empirical sup of best_bound across all rounds
    (the natural theta estimate).  Flagged non-certified by construction."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    dl, ep, lam = F(delta), F(epsilon), F(lam)
    method_names = _resolve_methods(methods)
    lo, hi = PAIR_LOW - ep * ep, F(1)
    sup = None
    argmax = None
    history: list[tuple[Fraction, bool]] = []
    per_round = max(1, budget // rounds)
    for r in range(rounds):
        mid = (lo + hi) / 2
        rep = maximize_nu(
            d, dl, ep, lam, budget=per_round, seed=seed * 9176 + r,
            threshold=mid, methods=method_names, streams=streams,
        )
        history.append((mid, rep.verdict))
        if rep.maximum is not None and (sup is None or rep.maximum > sup):
            sup, argmax = rep.maximum, rep.argmax
        if rep.verdict:
            hi = mid
        else:
            lo = mid
    return ThetaReport(
        d=d, delta=dl, epsilon=ep, lam=lam, budget=budget, seed=seed,
        methods=method_names, rounds=tuple(history), sup=sup, argmax=argmax,
        theta_estimate=sup,
    )
