"""Feasible-region machinery: constraint checking, sampling, and the
falsification search for the 0.66 exponent threshold.

The feasible region lives in the space of ExponentConfigurations.  Its
constraints are the rows of one table, ROWS: each row is a linear form in
the entry sums T_v and the weighted sums W_v = sum(i * v_i), a sense, and
a right-hand side in (delta, epsilon).  C1-C4 (weighted sums, pairwise
totals, grand total, each total) define feasibility; R1-R3 restate the
totals as deviations from 1/3 and are reported only.  check_constraints
evaluates every row exactly on Fractions; the sampler rounds the C rows
inward onto an integer lattice (entries are multiples of 1/scale) so
window membership is plain integer comparison and results are
reproducible bit for bit.

maximize_nu is a falsification search, not a proof: it samples the region
(including targeted corner generators near the tight boundary structures),
hill-climbs the best samples, and reports the maximum of best_bound it
managed to find.  A certified supremum over the polytope is out of scope.
"""

from __future__ import annotations

import marshal
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from random import Random
from typing import Callable, Sequence

from .bounds import (
    VECTOR_NAMES,
    ExponentConfiguration,
    best_bound,
    fast_best,
    resolve_methods,
)
from .cases import TRIANGLE_VERTICES
from .exact import format_rational

F = Fraction

BASE_GRID = 3_000_000  # divisible by every denominator the windows use

DEFAULT_THRESHOLD = F(33, 50)

# Boundaries of the case split that the corner generators aim at; neither
# is a row of the table: s_1 + s_2 <= 0.34 + delta, and a_3 = 0.32.
S12_CAP = F(17, 50)
A3_HINGE = F(8, 25)


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


# --- the constraint table ----------------------------------------------------

SUM, WEIGHTED = "sum", "weighted"


@dataclass(frozen=True)
class Row:
    """One linear inequality: the terms named by coeffs, compared by sense
    (">=", "<=" or strict "<") with rhs(delta, epsilon).  coeffs holds one
    entry per vector (a, b, c): None, SUM (T_v) or WEIGHTED (W_v)."""

    name: str
    coeffs: tuple[str | None, ...]
    sense: str
    rhs: Callable[[Fraction, Fraction], Fraction]

    @property
    def terms(self) -> tuple[int, ...]:
        """Positions of the row's terms in (T_a, T_b, T_c, W_a, W_b, W_c)."""
        return tuple(i + 3 * (k == WEIGHTED) for i, k in enumerate(self.coeffs) if k)


def _rows(family: str, kind: str, groups: Sequence[str], *sides) -> list[Row]:
    """For each group of vectors (like "ab") and each (side, sense, rhs), the
    row family-group-side over the group's terms of the given kind."""
    return [
        Row("-".join(filter(None, (family, g, side))),
            tuple(kind if v in g else None for v in VECTOR_NAMES), sense, rhs)
        for g in groups
        for side, sense, rhs in sides
    ]


ROWS: tuple[Row, ...] = (
    # C1: W_a <= 1, W_b <= 1, 1 - eps^2 <= W_c <= 1
    *_rows("C1-weighted", WEIGHTED, "ab", ("", "<=", lambda dl, ep: F(1))),
    *_rows("C1-weighted", WEIGHTED, "c", ("upper", "<=", lambda dl, ep: F(1)),
           ("lower", ">=", lambda dl, ep: 1 - ep * ep)),
    # C2: T_u + T_v >= 0.66 - eps^2 for each pair
    *_rows("C2", SUM, ("ab", "ac", "bc"),
           ("", ">=", lambda dl, ep: F(33, 50) - ep * ep)),
    # C3: T_a + T_b + T_c <= 1 + delta - eps
    Row("C3-grand-total", (SUM,) * 3, "<=", lambda dl, ep: 1 + dl - ep),
    # C4: 0.32 - delta <= T_v <= 0.34 + delta - eps/2
    *_rows("C4", SUM, "abc", ("lower", ">=", lambda dl, ep: F(8, 25) - dl),
           ("upper", "<=", lambda dl, ep: F(17, 50) + dl - ep / 2)),
    # R1: -1/150 - delta <= 1/3 - T_v <= 1/75 + delta + eps
    *_rows("R1", SUM, "abc", ("lower", "<=", lambda dl, ep: F(17, 50) + dl),
           ("upper", ">=", lambda dl, ep: F(8, 25) - dl - ep)),
    # R2: (1/3 - T_u) + (1/3 - T_v) <= 1/150 + eps^2 for each pair
    *_rows("R2", SUM, ("ab", "ac", "bc"),
           ("", ">=", lambda dl, ep: F(33, 50) - ep * ep)),
    # R3: -delta < 1 - (T_a + T_b + T_c) <= 1/100 + eps
    Row("R3-lower", (SUM,) * 3, "<", lambda dl, ep: 1 + dl),
    Row("R3-upper", (SUM,) * 3, ">=", lambda dl, ep: F(99, 100) - ep),
)
FEASIBILITY_ROWS = tuple(row for row in ROWS if row.name.startswith("C"))
_ROW = {row.name: row for row in ROWS}


def _weighted(vec: Sequence) -> int | Fraction:
    return sum(i * x for i, x in enumerate(vec, start=1))


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


def check_constraints(cfg: ExponentConfiguration) -> ConstraintReport:
    """Evaluate every row of ROWS exactly; feasibility is C1-C4."""
    vecs = (cfg.a, cfg.b, cfg.c)
    vals = (*map(sum, vecs), *map(_weighted, vecs))  # see Row.terms
    recs = []
    for row in ROWS:
        lhs = sum(vals[i] for i in row.terms)
        rhs = row.rhs(cfg.delta, cfg.epsilon)
        slack = lhs - rhs if row.sense == ">=" else rhs - lhs
        strict = row.sense == "<"
        ok = slack > 0 if strict else slack >= 0
        recs.append(ConstraintRecord(row.name, ok, slack, strict))
    return ConstraintReport(tuple(recs))


# --- integer-lattice windows -----------------------------------------------


@dataclass(frozen=True)
class _Windows:
    """The C rows on the lattice: `rows` holds (terms, is_lower, bound) per
    row, and the named fields are the bounds the generators read."""

    scale: int
    rows: tuple[tuple[tuple[int, ...], bool, int], ...]
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
    if grid is not None and grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    dl, ep = F(delta), F(epsilon)
    rhs = [row.rhs(dl, ep) for row in FEASIBILITY_ROWS]
    scale = lcm(BASE_GRID, *(r.denominator for r in rhs)) if grid is None else grid
    # each bound rounded inward (no C row is strict): an integer lhs meets
    # the rounded bound iff it meets the rhs
    bound = {
        row.name: _ceil(x * scale) if row.sense == ">=" else _floor(x * scale)
        for row, x in zip(FEASIBILITY_ROWS, rhs)
    }
    return _Windows(
        scale=scale,
        rows=tuple((r.terms, r.sense == ">=", bound[r.name]) for r in FEASIBILITY_ROWS),
        tot_lo=bound["C4-a-lower"],
        tot_hi=bound["C4-a-upper"],
        pair_lo=bound["C2-ab"],
        grand_hi=bound["C3-grand-total"],
        wc_lo=bound["C1-weighted-c-lower"],
        w_hi=bound["C1-weighted-a"],
    )


def _vectors_feasible(win: _Windows, vecs) -> bool:
    """Full integer feasibility re-check (used after hill-climb moves)."""
    vals = (*map(sum, vecs), *map(_weighted, vecs))  # see Row.terms
    for terms, is_lower, bound in win.rows:
        lhs = sum(vals[i] for i in terms)
        if lhs < bound if is_lower else lhs > bound:
            return False
    return True


def _skeleton(total: int, target_w: int, lo_idx: int, hi_idx: int, d: int) -> list[int]:
    """Composition of `total` on indices [lo_idx, hi_idx] (1-based) with
    weighted sum exactly target_w.  Requires lo_idx*total <= target_w <=
    hi_idx*total."""
    x = [0] * d
    extra = target_w - lo_idx * total
    span = hi_idx - lo_idx
    if span == 0:
        if extra != 0:
            raise RuntimeError("weighted target out of reach at a single index")
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
    cap = S12_CAP + delta
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
    a3 = A3_HINGE * scale
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
    if not check_constraints(cfg).feasible:
        raise RuntimeError("corner configuration violates C1-C4")
    return cfg


def _provably_empty(d: int, delta: Fraction, epsilon: Fraction) -> bool:
    """The weighted-capacity argument: W_c <= d * T_c <= d * (C4-c-upper's
    bound), which cannot reach C1-weighted-c-lower's bound at small d."""
    cap = _ROW["C4-c-upper"].rhs(delta, epsilon)
    return d * cap < _ROW["C1-weighted-c-lower"].rhs(delta, epsilon)


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


# --- running the streams on every usable core ---------------------------------

_SIGKILL = 9  # POSIX; the signal module is not otherwise loaded


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(n: int) -> int:
    """How many processes share n streams: one (this one) when fork is
    missing or another thread is alive, since forking a threaded process
    is unsafe; otherwise min(n, usable cores)."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return 1
    return min(n, _usable_cores())


def _spawn(task, ks) -> tuple[int, int]:
    """Fork a worker that runs task(k) for each k in ks and writes the list
    of results, marshalled, to a pipe; returns (pid, read end).  The worker
    leaves through os._exit, so it never flushes inherited stdio or runs
    atexit hooks, and exits 1 on any error."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            data = memoryview(marshal.dumps([task(k) for k in ks]))
            while data:
                data = data[os.write(wfd, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, rfd


def _collect(pid: int, rfd: int, count: int):
    """Read a worker's results to the end and reap it; None unless it
    exited 0 and sent exactly `count` results."""
    chunks = []
    while chunk := os.read(rfd, 1 << 16):
        chunks.append(chunk)
    status = os.waitpid(pid, 0)[1]
    try:
        got = marshal.loads(b"".join(chunks))
    except (EOFError, ValueError):  # a short or garbled reply
        return None
    return got if status == 0 and len(got) == count else None


def _kill(kids: dict) -> None:
    """Kill and reap every worker in kids, emptying it."""
    while kids:
        pid, rfd = kids.popitem()[1]
        os.close(rfd)
        try:
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass  # reaped by a _collect that was interrupted


def _run_streams(task, n: int) -> list:
    """[task(k) for k in range(n)], spread over _worker_count(n) processes.

    This process runs streams 0, w, 2w, ...; forked worker j runs streams
    j, j + w, ....  The streams are deterministic, so a worker that raises,
    dies or sends a short reply has its streams re-run here, in stream
    order, and an error surfaces as in a serial run: the first failing
    stream's, with the same type and message.  So do the streams of a
    worker that could not be forked.  If this process raises
    (KeyboardInterrupt included), every worker is killed and reaped first.
    """
    w = _worker_count(n)
    out = [None] * n
    kids: dict[int, tuple[int, int]] = {}  # worker -> (pid, read end)
    failed: list[int] = []  # streams this process runs after its own
    try:
        for j in range(1, w):
            try:
                kids[j] = _spawn(task, range(j, n, w))
            except OSError:  # no process or pipe to spare
                failed.extend(range(j, n, w))
        for k in range(0, n, w):
            try:
                out[k] = task(k)
            except Exception:
                _kill(kids)
                for i in range(k):  # a serial run meets these streams first
                    if i % w:
                        task(i)
                raise
        for j in list(kids):
            ks = range(j, n, w)
            got = _collect(*kids[j], len(ks))
            os.close(kids.pop(j)[1])
            if got is None:
                failed.extend(ks)
            else:
                for k, res in zip(ks, got):
                    out[k] = res
        for k in sorted(failed):
            out[k] = task(k)
        return out
    finally:
        _kill(kids)


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
    that draw are spread over the usable cores (forked workers, see
    _run_streams) and merged in stream order, so the result is
    deterministic in (parameters, seed, streams) whatever the core count.
    """
    dl, ep, lam = F(delta), F(epsilon), F(lam)
    threshold = F(threshold)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if streams < 1:
        raise ValueError("streams must be >= 1")
    method_names = resolve_methods(methods)
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

    def task(k: int):
        # stream 0 also takes the remainders
        draws = budget // streams + (0 if k else budget % streams)
        climbs = climbs_total // streams + (0 if k else climbs_total % streams)
        return _stream_task(win, d, seed, k, draws, climbs, method_names, dl)

    # streams k >= 1 draw budget // streams each; with none they find
    # nothing, (None, {}, 0, 0, 0), so only the streams that draw run
    best = None
    wins: dict[str, int] = {}
    feasible = samples = corners = 0
    for sbest, swins, sfeas, seval, scorn in _run_streams(
        task, streams if budget >= streams else 1
    ):
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
    if maximum != F(num, den):
        raise RuntimeError("fast path disagrees with canonical evaluator")
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
    method_names = resolve_methods(methods)
    lo, hi = _ROW["C2-ab"].rhs(dl, ep), F(1)
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
