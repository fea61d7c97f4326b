"""Feasible-region machinery: constraint checking, sampling, and the
falsification search for the 0.66 exponent threshold.

The feasible region lives in the space of ExponentConfigurations.  Its
constraints are the rows of one table, ROWS: each row sums some of the
entry sums T_v and weighted sums W_v = sum(i * v_i), named by position,
and bounds that sum from below or above (never strictly) by a right-hand
side in (delta, epsilon).  The rows are C1-C4 (weighted sums, pairwise
totals, grand total, each total), and feasibility means every row holds.
The paper's R1-R3, the totals restated as deviations from 1/3, are not
rows: R1 follows from C4, R2 is C2, R3-upper follows from the sum of the
C2 rows when epsilon <= 2/3, and R3-lower (T < 1 + delta, strict) follows
from C3 when epsilon > 0; the case catalog replays their constants.  One
pass, _row_sides, sums every row's left side in integers; check_constraints
compares it exactly with each rhs on the configuration's grid, and the
sampler with each rhs rounded inward onto an integer lattice (entries are
multiples of 1/scale), so window membership is plain integer comparison
and results are reproducible bit for bit.  sample_feasible and maximize_nu
put every query through one rule, _region, which refuses what is invalid
and decides whether the region is empty.

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
from functools import lru_cache
from math import ceil, floor, lcm
from random import Random
from typing import Callable, Iterator, Sequence

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


# --- the constraint table ----------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One non-strict linear inequality: the sum of the terms at `terms`,
    positions in (T_a, T_b, T_c, W_a, W_b, W_c), is >= rhs(delta, epsilon)
    when `lower` holds and <= it otherwise."""

    name: str
    terms: tuple[int, ...]
    lower: bool
    rhs: Callable[[Fraction, Fraction], Fraction]


def _rows(family: str, first: int, groups: Sequence[str], *sides) -> list[Row]:
    """For each group of vectors (like "ab") and each (side, lower, rhs), the
    row family-group-side over the group's T_v (first 0) or W_v (first 3)."""
    return [
        Row("-".join(filter(None, (family, g, side))),
            tuple(first + i for i, v in enumerate(VECTOR_NAMES) if v in g),
            lower, rhs)
        for g in groups
        for side, lower, rhs in sides
    ]


ROWS: tuple[Row, ...] = (
    # C1: W_a <= 1, W_b <= 1, 1 - eps^2 <= W_c <= 1
    *_rows("C1-weighted", 3, "ab", ("", False, lambda dl, ep: F(1))),
    *_rows("C1-weighted", 3, "c", ("upper", False, lambda dl, ep: F(1)),
           ("lower", True, lambda dl, ep: 1 - ep * ep)),
    # C2: T_u + T_v >= 0.66 - eps^2 for each pair
    *_rows("C2", 0, ("ab", "ac", "bc"),
           ("", True, lambda dl, ep: F(33, 50) - ep * ep)),
    # C3: T_a + T_b + T_c <= 1 + delta - eps
    Row("C3-grand-total", (0, 1, 2), False, lambda dl, ep: 1 + dl - ep),
    # C4: 0.32 - delta <= T_v <= 0.34 + delta - eps/2
    *_rows("C4", 0, "abc", ("lower", True, lambda dl, ep: F(8, 25) - dl),
           ("upper", False, lambda dl, ep: F(17, 50) + dl - ep / 2)),
)


@lru_cache(maxsize=16)
def _row_bounds(delta: Fraction, epsilon: Fraction) -> tuple[Fraction, ...]:
    """rhs(delta, epsilon) of every row of ROWS, in order."""
    return tuple(row.rhs(delta, epsilon) for row in ROWS)


def _weighted(vec: Sequence) -> int | Fraction:
    return sum(i * x for i, x in enumerate(vec, start=1))


def _row_sides(vecs) -> Iterator[int]:
    """The left side of every row of ROWS, in order, for integer vectors;
    lazily, so a caller may stop at the first row that fails."""
    vals = (*map(sum, vecs), *map(_weighted, vecs))
    return (sum(map(vals.__getitem__, row.terms)) for row in ROWS)


@dataclass(frozen=True)
class ConstraintRecord:
    """One row of ROWS evaluated: non-negative slack means satisfied."""

    name: str
    satisfied: bool
    slack: Fraction


@dataclass(frozen=True)
class ConstraintReport:
    """All constraint evaluations for one configuration."""

    records: tuple[ConstraintRecord, ...]

    @property
    def feasible(self) -> bool:
        """True when every row (C1-C4) holds."""
        return all(r.satisfied for r in self.records)

    def record(self, name: str) -> ConstraintRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)


def check_constraints(cfg: ExponentConfiguration) -> ConstraintReport:
    """Evaluate every row of ROWS exactly: each lhs is summed in integers
    over cfg.grid's scale, and each slack is one Fraction."""
    vecs, _, scale = cfg.grid
    recs = []
    sides = _row_sides(vecs)
    for row, lhs, rhs in zip(ROWS, sides, _row_bounds(cfg.delta, cfg.epsilon)):
        # lhs / scale - rhs over the common denominator scale * rhs.denominator
        gap = lhs * rhs.denominator - rhs.numerator * scale
        if not row.lower:
            gap = -gap
        recs.append(ConstraintRecord(
            row.name, gap >= 0, Fraction(gap, scale * rhs.denominator)))
    return ConstraintReport(tuple(recs))


# --- integer-lattice windows -----------------------------------------------


@dataclass(frozen=True)
class _Windows:
    """The rows on the lattice: `bounds` holds each row's rounded bound in
    ROWS order, and the named fields are the bounds the generators read."""

    scale: int
    bounds: tuple[int, ...]
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


def _windows_for(delta: Fraction, epsilon: Fraction, grid: int | None) -> _Windows:
    """The rows rounded onto the lattice of multiples of 1/grid; by default
    the lattice of the smallest multiple of BASE_GRID that every rhs lies on."""
    rhs = _row_bounds(F(delta), F(epsilon))
    scale = lcm(BASE_GRID, *(r.denominator for r in rhs)) if grid is None else grid
    # each bound rounded inward (no row is strict): an integer lhs meets
    # the rounded bound iff it meets the rhs
    bounds = [ceil(x * scale) if row.lower else floor(x * scale)
              for row, x in zip(ROWS, rhs)]
    bound = dict(zip((row.name for row in ROWS), bounds))
    # the named fields, in _Windows order
    return _Windows(scale, tuple(bounds), *(bound[name] for name in (
        "C4-a-lower", "C4-a-upper", "C2-ab", "C3-grand-total",
        "C1-weighted-c-lower", "C1-weighted-a")))


def _vectors_feasible(win: _Windows, vecs) -> bool:
    """Full integer feasibility re-check (used after hill-climb moves)."""
    for row, lhs, bound in zip(ROWS, _row_sides(vecs), win.bounds):
        if lhs < bound if row.lower else lhs > bound:
            return False
    return True


def _skeleton(total: int, target_w: int, lo_idx: int, d: int) -> list[int]:
    """Composition of `total` on indices [lo_idx, d] (1-based) with
    weighted sum exactly target_w.  Requires lo_idx*total <= target_w <=
    d*total."""
    x = [0] * d
    extra = target_w - lo_idx * total
    span = d - lo_idx
    if span == 0:
        if extra != 0:
            raise RuntimeError("weighted target out of reach at a single index")
        x[lo_idx - 1] = total
        return x
    q, rem = divmod(extra, span)
    x[d - 1] += q
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
            skel = _skeleton(t_skel, _randint(bits, s_lo, s_hi), 1, d)
            cuts.sort()
            cuts.append(t_shape)
            prev = 0
            for i, c in enumerate(cuts):
                skel[i] += c - prev
                prev = c
            return skel
    return _skeleton(total, _randint(bits, lo, hi), 1, d)


def _draw(win: _Windows, d: int, bits):
    """One feasible (a, b, c) integer-vector triple, or None.  win comes
    from _region, so its C4 totals window is not empty."""
    # three _randint(bits, tot_lo, tot_hi) per attempt, inlined as offsets
    # from tot_lo; most attempts fail totals_ok, tested here on the offsets
    lo = win.tot_lo
    n = win.tot_hi - lo + 1
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
    for the remaining totals placed on indices 3..d (d >= 3); None when
    blocked."""
    firsts = _split_three(s1u)
    seconds = _split_three(s2u)
    # each vector's remaining total lies in [rest_lo, rest_hi], the same
    # window for every attempt
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
    for _ in range(32):
        rests = [_randint(bits, rest_lo[i], rest_hi[i]) for i in range(3)]
        totals = [f + s + r for f, s, r in zip(firsts, seconds, rests)]
        if not win.totals_ok(*totals):
            continue
        vecs = []
        for vi in range(3):
            f, s, r = firsts[vi], seconds[vi], rests[vi]
            base_w = f + 2 * s
            w_lo = max(3 * r, (win.wc_lo - base_w) if vi == 2 else 0)
            w_hi = min(d * r, win.w_hi - base_w)
            if w_lo > w_hi:
                break
            skel = _skeleton(r, _randint(bits, w_lo, w_hi), 3, d)
            skel[0] += f
            skel[1] += s
            vecs.append(tuple(skel))
        else:
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
    # a_3 pinned at 0.32, the S1/S2 hinge, unless 0.32 lies above the C4
    # totals window (epsilon > 0.04 + 2 delta)
    a3 = A3_HINGE * scale
    if a3.denominator == 1 and a3.numerator <= win.tot_hi:
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
    a, b, c = (tuple(F(x, scale) for x in v) for v in vecs)
    return ExponentConfiguration(d=d, a=a, b=b, c=c, delta=delta, epsilon=epsilon)


def _region(d: int, delta: Fraction, epsilon: Fraction, grid: int | None):
    """The one rule for a region query: its _windows_for windows, or why the
    region is empty (a str): an empty C4 totals window on the lattice, or
    C4 upper bounds on the lattice too small for any pair of totals to
    meet C2 there.  Refuses d < 1, negative slacks, and d < 3 unless
    W_c <= d * T_c <= d * C4-c-upper < C1-weighted-c-lower, on the exact
    bounds, proves it empty."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if delta < 0 or epsilon < 0:
        raise ValueError("delta and epsilon must be non-negative")
    if d < 3:
        rhs = dict(zip((row.name for row in ROWS), _row_bounds(delta, epsilon)))
        if d * rhs["C4-c-upper"] >= rhs["C1-weighted-c-lower"]:
            raise ValueError(
                "d < 3 is only supported where the weighted-capacity argument "
                "proves the region empty; these slacks are too large")
        return f"region empty at d={d}: the weighted c-sum cannot reach 1 - eps^2"
    win = _windows_for(delta, epsilon, grid)
    if win.tot_lo > win.tot_hi:
        lo, hi = (format_rational(F(t, win.scale)) for t in (win.tot_lo, win.tot_hi))
        return f"region empty at d={d}: the C4 totals window [{lo}, {hi}] is empty"
    if 2 * win.tot_hi < win.pair_lo:
        hi, lo = (format_rational(F(t, win.scale)) for t in (win.tot_hi, win.pair_lo))
        return (f"region empty at d={d}: two C4 totals of at most {hi} cannot "
                f"reach the C2 pair bound {lo}")
    return win


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

    The query follows maximize_nu's rule (_region); a region empty on the
    lattice, the caller's grid included, raises ValueError with the reason
    maximize_nu reports.  May return fewer than
    count (with a warning) if the region is thin at these parameters;
    entries are multiples of 1/grid when grid is given.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if grid is not None and grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    dl, ep = F(delta), F(epsilon)
    win = _region(d, dl, ep, grid)
    if isinstance(win, str):
        raise ValueError(win)
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


def hill_climbs(budget: int) -> int:
    """The hill-climb moves maximize_nu adds to a sampling budget: 15% of
    it, rounded down."""
    return int(budget * _HILL_FRACTION)


def _hill_steps(scale: int) -> tuple[int, ...]:
    return scale // 100, scale // 1000, scale // 10000


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
            consider(trip)
    for _ in range(draws):
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
    return best, wins, feasible, corner_count + draws + used, corner_count


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


_MISSING = object()  # a stream result slot that no process has filled


def _run_streams(task, n: int) -> list:
    """[task(k) for k in range(n)], spread over _worker_count(n) processes.

    This process runs streams 0, w, 2w, ...; forked worker j runs streams
    j, j + w, ....  A worker that raises, dies, sends a short reply or
    could not be forked leaves its streams without a result, and so does
    this process from its first stream that raises on.  The streams are
    deterministic, so those left without a result are run here at the end,
    in stream order, and an error surfaces as in a serial run: the first
    failing stream's, with the same type and message.  If this process is
    interrupted (KeyboardInterrupt included), every worker is killed and
    reaped first.
    """
    w = _worker_count(n)
    out = [_MISSING] * n
    kids: dict[int, tuple[int, int]] = {}  # worker -> (pid, read end)
    try:
        for j in range(1, w):
            try:
                kids[j] = _spawn(task, range(j, n, w))
            except OSError:  # no process or pipe to spare: run them here
                pass
        for k in range(0, n, w):
            try:
                out[k] = task(k)
            except Exception:
                break
        for j in list(kids):
            ks = range(j, n, w)
            got = _collect(*kids[j], len(ks))
            os.close(kids.pop(j)[1])
            for k, res in zip(ks, got or ()):
                out[k] = res
        return [task(k) if r is _MISSING else r for k, r in enumerate(out)]
    finally:
        _kill(kids)


def maximize_nu(
    d: int,
    delta: Fraction,
    epsilon: Fraction,
    *,
    budget: int = 100_000,
    seed: int = 0,
    methods: Sequence[str] | None = None,
    streams: int = 8,
) -> RegionSearchReport:
    """Search the feasible region for the largest best_bound value, and
    judge it against the paper's 33/50 (DEFAULT_THRESHOLD); the report
    holds both, so a caller can compare the maximum with any other value.

    The search runs on the default lattice of _windows_for, which always
    holds delta: its denominator survives in 8/25 - delta, the rhs of
    C4-*-lower, and 25 divides BASE_GRID.  `budget` counts sampling
    draws; hill-climbing adds ~15% more evaluations on top, from each
    stream's best sample, with steps 1/100, 1/1000, 1/10000; each move
    shifts mass between two entries, never below zero, and a move that
    leaves the region is rejected, not repaired.  The streams
    that draw are spread over the usable cores (forked workers, see
    _run_streams) and merged in stream order, so the result is
    deterministic in (parameters, seed, streams) whatever the core count.
    """
    dl, ep = F(delta), F(epsilon)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if streams < 1:
        raise ValueError("streams must be >= 1")
    method_names = resolve_methods(methods)
    win = _region(d, dl, ep, None)
    best = maximum = argmax = None
    wins: dict[str, int] = {}
    feasible = samples = 0
    if isinstance(win, str):
        mix = {"draws": 0, "hill": 0, "corners": 0}
        note = f"{win}; nothing to search"
    else:
        climbs_total = hill_climbs(budget)

        def task(k: int):
            # stream 0 also takes the remainders
            draws = budget // streams + (0 if k else budget % streams)
            climbs = climbs_total // streams + (0 if k else climbs_total % streams)
            return _stream_task(win, d, seed, k, draws, climbs, method_names, dl)

        # streams k >= 1 draw budget // streams each; with none they find
        # nothing, (None, {}, 0, 0, 0), so only the streams that draw run
        mix = {"draws": budget, "hill": climbs_total, "corners": 0}
        for sbest, swins, sfeas, seval, scorn in _run_streams(
            task, streams if budget >= streams else 1
        ):
            feasible += sfeas
            samples += seval
            mix["corners"] += scorn
            for m, v in swins.items():
                wins[m] = wins.get(m, 0) + v
            if sbest is not None and _beats(sbest, best):
                best = sbest
        note = (f"no feasible sample found at d={d}, delta={dl}, epsilon={ep}; "
                "region empty or too thin for this sampler")
    if best is not None:
        num, den, vecs = best
        argmax = _to_config(vecs, win.scale, dl, ep, d)
        maximum = best_bound(argmax, methods=method_names).value
        if maximum != F(num, den):
            raise RuntimeError("fast path disagrees with canonical evaluator")
        note = RegionSearchReport.note
    return RegionSearchReport(
        d=d, delta=dl, epsilon=ep, threshold=DEFAULT_THRESHOLD,
        budget=budget, seed=seed, streams=streams, methods=method_names,
        strategy_mix=mix, samples=samples, feasible=feasible,
        maximum=maximum, argmax=argmax, method_wins=dict(sorted(wins.items())),
        verdict=best is None or maximum <= DEFAULT_THRESHOLD,
        outcome="region-empty" if best is None else "ok", note=note,
    )

