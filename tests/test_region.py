"""Region feasibility, sampling, and the falsification search."""

from __future__ import annotations

import hashlib
import os
import threading
import time
from fractions import Fraction
from random import Random

import pytest

import abckit.region as region
from abckit.bounds import (
    EVALUATORS,
    EXTENDED_METHOD,
    METHOD_NAMES,
    ExponentConfiguration,
    best_bound,
)
from abckit.cases import TRIANGLE_VERTICES
from abckit.region import (
    ROWS,
    RegionSearchReport,
    _config_with_s1s2,
    _hill_steps,
    _randint,
    _to_config,
    _vectors_feasible,
    _windows_for,
    check_constraints,
    maximize_nu,
    sample_feasible,
)

F = Fraction

MILLI = F(1, 1000)


def balanced_config() -> ExponentConfiguration:
    # totals all 0.33; weighted c-sum exactly 1
    return ExponentConfiguration(
        d=6,
        a=(F(33, 100), F(0), F(0), F(0), F(0), F(0)),
        b=(F(33, 100), F(0), F(0), F(0), F(0), F(0)),
        c=(F(0), F(0), F(8, 25), F(1, 100), F(0), F(0)),
        delta=MILLI,
        epsilon=MILLI,
    )


def test_constraints_frozen_slacks():
    rep = check_constraints(balanced_config())
    assert rep.feasible
    assert rep.record("C2-ab").slack == F(1, 10**6)
    assert rep.record("C3-grand-total").slack == F(1, 100)
    assert rep.record("C4-a-upper").slack == F(21, 2000)
    assert rep.record("C4-a-lower").slack == F(11, 1000)
    assert rep.record("C1-weighted-c-lower").slack == F(1, 10**6)
    assert rep.record("C1-weighted-a").slack == F(67, 100)
    # C1-C4 are the whole table, in order
    assert [r.name for r in rep.records] == [
        "C1-weighted-a", "C1-weighted-b", "C1-weighted-c-upper",
        "C1-weighted-c-lower", "C2-ab", "C2-ac", "C2-bc", "C3-grand-total",
        "C4-a-lower", "C4-a-upper", "C4-b-lower", "C4-b-upper",
        "C4-c-lower", "C4-c-upper",
    ]
    # every row is a lower or an upper bound (none is strict), so
    # _windows_for rounds each bound inward exactly
    assert {row.lower for row in ROWS} == {True, False}


def test_constraints_catch_violation():
    cfg = ExponentConfiguration(
        d=6,
        a=(F(33, 100),) + (F(0),) * 5,
        b=(F(33, 100),) + (F(0),) * 5,
        c=(F(33, 100),) + (F(0),) * 5,  # weighted c-sum 0.33 < 1 - eps^2
        delta=MILLI,
        epsilon=MILLI,
    )
    rep = check_constraints(cfg)
    assert not rep.feasible
    assert not rep.record("C1-weighted-c-lower").satisfied
    assert rep.record("C2-ab").satisfied
    with pytest.raises(KeyError):
        rep.record("C9")


def _reference_records(cfg):
    """The rows of check_constraints, written out in Fraction arithmetic."""
    dl, ep = cfg.delta, cfg.epsilon
    T = {v: sum(cfg.vector(v), F(0)) for v in "abc"}
    W = {v: sum((i * x for i, x in enumerate(cfg.vector(v), 1)), F(0)) for v in "abc"}
    rows = [
        ("C1-weighted-a", 1 - W["a"]),
        ("C1-weighted-b", 1 - W["b"]),
        ("C1-weighted-c-upper", 1 - W["c"]),
        ("C1-weighted-c-lower", W["c"] - (1 - ep * ep)),
        *((f"C2-{u}{v}", T[u] + T[v] - (F(33, 50) - ep * ep)) for u, v in ("ab", "ac", "bc")),
        ("C3-grand-total", 1 + dl - ep - sum(T.values())),
    ]
    for v in "abc":
        rows += [(f"C4-{v}-lower", T[v] - (F(8, 25) - dl)),
                 (f"C4-{v}-upper", F(17, 50) + dl - ep / 2 - T[v])]
    return [(name, slack >= 0, slack) for name, slack in rows]


def _near_region_vector(rng, d):
    """A total near 1/3 split over a few random classes."""
    den = rng.choice((300, 1000, 1200, 3000, 2 * 3 * 7 * 11))
    left = F(rng.randint(den * 30 // 100, den * 36 // 100), den)
    vec = [F(0)] * d
    for i in rng.sample(range(d), rng.randint(1, d)):
        part = F(rng.randint(0, left.numerator), left.denominator)
        vec[i] += part
        left -= part
    vec[rng.randrange(d)] += left
    return tuple(vec)


def test_constraints_match_a_fraction_reference():
    # (delta, epsilon) pairs sharing one coordinate, interleaved, so a row
    # bound kept under the wrong key shows
    pairs = [(MILLI, MILLI), (MILLI, F(1, 20)), (F(0), F(1, 20)), (F(1, 100), F(0))]
    rng = Random(1807)
    seen = set()
    for k in range(400):
        d = rng.randint(1, 8)
        delta, epsilon = pairs[k % len(pairs)]
        cfg = ExponentConfiguration(
            d=d, a=_near_region_vector(rng, d), b=_near_region_vector(rng, d),
            c=_near_region_vector(rng, d), delta=delta, epsilon=epsilon)
        got = [(r.name, r.satisfied, r.slack) for r in check_constraints(cfg).records]
        assert got == _reference_records(cfg), cfg
        seen.update((name, ok) for name, ok, _ in got)
    assert len(seen) == 2 * len(ROWS)  # every row seen both satisfied and not


def test_sampler_feasible_and_deterministic():
    xs = sample_feasible(6, MILLI, MILLI, 25, seed=11)
    ys = sample_feasible(6, MILLI, MILLI, 25, seed=11)
    assert xs == ys
    assert len(xs) == 25
    for cfg in xs:
        assert check_constraints(cfg).feasible
    zs = sample_feasible(6, MILLI, MILLI, 5, seed=12)
    assert zs != xs[:5]


def test_sampler_coarse_grid():
    # denominator-12 lattice: totals are forced to 1/3 there
    xs = sample_feasible(6, MILLI, MILLI, 8, seed=2, grid=12)
    assert len(xs) == 8
    for cfg in xs:
        assert check_constraints(cfg).feasible
        for name in ("a", "b", "c"):
            for entry in cfg.vector(name):
                assert 12 % entry.denominator == 0
        assert [sum(cfg.vector(v)) for v in "abc"] == [F(1, 3)] * 3


@pytest.mark.parametrize("d, count, seed, grid, digest", [
    # corner generators, then _draw
    (6, 200, 5, None,
     "daee37a0d1461bd3ca03685538142e36ffec3cd6917a0809a10bb6f7f4266633"),
    (8, 100, 3, None,
     "ea8033e8e61c306a6e73695cfdf2a994cc3dc80a00542d615aeea13efcb5ead4"),
    (6, 8, 2, 12,
     "82545bcf15aeb163faa94fcf2ab3e03210cd8138baea7631940dd287737745fc"),
])
def test_sampler_streams_pinned(d, count, seed, grid, digest):
    xs = sample_feasible(d, MILLI, MILLI, count, seed=seed, grid=grid)
    assert len(xs) == count
    assert hashlib.sha256(repr(xs).encode()).hexdigest() == digest


@pytest.mark.parametrize("seed", [0, 1, 5, 7919, 2**40 + 1])
def test_randint_is_randoms_randint(seed):
    # the sampler's streams equal random.Random's only while CPython's
    # randrange keeps its getrandbits rejection loop; this fails first if not
    widths = (1, 2, 3, 4, 7, 8, 9, 2**31, 2**32, 2**32 + 1, 2**40 + 3,
              64_501)  # the last: the d = 6 totals window at delta = eps = 1/1000
    ours, ref = Random(seed), Random(seed)
    for width in widths:
        for lo in (0, -3, 957_000):
            for _ in range(25):
                got = _randint(ours.getrandbits, lo, lo + width - 1)
                assert got == ref.randint(lo, lo + width - 1), (width, lo)
                assert ours.getstate() == ref.getstate(), (width, lo)


def test_empty_sampling_range_is_refused():
    # an empty range must raise, not spin in the rejection loop
    bits = Random(0).getrandbits
    with pytest.raises(ValueError):
        _randint(bits, 5, 4)
    # at epsilon 1/20 the C4 totals window [0.32, 0.315] is empty
    with pytest.raises(ValueError):
        sample_feasible(6, F(0), F(1, 20), 5, seed=1)
    # the search reports that window as an empty region instead
    rep = maximize_nu(6, F(0), F(1, 20), budget=50)
    assert (rep.outcome, rep.samples, rep.maximum) == ("region-empty", 0, None)
    assert "C4 totals window [8/25, 63/200] is empty" in rep.note


def test_sampler_argument_errors():
    with pytest.raises(ValueError):
        sample_feasible(2, MILLI, MILLI, 5, seed=0)
    with pytest.raises(ValueError):
        sample_feasible(6, MILLI, MILLI, 0, seed=0)
    for grid in (0, -12):
        with pytest.raises(ValueError, match="grid must be >= 1"):
            sample_feasible(6, F(0), F(0), 5, seed=0, grid=grid)


def test_sampler_thin_region_returns_what_it_found():
    # on the 1/25 lattice at d = 3 the rounded C4 totals (at most 8/25)
    # cannot meet the rounded C2 pair bound (17/25): refused at once, with
    # no draws (a thin region that is not empty still warns; see the
    # "sampler returned 1/3" case below)
    with pytest.raises(ValueError) as exc:
        sample_feasible(3, F(0), F(0), 3, seed=0, grid=25)
    assert str(exc.value) == ("region empty at d=3: two C4 totals of at most "
                              "8/25 cannot reach the C2 pair bound 17/25")


def test_hinge_start_is_skipped_above_the_totals_window():
    # epsilon > 0.04 + 2 delta puts a_3 = 0.32 above the C4 totals window,
    # so the a_3-hinge corner start has no total to draw; the other starts
    # and the draws run as before
    rep = maximize_nu(6, F(4, 25), F(2, 5), budget=200, seed=0)
    assert (rep.outcome, rep.feasible, rep.maximum) == ("ok", 11, F(30161, 60000))
    assert check_constraints(rep.argmax).feasible
    with pytest.warns(UserWarning, match="sampler returned 1/3"):  # thin
        (cfg,) = sample_feasible(6, F(4, 25), F(2, 5), 3, seed=0)
    assert check_constraints(cfg).feasible
    # empty by C2 against C4 (0.3195 + 0.3195 < 0.66 - epsilon^2): the
    # search reports region-empty, and the sampler refuses with the reason
    rep = maximize_nu(6, MILLI, F(43, 1000), budget=200, seed=0)
    assert (rep.outcome, rep.feasible, rep.maximum) == ("region-empty", 0, None)
    with pytest.raises(ValueError, match="C4 totals of at most 639/2000"):
        sample_feasible(6, MILLI, F(43, 1000), 3, seed=0)


def _hill_moves(vecs, steps):
    """Every single-step move the hill climb can make from vecs, feasible
    or not: mass between two classes of one vector, or between two vectors
    at one class."""
    d = len(vecs[0])
    for step in steps:
        for vi in range(3):
            for i in range(d):
                for j in range(d):
                    lv = [list(v) for v in vecs]
                    m = min(step, lv[vi][i])
                    lv[vi][i] -= m
                    lv[vi][j] += m
                    yield tuple(tuple(v) for v in lv)
        for ui in range(3):
            for vi in range(3):
                for i in range(d):
                    lv = [list(v) for v in vecs]
                    m = min(step, lv[ui][i])
                    lv[ui][i] -= m
                    lv[vi][i] += m
                    yield tuple(tuple(v) for v in lv)


@pytest.mark.parametrize("d", [6, 8])
def test_fraction_and_lattice_feasibility_agree(d):
    # check_constraints (Fractions) and _vectors_feasible (lattice integers)
    # must agree on sampled points and on every hill-climb move from them
    win = _windows_for(MILLI, MILLI, None)
    seen = set()
    for cfg in sample_feasible(d, MILLI, MILLI, 3, seed=d):
        vecs = tuple(
            tuple(int(x * win.scale) for x in cfg.vector(v)) for v in "abc"
        )
        for cand in (vecs, *_hill_moves(vecs, _hill_steps(win.scale))):
            point = _to_config(cand, win.scale, MILLI, MILLI, d)
            feasible = check_constraints(point).feasible
            assert feasible == _vectors_feasible(win, cand), cand
            seen.add(feasible)
    assert seen == {True, False}


def test_corner_config_hits_class_sums():
    # the corner generator behind the triangle-T starts, on the default
    # lattice the search runs on, reaches each vertex exactly
    win = _windows_for(MILLI, MILLI, None)
    for s1, s2 in TRIANGLE_VERTICES:
        s1u, s2u = s1 * win.scale, s2 * win.scale
        assert s1u.denominator == s2u.denominator == 1
        trip = _config_with_s1s2(win, 6, s1u.numerator, s2u.numerator,
                                 Random(0).getrandbits)
        assert trip is not None
        cfg = _to_config(trip, win.scale, MILLI, MILLI, 6)
        assert [cfg.a[i] + cfg.b[i] + cfg.c[i] for i in (0, 1)] == [s1, s2]
        assert check_constraints(cfg).feasible


def test_search_basic_run():
    rep = maximize_nu(6, MILLI, MILLI, budget=1500, seed=3, streams=4)
    assert isinstance(rep, RegionSearchReport)
    assert rep.outcome == "ok"
    assert rep.feasible > 0
    assert rep.maximum is not None
    # report invariant: the maximum replays through the canonical evaluator
    assert best_bound(rep.argmax).value == rep.maximum
    assert rep.maximum <= F(33, 50)
    assert rep.verdict
    assert rep.strategy_mix["corners"] > 0
    assert sum(rep.method_wins.values()) == rep.feasible
    assert check_constraints(rep.argmax).feasible


def test_search_region_empty_low_dimension():
    rep = maximize_nu(2, MILLI, MILLI, budget=10, seed=0)
    assert rep.outcome == "region-empty"
    assert rep.verdict and rep.maximum is None and rep.feasible == 0
    # slacks too generous for the capacity argument -> refuse instead
    with pytest.raises(ValueError):
        maximize_nu(2, F(1, 5), MILLI, budget=10, seed=0)


def test_search_restricted_methods():
    rep = maximize_nu(
        6, MILLI, MILLI, budget=400, seed=7, streams=2, methods=("trivial",)
    )
    assert set(rep.method_wins) == {"trivial"}
    # pair-total floor: the trivial bound can never drop below 0.66 - eps^2
    assert rep.maximum >= F(33, 50) - F(1, 10**6)


def test_search_report_pinned_d8():
    rep = maximize_nu(8, MILLI, MILLI, budget=2000, seed=1)
    assert rep.maximum == F(1705087, 3_000_000)
    assert (rep.samples, rep.feasible) == (2217, 2048)
    assert rep.method_wins == {"fourier": 8, "geometry": 2037, "thue": 3}
    assert best_bound(rep.argmax).value == rep.maximum


# Exact feasible points found offline (pattern LP, then rounded onto the
# sampler's lattice), entries in units of 1/3,000,000 at delta = epsilon =
# 1/1000: (a, b, c, the methods, their best value)
_EXACT_POINTS = {
    "d4-five": ((0, 304222, 422176, 281257), (155731, 0, 422175, 394436),
                (89637, 169768, 422177, 326074),
                METHOD_NAMES, F(372293, 600000)),
    "d5-five": ((104259, 165240, 386703, 351288, 0),
                (0, 318677, 392602, 296210, 0),
                (5901, 144741, 702582, 0, 119374),
                METHOD_NAMES, F(31193, 50000)),
    "d4-six": ((56918, 91236, 777895, 68263), (0, 370661, 370289, 279053),
               (190817, 0, 370289, 424579),
               (*METHOD_NAMES, EXTENDED_METHOD), F(370963, 600000)),
}

# the pinned search maxima at delta = epsilon = 1/1000: criterion 5 at
# d = 6, and test_search_report_pinned_d8
_SEARCH_MAXIMA = {6: F(882971, 1_500_000), 8: F(1705087, 3_000_000)}


@pytest.mark.parametrize("key", sorted(_EXACT_POINTS))
def test_exact_points_stay_feasible_and_exact_under_zero_padding(key):
    *vecs, methods, value = _EXACT_POINTS[key]
    d0 = len(vecs[0])
    want = None
    for d in range(d0, 11):
        a, b, c = (tuple(F(x, 3_000_000) for x in v) + (F(0),) * (d - d0)
                   for v in vecs)
        cfg = ExponentConfiguration(d=d, a=a, b=b, c=c, delta=MILLI, epsilon=MILLI)
        assert check_constraints(cfg).feasible, d
        values = {name: EVALUATORS[name](cfg).value for name in methods}
        if want is None:
            want = values
        # padding with zero classes changes no method's value
        assert values == want, d
        best = best_bound(cfg, methods=methods).value
        assert best == value == min(values.values()), d
        assert best >= _SEARCH_MAXIMA.get(d, 0), d


def test_search_report_pinned_custom_order():
    # determinant listed before geometry, extended fourier after it
    methods = ("thue", "determinant", "geometry", "extended-fourier")
    rep = maximize_nu(6, MILLI, MILLI, budget=3000, seed=4, methods=methods)
    assert rep.maximum == F(1688239, 3_000_000)
    assert (rep.samples, rep.feasible) == (3333, 3081)
    assert rep.method_wins == {
        "extended-fourier": 4, "geometry": 3060, "thue": 17,
    }


def test_search_argument_errors():
    with pytest.raises(ValueError):
        maximize_nu(6, MILLI, MILLI, budget=0)
    with pytest.raises(ValueError):
        maximize_nu(6, MILLI, MILLI, budget=10, methods=("nope",))
    for streams in (0, -2):
        with pytest.raises(ValueError, match="must be >= 1"):
            maximize_nu(6, MILLI, MILLI, budget=10, streams=streams)
        # refused before the empty-region shortcut too
        with pytest.raises(ValueError, match="must be >= 1"):
            maximize_nu(2, MILLI, MILLI, budget=10, streams=streams)
    # refused before the empty-region shortcut, and before any search
    for d in (0, -4):
        with pytest.raises(ValueError, match="d must be >= 1"):
            maximize_nu(d, MILLI, MILLI, budget=10)
    for d, delta, epsilon in ((2, -MILLI, MILLI), (6, -MILLI, MILLI),
                              (6, MILLI, -MILLI)):
        with pytest.raises(ValueError, match="must be non-negative"):
            maximize_nu(d, delta, epsilon, budget=10)
    # everything after epsilon is keyword-only: there is no lambda, and a
    # stale positional one cannot turn into the budget
    with pytest.raises(TypeError):
        maximize_nu(6, MILLI, MILLI, lam=F(1), budget=10)
    with pytest.raises(TypeError):
        maximize_nu(6, MILLI, MILLI, F(1))


# --- the streams across forked workers -----------------------------------------


def _count_forks(monkeypatch) -> list:
    """Count this process's calls to os.fork from here on."""
    forks = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_changes_nothing(monkeypatch):
    # the core count is the only input of the worker count besides the
    # streams; forcing it to 1, 2 and 3 must leave every report unchanged
    def reports():
        return [
            maximize_nu(d, MILLI, MILLI, budget=240, seed=d + streams,
                        streams=streams, methods=methods)
            for d in (4, 6, 8)
            for streams in (1, 3, 8)
            for methods in (("trivial",), None)
        ]

    forks = _count_forks(monkeypatch)
    runs = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(region, "_usable_cores", lambda: cores)
        before = len(forks)
        runs[cores] = reports()
        _no_child_left()
        # streams 1, 3, 8 per d and methods
        per_search = sum(min(s, cores) - 1 for s in (1, 3, 8))
        assert len(forks) - before == 6 * per_search
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]
    assert all(rep.outcome == "ok" for rep in runs[1])


def _failing_streams(monkeypatch, messages: dict):
    """Make _stream_task raise RuntimeError(messages[stream]) for the
    streams named in messages."""
    real = region._stream_task

    def task(win, d, seed, stream, *rest):
        if stream in messages:
            raise RuntimeError(messages[stream])
        return real(win, d, seed, stream, *rest)

    monkeypatch.setattr(region, "_stream_task", task)


@pytest.mark.parametrize("messages", [
    {5: "stream 5 broke"},  # a worker's stream at w = 2 and at w = 3
    {1: "stream 1 broke", 6: "stream 6 broke"},  # a worker's and the parent's
])
def test_worker_error_surfaces_as_in_a_serial_run(monkeypatch, messages):
    _failing_streams(monkeypatch, messages)
    errors = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(region, "_usable_cores", lambda: cores)
        with pytest.raises(RuntimeError) as info:
            maximize_nu(6, MILLI, MILLI, budget=400, seed=2, streams=8)
        errors.append((type(info.value), str(info.value)))
        _no_child_left()
    assert errors == [(RuntimeError, messages[min(messages)])] * 3


def _dies_in_workers(monkeypatch):
    parent, real = os.getpid(), region._stream_task

    def task(*args):
        if os.getpid() != parent:
            os._exit(0)  # exits cleanly without a reply
        return real(*args)

    monkeypatch.setattr(region, "_stream_task", task)


def _fork_fails(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("breakage", [_dies_in_workers, _fork_fails])
def test_lost_worker_streams_run_here(monkeypatch, breakage):
    monkeypatch.setattr(region, "_usable_cores", lambda: 1)
    serial = maximize_nu(6, MILLI, MILLI, budget=400, seed=2, streams=5)
    breakage(monkeypatch)
    monkeypatch.setattr(region, "_usable_cores", lambda: 3)
    assert maximize_nu(6, MILLI, MILLI, budget=400, seed=2, streams=5) == serial
    _no_child_left()


def test_interrupt_kills_the_workers(monkeypatch):
    # the workers' streams would take a minute; the parent's first stream
    # is interrupted at once, and every worker must be killed and reaped
    def task(win, d, seed, stream, *rest):
        if stream == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(region, "_stream_task", task)
    monkeypatch.setattr(region, "_usable_cores", lambda: 3)
    forks = _count_forks(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        maximize_nu(6, MILLI, MILLI, budget=400, seed=2, streams=8)
    assert time.perf_counter() - t0 < 10
    assert len(forks) == 2
    _no_child_left()


def test_search_stays_serial_with_a_thread_alive(monkeypatch):
    monkeypatch.setattr(region, "_usable_cores", lambda: 2)
    forked = maximize_nu(6, MILLI, MILLI, budget=400, seed=2, streams=4)

    def no_fork():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert threading.active_count() > 1
        serial = maximize_nu(6, MILLI, MILLI, budget=400, seed=2, streams=4)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert serial == forked


# --- one rule for both entry points ----------------------------------------------

_C4_EMPTY = "region empty at d=6: the C4 totals window [8/25, 63/200] is empty"
_C2_EMPTY = ("region empty at d=6: two C4 totals of at most 639/2000 cannot "
             "reach the C2 pair bound 658151/1000000")
_CAPACITY_EMPTY = "region empty at d=2: the weighted c-sum cannot reach 1 - eps^2"
_D2_REFUSED = ("d < 3 is only supported where the weighted-capacity argument "
               "proves the region empty; these slacks are too large")


@pytest.mark.parametrize("d, delta, epsilon, kind, message", [
    (6, F(0), F(1, 20), "empty", _C4_EMPTY),
    (6, MILLI, F(43, 1000), "empty", _C2_EMPTY),
    (2, MILLI, MILLI, "empty", _CAPACITY_EMPTY),
    (2, F(1, 5), MILLI, "refused", _D2_REFUSED),
    (0, MILLI, MILLI, "refused", "d must be >= 1"),
    (6, -MILLI, MILLI, "refused", "delta and epsilon must be non-negative"),
    (6, MILLI, -MILLI, "refused", "delta and epsilon must be non-negative"),
], ids=["c4-window", "c2-c4", "d2-capacity", "d2-large-slack", "d0",
        "delta-negative", "epsilon-negative"])
def test_sampler_and_search_share_the_region_rule(d, delta, epsilon, kind, message):
    # an empty region: the search reports it and the sampler raises its
    # reason; a refused query: both raise the same message
    with pytest.raises(ValueError) as sampled:
        sample_feasible(d, delta, epsilon, 3, seed=0)
    if kind == "empty":
        rep = maximize_nu(d, delta, epsilon, budget=10)
        assert (rep.outcome, rep.samples, rep.maximum) == ("region-empty", 0, None)
        assert rep.note == f"{message}; nothing to search"
    else:
        with pytest.raises(ValueError) as searched:
            maximize_nu(d, delta, epsilon, budget=10)
        assert str(searched.value) == message
    assert str(sampled.value) == message


def test_sampler_names_the_empty_c4_window_on_its_grid():
    # on the 1/7 lattice C4 rounds inward to [3/7, 2/7]: refused by the
    # rule before any draw, not from inside the draw loop
    with pytest.raises(ValueError) as sampled:
        sample_feasible(6, F(0), F(0), 5, seed=0, grid=7)
    assert str(sampled.value) == (
        "region empty at d=6: the C4 totals window [3/7, 2/7] is empty")
