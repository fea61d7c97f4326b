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
from abckit.bounds import ExponentConfiguration, best_bound
from abckit.region import (
    RegionSearchReport,
    _hill_steps,
    _randint,
    _to_config,
    _vectors_feasible,
    _windows_for,
    check_constraints,
    corner_config,
    explore_theta,
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
    # deviation diagnostics
    assert rep.record("R2-ab").slack == F(1, 10**6)
    assert rep.record("R3-upper").slack == MILLI
    assert rep.record("R3-lower").slack == F(11, 1000)
    assert rep.record("R3-lower").strict
    assert rep.record("R1-a-upper").slack == F(3, 250)


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
        assert cfg.totals == (F(1, 3), F(1, 3), F(1, 3))


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
    win = _windows_for(d, MILLI, MILLI, None)
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
    cfg = corner_config(6, MILLI, MILLI, F(49, 800), F(31, 200))
    assert cfg is not None
    assert cfg.class_sums[0] == F(49, 800)
    assert cfg.class_sums[1] == F(31, 200)
    assert check_constraints(cfg).feasible
    for s1, s2 in ((F(157, 2000), F(33, 250)), (F(17, 240), F(7, 60))):
        got = corner_config(6, MILLI, MILLI, s1, s2)
        assert got is not None and got.class_sums[:2] == (s1, s2)


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
    with pytest.raises(ValueError):
        maximize_nu(6, MILLI, MILLI, budget=10, grid=12)  # delta off-lattice
    for streams in (0, -2):
        with pytest.raises(ValueError, match="must be >= 1"):
            maximize_nu(6, MILLI, MILLI, budget=10, streams=streams)
        # refused before the empty-region shortcut too
        with pytest.raises(ValueError, match="must be >= 1"):
            maximize_nu(2, MILLI, MILLI, budget=10, streams=streams)


def test_theta_exploration():
    rep = explore_theta(
        6, MILLI, MILLI, budget=900, seed=1, rounds=3, streams=2,
        methods=("trivial",),
    )
    assert not rep.certified
    assert len(rep.rounds) == 3
    assert rep.sup is not None and rep.sup >= F(33, 50) - F(1, 10**6)
    assert rep.theta_estimate == rep.sup
    assert best_bound(rep.argmax, methods=("trivial",)).value == rep.sup


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
        out = [
            maximize_nu(d, MILLI, MILLI, budget=240, seed=d + streams,
                        streams=streams, methods=methods)
            for d in (4, 6, 8)
            for streams in (1, 3, 8)
            for methods in (("trivial",), None)
        ]
        out.append(explore_theta(6, MILLI, MILLI, budget=600, seed=1,
                                 rounds=3, streams=2))
        return out

    forks = _count_forks(monkeypatch)
    runs = {}
    for cores in (1, 2, 3):
        monkeypatch.setattr(region, "_usable_cores", lambda: cores)
        before = len(forks)
        runs[cores] = reports()
        _no_child_left()
        # streams 1, 3, 8 per d and methods; theta's 3 rounds of 2 streams
        per_search = sum(min(s, cores) - 1 for s in (1, 3, 8))
        assert len(forks) - before == 6 * per_search + 3 * (min(2, cores) - 1)
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]
    assert all(rep.outcome == "ok" for rep in runs[1][:-1])


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
