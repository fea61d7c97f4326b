import json
import random
import signal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abckit.bounds import (
    EXTENDED_METHOD,
    METHOD_NAMES,
    ExponentConfiguration,
    SubsetSearchRefusal,
    _cover_branch_bound,
    _cover_exhaustive,
    _mask_to_classes,
    best_bound,
    determinant_bound,
    evaluate_at,
    extended_fourier_bound,
    fast_best,
    fast_scale,
    fourier_bound,
    geometry_bound,
    thue_bound,
    trivial_bound,
)
from abckit.cli import main

F = Fraction


def cfg_of(a, b, c, delta=0, epsilon=0):
    return ExponentConfiguration(
        d=len(a), a=a, b=b, c=c, delta=F(delta), epsilon=F(epsilon)
    )


def zeros(d, delta=0):
    z = [F(0)] * d
    return cfg_of(z, z, z, delta=delta)


# --- frozen single-method examples ---


def test_trivial_frozen():
    cfg = cfg_of([F(33, 100)], [F(33, 100)], [F(34, 100)])
    rep = trivial_bound(cfg)
    assert rep.value == F(66, 100)
    assert rep.witness == {"pair": ["a", "b"]}
    third = [F(1, 3)]
    assert trivial_bound(cfg_of(third, third, third)).value == F(2, 3)
    assert trivial_bound(zeros(2)).value == 0


def test_fourier_frozen():
    # d=1: no subtracted term
    cfg = cfg_of([F(1, 5)], [F(3, 10)], [F(2, 5)])
    rep = fourier_bound(cfg)
    assert rep.value == F(13, 20)  # (1 + 3/10)/2 via pair (a, b)
    assert rep.witness["pair"] == ["a", "b"] and rep.witness["m"] is None
    # d=2: the high-class maximum cancels the series tail
    cfg = cfg_of([F(0), F(1, 5)], [F(0), F(1, 10)], [F(1), F(0)])
    rep = fourier_bound(cfg)
    assert rep.value == F(1, 2)
    assert rep.witness == {"pair": ["a", "b"], "m": 2}
    shifted = cfg_of([F(0), F(1, 5)], [F(0), F(1, 10)], [F(1), F(0)], delta=F(1, 1000))
    assert fourier_bound(shifted).value == F(1, 2) + F(1, 2000)


def test_geometry_frozen():
    # all classes selected pushes W past 1 for free
    cfg = cfg_of([F(1, 3)], [F(1, 3)], [F(1)])
    rep = geometry_bound(cfg)
    assert rep.value == 0
    assert rep.witness == {"I": [1], "Ip": [1], "Ipp": [1]}
    cfg = cfg_of([F(0), F(17, 100)], [F(0), F(17, 100)], [F(0), F(1, 2)])
    rep = geometry_bound(cfg)
    assert rep.value == F(1, 2)
    assert rep.witness == {"I": [], "Ip": [], "Ipp": [2]}
    # empty subsets are always on the table
    assert geometry_bound(zeros(3, delta=F(1, 50))).value == 1 + F(1, 50)


def test_determinant_frozen():
    assert determinant_bound(zeros(2, delta=F(1, 10))).value == 1 + F(1, 10)
    cfg = cfg_of([F(1, 5), F(0)], [F(0), F(3, 10)], [F(0), F(0)])
    rep = determinant_bound(cfg)
    assert rep.value == F(3, 5)
    assert rep.witness == {"pair": ["a", "b"], "p": 1, "q": 2}
    # swapping a and b cannot change the minimized value
    swapped = cfg_of([F(0), F(3, 10)], [F(1, 5), F(0)], [F(0), F(0)])
    assert determinant_bound(swapped).value == F(3, 5)


def test_thue_frozen():
    assert thue_bound(zeros(1, delta=F(1, 100))).value == 1 + F(1, 100)
    cfg = cfg_of(
        [F(0), F(1, 10), F(0), F(1, 20)],
        [F(0), F(1, 5), F(0), F(1, 10)],
        [F(0)] * 4,
    )
    rep = thue_bound(cfg)
    assert rep.value == F(11, 20)  # 1 - (0.3 + 0.15) at p = 2
    assert rep.witness == {"pair": ["a", "b"], "p": 2}


def test_best_frozen():
    rep = best_bound(zeros(2))
    assert rep.value == 0
    assert rep.witness["method"] == "trivial"
    cfg = cfg_of([F(0), F(1, 5)], [F(0), F(1, 10)], [F(1), F(0)])
    # sub-values: trivial 3/10, fourier 1/2, geometry 0 (c's first class
    # covers the target for free), determinant 0, thue 7/10
    assert trivial_bound(cfg).value == F(3, 10)
    assert fourier_bound(cfg).value == F(1, 2)
    assert geometry_bound(cfg).value == 0
    assert determinant_bound(cfg).value == 0
    assert thue_bound(cfg).value == F(7, 10)
    rep = best_bound(cfg)
    assert rep.value == 0
    assert rep.witness["method"] == "geometry"  # first method hitting the min
    assert evaluate_at(cfg, rep.method, rep.witness) == 0


def test_extended_fourier_never_above_fourier():
    rng = random.Random(7)
    for _ in range(200):
        cfg = _random_cfg(rng, max_d=5)
        assert extended_fourier_bound(cfg).value <= fourier_bound(cfg).value


def test_exhaustive_refusal():
    cfg = zeros(13)
    with pytest.raises(SubsetSearchRefusal):
        geometry_bound(cfg, mode="exhaustive")
    # branch-and-bound keeps working at that size
    assert geometry_bound(cfg).value == 1
    with pytest.raises(ValueError):
        best_bound(cfg, methods=())


# --- randomized invariants ---


def _random_cfg(rng, max_d=4, dens=(2, 3, 4, 5, 6, 10, 12), with_delta=True):
    d = rng.randint(1, max_d)

    def vec():
        return tuple(
            F(rng.randint(0, 8), rng.choice(dens) * 4) for _ in range(d)
        )

    delta = F(rng.randint(0, 10), 1000) if with_delta else F(0)
    return ExponentConfiguration(d=d, a=vec(), b=vec(), c=vec(), delta=delta)


def _tail_shaped_cfg(rng, d):
    """Shaped like GEOMETRY_TAIL below: per vector a large class-1 entry,
    small middle entries and one large top-class entry, which alone
    overshoots most of the deficit the class-1 entries leave."""
    grid = 3_000_000

    def vec():
        middle = [rng.choice((0, rng.randint(1, 12_000))) for _ in range(d - 2)]
        return tuple(
            F(x, grid) for x in [rng.randint(650_000, 800_000), *middle,
                                 rng.randint(150_000, 300_000)]
        )

    return ExponentConfiguration(d=d, a=vec(), b=vec(), c=vec(), delta=F(1, 1000))


def test_geometry_branch_bound_equals_exhaustive():
    rng = random.Random(20260817)
    configs = [_random_cfg(rng) for _ in range(250)]
    tail_rng = random.Random(8)
    configs += [_tail_shaped_cfg(tail_rng, d) for d in (2, 3, 4, 5) for _ in range(15)]
    for cfg in configs:
        bb = geometry_bound(cfg, mode="branch-and-bound")
        ex = geometry_bound(cfg, mode="exhaustive")
        assert bb.value == ex.value, cfg
        assert evaluate_at(cfg, "geometry", bb.witness) == bb.value
        assert evaluate_at(cfg, "geometry", ex.witness) == ex.value


def test_witness_validity_all_methods():
    rng = random.Random(99)
    for _ in range(150):
        cfg = _random_cfg(rng, max_d=5)
        for fn in (
            trivial_bound,
            fourier_bound,
            geometry_bound,
            determinant_bound,
            thue_bound,
            extended_fourier_bound,
            best_bound,
        ):
            rep = fn(cfg)
            assert evaluate_at(cfg, rep.method, rep.witness) == rep.value, (fn, cfg)


def test_permutation_invariance():
    from itertools import permutations

    rng = random.Random(5)
    for _ in range(60):
        cfg = _random_cfg(rng, max_d=4)
        base = {
            name: fn(cfg).value
            for name, fn in (
                ("trivial", trivial_bound),
                ("fourier", fourier_bound),
                ("geometry", geometry_bound),
                ("determinant", determinant_bound),
                ("thue", thue_bound),
                ("best", best_bound),
            )
        }
        for perm in permutations((cfg.a, cfg.b, cfg.c)):
            other = ExponentConfiguration(
                d=cfg.d, a=perm[0], b=perm[1], c=perm[2], delta=cfg.delta
            )
            assert trivial_bound(other).value == base["trivial"]
            assert fourier_bound(other).value == base["fourier"]
            assert geometry_bound(other).value == base["geometry"]
            assert determinant_bound(other).value == base["determinant"]
            assert thue_bound(other).value == base["thue"]
            assert best_bound(other).value == base["best"]


def test_delta_monotonicity():
    rng = random.Random(123)
    t = F(3, 500)
    for _ in range(60):
        cfg = _random_cfg(rng, max_d=4)
        bumped = ExponentConfiguration(
            d=cfg.d, a=cfg.a, b=cfg.b, c=cfg.c, delta=cfg.delta + t
        )
        assert trivial_bound(bumped).value == trivial_bound(cfg).value
        assert fourier_bound(bumped).value == fourier_bound(cfg).value + t / 2
        assert geometry_bound(bumped).value == geometry_bound(cfg).value + t
        assert determinant_bound(bumped).value == determinant_bound(cfg).value + t
        assert thue_bound(bumped).value == thue_bound(cfg).value + t


# --- every integer core against the Fraction replay ---

_PAIRS = (["a", "b"], ["a", "c"], ["b", "c"])
_ORDERED_PAIRS = (
    ["a", "b"], ["a", "c"], ["b", "a"], ["b", "c"], ["c", "a"], ["c", "b"])


def _witness_space(method, d):
    """Every witness of a minimizing method, in the order its core scans."""
    high = list(range(2, d + 1)) or [None]  # no subtracted class when d < 2
    classes = range(1, d + 1)
    if method == "trivial":
        return [{"pair": pr} for pr in _PAIRS]
    if method == "fourier":
        return [{"pair": pr, "m": m} for pr in _PAIRS for m in high]
    if method == EXTENDED_METHOD:
        return [{"pair": pr, "i": i} for pr in _ORDERED_PAIRS for i in high]
    if method == "determinant":
        return [{"pair": pr, "p": p, "q": q}
                for pr in _PAIRS for p in classes for q in classes]
    # thue: the empty pooling, worth 1 + delta, comes first
    return [{"pair": None, "p": None}] + [
        {"pair": pr, "p": p} for pr in _PAIRS for p in range(2, d + 1)]


_REPLAYED = {
    "trivial": trivial_bound,
    "fourier": fourier_bound,
    EXTENDED_METHOD: extended_fourier_bound,
    "determinant": determinant_bound,
    "thue": thue_bound,
}


def _replay_configs():
    """200 configs on the 3,000,000 grid, then 200 with mixed denominators,
    each with the grid fast_best reads it on."""
    grid = 3_000_000
    rng = random.Random(4242)
    for _ in range(200):
        d = rng.randint(1, 6)

        def vec():
            return tuple(
                F(rng.randint(0, grid // 3), grid) for _ in range(d)
            )

        yield ExponentConfiguration(
            d=d, a=vec(), b=vec(), c=vec(), delta=F(rng.randint(0, 3000), grid)
        ), grid
    rng = random.Random(4243)
    for _ in range(200):
        cfg = _random_cfg(rng, max_d=6)
        yield cfg, lcm(cfg.delta.denominator,
                       *(x.denominator for x in cfg.a + cfg.b + cfg.c))


def test_cores_replay_to_first_minimizer():
    for cfg, grid in _replay_configs():
        for method, fn in _REPLAYED.items():
            rep = fn(cfg)
            space = _witness_space(method, cfg.d)
            values = [evaluate_at(cfg, method, w) for w in space]
            low = min(values)
            assert rep.value == low, (method, cfg)
            assert rep.witness == space[values.index(low)], (method, cfg)
        vecs, dn = fast_scale(cfg, grid)
        for methods in (None, METHOD_NAMES + (EXTENDED_METHOD,)):
            num, den, method = fast_best(vecs, dn, grid, methods)
            rep = best_bound(cfg, methods=methods)
            assert (F(num, den), method) == (rep.value, rep.witness["method"])


def test_best_bound_method_lists():
    cfg = cfg_of([F(1, 10), F(1, 5)], [F(1, 10), F(1, 5)], [F(3, 10), F(0)])
    alone = best_bound(cfg, methods=(EXTENDED_METHOD,))
    assert alone.value == extended_fourier_bound(cfg).value
    assert alone.witness["method"] == EXTENDED_METHOD
    with pytest.raises(ValueError):
        best_bound(cfg, methods=("trivial", "nope"))


def test_fast_path_restricted_methods():
    cfg = cfg_of([F(1, 10), F(1, 5)], [F(1, 10), F(1, 5)], [F(3, 10), F(0)])
    vecs, dn = fast_scale(cfg, 30)
    num, den, method = fast_best(vecs, dn, 30, methods=("trivial",))
    assert method == "trivial"
    assert F(num, den) == trivial_bound(cfg).value


def test_fast_scale_rejects_off_grid():
    cfg = cfg_of([F(1, 7)], [F(0)], [F(0)])
    with pytest.raises(ValueError):
        fast_scale(cfg, 3_000_000)


# --- configuration plumbing ---


def test_config_accessors():
    cfg = cfg_of(
        [F(1, 10), F(1, 5)], [F(1, 20), F(1, 4)], [F(0), F(3, 10)], delta=F(1, 1000)
    )
    assert cfg.totals == (F(3, 10), F(3, 10), F(3, 10))
    assert cfg.slack("a") == F(1, 3) - F(3, 10)
    assert cfg.slack_ab == 2 * (F(1, 3) - F(3, 10))
    assert cfg.slack_total == 1 - F(9, 10)
    assert cfg.class_sums == (F(3, 20), F(3, 4))


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_of([F(-1, 10)], [F(0)], [F(0)])
    with pytest.raises(ValueError):
        ExponentConfiguration(d=2, a=(F(0),), b=(F(0), F(0)), c=(F(0), F(0)))
    with pytest.raises(ValueError):
        zeros(0)
    with pytest.raises(ValueError):
        ExponentConfiguration(
            d=1, a=(F(0),), b=(F(0),), c=(F(0),), delta=F(-1, 10)
        )


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_best_below_each_method(seed):
    cfg = _random_cfg(random.Random(seed), max_d=4)
    best = best_bound(cfg)
    for fn in (trivial_bound, fourier_bound, geometry_bound, determinant_bound, thue_bound):
        assert best.value <= fn(cfg).value


# --- the fast path with a floor ---

_FLOOR_METHOD_LISTS = (
    None,  # the default order
    ("thue", "determinant", "trivial", "geometry", "fourier"),
    ("trivial", "fourier", "geometry", "determinant", "thue", EXTENDED_METHOD),
)


def _grid_vecs(rng, grid):
    """Entries on the grid: fully random, or with each total near 1/3 as in
    the constraint region, where geometry usually wins."""
    d = rng.randint(1, 7)
    if rng.random() < 0.3:
        return tuple(
            tuple(rng.randint(0, grid // 3) for _ in range(d)) for _ in range(3)
        )
    out = []
    for _ in range(3):
        raw = [rng.choice((0, rng.randint(1, 100))) for _ in range(d)]
        total = rng.randint(grid * 8 // 25, grid * 17 // 50)
        out.append(tuple(r * total // (sum(raw) or 1) for r in raw))
    return tuple(out)


def test_fast_best_floor_contract():
    rng = random.Random(31337)
    below_floor = 0
    for _ in range(500):
        grid = rng.choice((12, 60, 3_000))  # coarse grids make ties common
        vecs = _grid_vecs(rng, grid)
        dn = rng.randint(0, 10)
        for methods in _FLOOR_METHOD_LISTS:
            exact = fast_best(vecs, dn, grid, methods)
            value = F(exact[0], exact[1])
            for floor in (value - F(1, 7), value, value + F(1, grid), value + F(1, 5)):
                got = fast_best(
                    vecs, dn, grid, methods,
                    floor=(floor.numerator, floor.denominator),
                )
                assert got[2] == exact[2], (vecs, dn, methods, floor)
                if value >= floor:
                    assert got == exact, (vecs, dn, methods, floor)
                else:
                    bound = F(got[0], got[1])
                    assert value <= bound < floor, (vecs, dn, methods)
                    below_floor += got != exact
                    # a floor equal to that bound is still never reached
                    again = fast_best(
                        vecs, dn, grid, methods,
                        floor=(bound.numerator, bound.denominator),
                    )
                    assert again[2] == exact[2]
                    assert value <= F(again[0], again[1]) < bound or again == exact
    # the early exit is exercised, not just the exact path
    assert below_floor > 150


def test_cover_branch_bound_stop_at():
    rng = random.Random(2718)
    stopped = 0
    for _ in range(300):
        d = rng.randint(1, 7)
        entries = tuple(
            tuple(rng.choice((0, rng.randint(1, 40))) for _ in range(d))
            for _ in range(3)
        )
        target = rng.randint(1, 200)
        best, _ = _cover_branch_bound(entries, target)
        assert best == _cover_exhaustive(entries, target)[0]
        for stop_at in (best - 1, best, best + 1, best + 25, 10**6):
            val, masks = _cover_branch_bound(entries, target, stop_at=stop_at)
            assert val == best or best <= val <= stop_at
            stopped += val != best
            w = s = 0
            for vec, mask in zip(entries, masks):
                for i in _mask_to_classes(mask):
                    w += i * vec[i - 1]
                    s += vec[i - 1]
            assert max(target, w) - s == val
        # a stop the optimum cannot reach leaves the certified optimum
        assert _cover_branch_bound(entries, target, stop_at=best - 1) == (
            _cover_branch_bound(entries, target)
        )
    assert stopped > 50



def _search_leaves(entries, target):
    """Every leaf of the cover search in the order the search meets it, as
    (value, masks): first the free items alone (the starting incumbent),
    then the tree over the other nonzero items sorted by (class, -u) with
    u = class * entry, taking an item before skipping it, and a leaf once
    the deficit is covered or the items run out."""
    free = [1 if vec and vec[0] else 0 for vec in entries]
    deficit = target - sum(vec[0] for vec in entries if vec)
    items = sorted(
        ((ei + 1, vi, ei) for vi, vec in enumerate(entries)
         for ei, v in enumerate(vec) if v and ei),
        key=lambda t: (t[0], -t[0] * entries[t[1]][t[2]]),
    )
    leaves = [(max(deficit, 0), tuple(free))]

    def walk(k, cost, rem, masks):
        if rem <= 0 or k == len(items):
            leaves.append((cost + max(rem, 0), tuple(masks)))
            return
        i, vi, ei = items[k]
        v = entries[vi][ei]
        taken = list(masks)
        taken[vi] |= 1 << ei
        walk(k + 1, cost + (i - 1) * v, rem - i * v, taken)
        walk(k + 1, cost, rem, masks)

    if deficit > 0:
        walk(0, 0, deficit, free)
    return leaves


def test_cover_branch_bound_returns_first_leaf_in_search_order():
    rng = random.Random(1957)
    for case in range(2000):
        target = rng.randint(1, 1000)
        if case % 2:
            # entries whose coverage i * v overshoots the deficit
            d = rng.randint(1, 5)

            def entry(i):
                return rng.choice((0, rng.randint(1, 30), rng.randint(target // i, target)))
        else:
            # many items of coverage up to target / 5: long searches, some
            # of whose records come late
            d = 5

            def entry(i):
                return rng.randint(0, target // (5 * i) + 1)
        entries = tuple(tuple(entry(i) for i in range(1, d + 1)) for _ in range(3))
        leaves = _search_leaves(entries, target)
        opt = min(value for value, _ in leaves)
        first_opt = next(leaf for leaf in leaves if leaf[0] == opt)
        assert _cover_branch_bound(entries, target) == first_opt, (entries, target)
        assert _cover_branch_bound(entries, target, track=False)[0] == opt
        for stop_at in (opt - 1, opt, opt + 1, 10**9):
            want = next((leaf for leaf in leaves if leaf[0] <= stop_at), first_opt)
            got = _cover_branch_bound(entries, target, stop_at=stop_at)
            assert got == want, (entries, target, stop_at)
            got = _cover_branch_bound(entries, target, track=False, stop_at=stop_at)
            assert got[0] == want[0], (entries, target, stop_at)


# The replay benchmark's fixed geometry input (bench/workloads.py): eight
# classes, each vector a large class-1 entry, small middle entries and one
# large class-8 entry.
GEOMETRY_TAIL = {
    "d": 8,
    "a": ["783853/3000000", "287/375000", "967/600000", "3769/3000000",
          "409/300000", "777/1000000", "623/375000", "33373/500000"],
    "b": ["713989/3000000", "8059/3000000", "3559/1000000", "3551/3000000",
          "1963/1000000", "1/6000", "51/100000", "17719/200000"],
    "c": ["7023/31250", "5801/1500000", "31/1000000", "691/750000",
          "7/40000", "139/93750", "67/750000", "70627/750000"],
    "delta": "1/1000",
    "epsilon": "1/1000",
}


def _tail_doc(d):
    """GEOMETRY_TAIL stretched to d > 8 classes: the class-1 and top entries
    kept, the six middle entries halved and repeated in turn, so that the
    middle items still cover well under the deficit the class-1 entries
    leave.  The cheaper completion bound alone visits about 8x more nodes
    per added class on this shape."""
    doc = dict(GEOMETRY_TAIL, d=d)
    for name in "abc":
        vec = GEOMETRY_TAIL[name]
        middle = [str(F(vec[1 + j % 6]) / 2) for j in range(d - 2)]
        doc[name] = [vec[0], *middle, vec[-1]]
    return doc


def test_geometry_tail_pinned():
    doc = GEOMETRY_TAIL
    cfg = cfg_of(*(tuple(F(x) for x in doc[name]) for name in "abc"),
                 delta=F(doc["delta"]), epsilon=F(doc["epsilon"]))
    rep = geometry_bound(cfg)
    assert rep.value == F(252913, 1000000)
    first_seven = list(range(1, 8))
    assert rep.witness == {"I": first_seven, "Ip": first_seven, "Ipp": first_seven}
    assert evaluate_at(cfg, "geometry", rep.witness) == rep.value


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout


def test_bounds_eval_tail_shape_d12_answers(capsys, tmp_path):
    path = tmp_path / "tail12.json"
    path.write_text(json.dumps(_tail_doc(12)))
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        code = main(["bounds", "eval", "--config", str(path)])
    except _Timeout:
        pytest.fail("bounds eval on a d = 12 tail-shaped configuration took over 5 s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    cfg = cfg_of(*(tuple(F(x) for x in doc["config"][name]) for name in "abc"),
                 delta=F(doc["config"]["delta"]))
    reports = {rep["method"]: rep for rep in doc["reports"]}
    geometry = reports["geometry"]
    assert evaluate_at(cfg, "geometry", geometry["witness"]) == F(geometry["value"])
    assert F(reports["best"]["value"]) <= F(geometry["value"])
