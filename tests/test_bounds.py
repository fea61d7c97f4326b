import json
import random
import signal
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abckit.bounds import (
    EXTENDED_METHOD,
    METHOD_NAMES,
    VECTOR_NAMES,
    ExponentConfiguration,
    SubsetSearchRefusal,
    _METHODS,
    _cover_branch_bound,
    _cover_exhaustive,
    _greedy_cover,
    _lower_bounds,
    _mask_to_classes,
    best_bound,
    determinant_bound,
    evaluate_at,
    extended_fourier_bound,
    fast_best,
    fast_scale,
    fourier_bound,
    geometry_bound,
    resolve_methods,
    thue_bound,
    trivial_bound,
)
from abckit.cli import main
from abckit.region import sample_feasible

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
    # d = 11 would enumerate 2**33 subset triples; the refusal is immediate
    t0 = time.perf_counter()
    with pytest.raises(SubsetSearchRefusal):
        geometry_bound(zeros(11), mode="exhaustive")
    assert time.perf_counter() - t0 < 1
    cfg = zeros(13)
    with pytest.raises(SubsetSearchRefusal):
        geometry_bound(cfg, mode="exhaustive")
    # branch-and-bound keeps working at that size
    assert geometry_bound(cfg).value == 1
    with pytest.raises(ValueError):
        best_bound(cfg, methods=())


# --- randomized invariants ---


def _random_cfg(rng, max_d=4, dens=(2, 3, 4, 5, 6, 10, 12), with_delta=True, d=None):
    d = d or rng.randint(1, max_d)

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
    configs += [_tail_shaped_cfg(tail_rng, d) for d in (6, 7, 8) for _ in range(4)]
    # the region's own shapes, where its maxima sit, up to EXHAUSTIVE_LIMIT
    for d in (6, 8, 9, 10):
        configs += sample_feasible(d, F(1, 1000), F(1, 1000), 4, seed=d)
    # every entry nonzero: the exhaustive search's worst case at d = 10
    dense_rng = random.Random(10)

    def dense():
        return tuple(F(dense_rng.randint(1, 300_000), 3_000_000) for _ in range(10))

    configs.append(cfg_of(dense(), dense(), dense(), delta=F(1, 1000)))
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
    """200 configs on the 3,000,000 grid, 200 with mixed denominators, then
    tie-heavy ones (all-zero vectors, equal entries, d = 1, entries in
    {0, 1/6, 1/3}), where scan order alone picks the witness; each with
    the grid fast_best reads it on."""
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
    for d in range(1, 7):
        yield zeros(d), 1
        yield zeros(d, delta=F(1, 5)), 5
        same = [F(1, 7)] * d
        yield cfg_of(same, same, same), 7
    rng = random.Random(4244)
    for _ in range(200):
        d = rng.choice((1, 1, 2, 3, 4, 5, 6))

        def vec():
            return tuple(F(rng.randint(0, 2), 6) for _ in range(d))

        yield cfg_of(vec(), vec(), vec(), delta=F(rng.randint(0, 1), 6)), 6


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


def test_determinant_first_minimizer_on_ties_at_high_d():
    # entries in {0, 1/6, 1/3} repeat each vector's maximum and make many
    # of the 2d candidates per pair equal; u_i = 1/i makes u_p / q equal
    # to v_q / p along whole diagonals
    rng = random.Random(712)
    for d in range(7, 13):
        space = _witness_space("determinant", d)
        harmonic = [F(1, i) for i in range(1, d + 1)]
        configs = [zeros(d), cfg_of(*[[F(1, 7)] * d] * 3, delta=F(1, 7)),
                   cfg_of(harmonic, harmonic, harmonic[::-1])]
        for _ in range(3):
            vec = lambda: [F(rng.randint(0, 2), 6) for _ in range(d)]
            configs.append(cfg_of(vec(), vec(), vec(), delta=F(rng.randint(0, 1), 6)))
        for cfg in configs:
            rep = determinant_bound(cfg)
            values = [evaluate_at(cfg, "determinant", w) for w in space]
            low = min(values)
            assert rep.value == low, cfg
            assert rep.witness == space[values.index(low)], cfg


# --- the integer replay against the Fraction replay it replaced ---


def _fraction_replay(cfg, method, witness):
    """evaluate_at as it was in Fraction arithmetic, kept as the reference."""
    if method == "trivial":
        u, v = witness["pair"]
        return sum(cfg.vector(u) + cfg.vector(v), Fraction(0))
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
        return _fraction_replay(cfg, witness["method"], witness["witness"])
    raise ValueError(f"unknown method {method!r}")


def _assert_replays_match(cfg, method, witness):
    got = evaluate_at(cfg, method, witness)
    assert type(got) is Fraction
    assert got == _fraction_replay(cfg, method, witness), (method, witness, cfg)


def test_integer_replay_equals_the_fraction_replay():
    rng = random.Random(2020)
    configs = [_random_cfg(rng, d=d) for d in range(1, 5) for _ in range(40)]
    for d, seed in ((6, 61), (8, 81), (10, 101)):
        configs += sample_feasible(d, F(1, 1000), F(1, 1000), 8, seed=seed)
    for cfg in configs:
        for fn in _EVALUATED:
            rep = fn(cfg)
            assert evaluate_at(cfg, rep.method, rep.witness) == rep.value
            _assert_replays_match(cfg, rep.method, rep.witness)
        # every witness of the scanned methods, not just the minimizers
        for method in _REPLAYED:
            for witness in _witness_space(method, cfg.d):
                _assert_replays_match(cfg, method, witness)
        geometry = geometry_bound(cfg).witness
        _assert_replays_match(cfg, "geometry", geometry)
        _assert_replays_match(cfg, "geometry",
                              {"I": [], "Ip": list(range(1, cfg.d + 1)), "Ipp": [1]})


def test_integer_replay_edge_witnesses():
    cfg = cfg_of([F(1, 5)], [F(3, 10)], [F(2, 5)], delta=F(1, 7))
    # fourier at d = 1 subtracts nothing; so does thue with no p
    for witness in ({"pair": ["a", "b"], "m": None}, {"pair": ["b", "c"], "m": None}):
        _assert_replays_match(cfg, "fourier", witness)
    _assert_replays_match(cfg, "thue", {"pair": None, "p": None})
    assert evaluate_at(cfg, "thue", {"pair": None, "p": None}) == F(8, 7)
    wide = cfg_of([F(1, 6), F(1, 4), F(0)], [F(1, 9), F(0), F(2, 15)],
                  [F(1, 2), F(1, 8), F(1, 10)], delta=F(3, 1000))
    # at d >= 2 no core emits a None m or i, and replay refuses them
    for pair in _ORDERED_PAIRS:
        with pytest.raises(ValueError, match=EXTENDED_METHOD):
            evaluate_at(wide, EXTENDED_METHOD, {"pair": pair, "i": None})
    # a determinant tie: u_p * p == v_q * q, so u_p / q == v_q / p
    tie = cfg_of([F(0), F(1, 6), F(0)], [F(0), F(0), F(1, 9)], [F(0)] * 3,
                 delta=F(1, 1000))
    witness = {"pair": ["a", "b"], "p": 2, "q": 3}
    assert tie.a[1] * 2 == tie.b[2] * 3
    _assert_replays_match(tie, "determinant", witness)
    assert evaluate_at(tie, "determinant", witness) == (
        1 + F(1, 1000) - F(1, 6) - F(1, 9) + F(1, 18))
    # best replays the winner's witness
    rep = best_bound(tie, methods=METHOD_NAMES + (EXTENDED_METHOD,))
    _assert_replays_match(tie, "best", rep.witness)


def _named(method, witness, d):
    """The (vector, class) entries a witness names: what replay reads."""
    if method == "geometry":
        return {(name, i) for name, key in zip(VECTOR_NAMES, ("I", "Ip", "Ipp"))
                for i in witness[key]}
    u, v = witness["pair"]
    if method == "determinant":
        return {(u, witness["p"]), (v, witness["q"])}
    if method == "thue":
        return {(name, i) for name in (u, v) for i in range(witness["p"], d + 1, witness["p"])}
    return {(name, i) for name in (u, v) for i in range(1, d + 1)}


def test_integer_replay_reads_only_the_named_denominators():
    # named entries and delta on eighths, every other entry on a prime
    # denominator coprime to 8: the replay's lcm leaves the unnamed
    # entries out, and the value must not notice
    rng = random.Random(3107)
    for d in range(2, 7):
        for method in (*_REPLAYED, "geometry"):
            if method == "geometry":
                pick = lambda: sorted(rng.sample(range(1, d + 1), rng.randint(0, d)))
                witnesses = [{"I": pick(), "Ip": pick(), "Ipp": pick()} for _ in range(4)]
            else:
                witnesses = rng.choices(_witness_space(method, d), k=4)
            for witness in witnesses:
                if method == "thue" and witness["p"] is None:
                    continue
                named = _named(method, witness, d)
                a, b, c = ([F(rng.randint(0, 8), 8) if (name, i) in named
                            else F(rng.randint(1, 30), rng.choice((3, 5, 7, 11, 13)))
                            for i in range(1, d + 1)] for name in VECTOR_NAMES)
                cfg = cfg_of(a, b, c, delta=F(rng.randint(0, 8), 8))
                _assert_replays_match(cfg, method, witness)


def test_replay_is_independent_of_the_cores(monkeypatch):
    import abckit.bounds as B

    rng = random.Random(77)
    configs = [_random_cfg(rng, d=d) for d in (1, 2, 3, 4) for _ in range(5)]
    configs += sample_feasible(6, F(1, 1000), F(1, 1000), 3, seed=6)
    reports = [(cfg, fn(cfg)) for cfg in configs for fn in _EVALUATED]

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate_at reached an integer core")

    monkeypatch.setattr(B, "fast_scale", refuse)
    for name, (_, replay) in B._METHODS.items():
        monkeypatch.setitem(B._METHODS, name, (refuse, replay))
    for cfg, rep in reports:
        fresh = _fresh(cfg)
        assert evaluate_at(fresh, rep.method, rep.witness) == rep.value
        assert "grid" not in fresh.__dict__


@pytest.mark.parametrize("method, witness", [
    ("geometry", {"I": [0], "Ip": [], "Ipp": []}),
    ("geometry", {"I": [], "Ip": [4], "Ipp": []}),
    ("geometry", {"I": [], "Ip": [], "Ipp": [-1]}),
    ("determinant", {"pair": ["a", "b"], "p": 0, "q": 1}),
    ("determinant", {"pair": ["a", "b"], "p": 1, "q": 4}),
    ("determinant", {"pair": ["b", "c"], "p": -2, "q": 2}),
    ("fourier", {"pair": ["a", "b"], "m": 0}),
    ("fourier", {"pair": ["a", "c"], "m": 4}),
    (EXTENDED_METHOD, {"pair": ["a", "b"], "i": 0}),
    (EXTENDED_METHOD, {"pair": ["c", "a"], "i": -3}),
    ("thue", {"pair": ["a", "b"], "p": 0}),
    ("thue", {"pair": ["a", "b"], "p": 5}),
    ("best", {"method": "determinant",
              "witness": {"pair": ["a", "b"], "p": 3, "q": 0}}),
])
def test_replay_refuses_class_indices_outside_1_to_d(method, witness):
    cfg = cfg_of([F(1, 5), F(1, 10), F(1, 20)], [F(1, 4), F(0), F(1, 8)],
                 [F(1, 3), F(1, 6), F(1, 9)], delta=F(1, 1000))
    with pytest.raises(ValueError, match=r"class index -?\d+ outside 1\.\.3"):
        evaluate_at(cfg, method, witness)


@pytest.mark.parametrize("method, witness", [
    ("fourier", {"pair": ["a", "b"]}),
    ("determinant", {"pair": ["a", "b"], "p": 1, "q": 2, "r": 3}),
    ("trivial", [["a", "b"]]),
    ("fourier", {"pair": ["a", "z"], "m": 2}),
    ("trivial", {"pair": ["a"]}),
    ("trivial", {"pair": ["a", "a"]}),
    ("determinant", {"pair": "ab", "p": 1, "q": 1}),
    ("fourier", {"pair": ["a", "b"], "m": "2"}),
    ("determinant", {"pair": ["a", "b"], "p": 2.0, "q": 1}),
    ("thue", {"pair": ["a", "b"], "p": True}),
    ("thue", {"pair": ["a", "b"], "p": 1}),
    ("fourier", {"pair": ["a", "b"], "m": 1}),
    (EXTENDED_METHOD, {"pair": ["a", "b"], "i": 1}),
    ("thue", {"pair": None, "p": 2}),
    ("thue", {"pair": ["a", "b"], "p": None}),
    ("geometry", {"I": [1, 1], "Ip": [], "Ipp": []}),
    ("geometry", {"I": [], "Ip": "12", "Ipp": []}),
    ("best", ["trivial", {"pair": ["a", "b"]}]),
    ("best", {"method": "best", "witness": {"method": "trivial",
                                            "witness": {"pair": ["a", "b"]}}}),
    ("best", {"method": ["trivial"], "witness": {"pair": ["a", "b"]}}),
    ("fourier", {"pair": ["a", "c"], "m": None}),
])
def test_replay_refuses_witnesses_outside_the_formula(method, witness):
    # no core emits any of these witnesses; unchecked, each would replay to
    # a value or fail with a bare KeyError or TypeError
    cfg = cfg_of([F(1, 5), F(1, 10), F(1, 20)], [F(1, 4), F(0), F(1, 8)],
                 [F(1, 3), F(1, 6), F(1, 9)], delta=F(1, 1000))
    with pytest.raises(ValueError, match=method):
        evaluate_at(cfg, method, witness)


def test_method_table_matches_the_public_evaluators():
    import abckit.bounds as B

    assert set(B._METHODS) == set(B.EVALUATORS)
    rng = random.Random(30)
    configs = [_random_cfg(rng, d=d) for d in (1, 2, 3, 5) for _ in range(3)]
    configs += sample_feasible(6, F(1, 1000), F(1, 1000), 2, seed=30)
    for cfg in configs:
        vecs, dn, scale = cfg.grid
        for name, (core, replay) in B._METHODS.items():
            rep = B.EVALUATORS[name](cfg)
            num, den, witness = core(vecs, dn, scale)
            assert (rep.method, rep.value, rep.witness) == (name, F(num, den), witness)
            assert F(*replay(cfg, witness)) == rep.value


def test_best_bound_method_lists():
    cfg = cfg_of([F(1, 10), F(1, 5)], [F(1, 10), F(1, 5)], [F(3, 10), F(0)])
    alone = best_bound(cfg, methods=(EXTENDED_METHOD,))
    assert alone.value == extended_fourier_bound(cfg).value
    assert alone.witness["method"] == EXTENDED_METHOD
    with pytest.raises(ValueError):
        best_bound(cfg, methods=("trivial", "nope"))


def test_resolve_methods_refuses_a_repeated_name():
    assert resolve_methods(["geometry", "trivial"]) == ("geometry", "trivial")
    for methods in (("geometry", "geometry"), ("trivial", "thue", "trivial")):
        with pytest.raises(ValueError, match="listed twice"):
            resolve_methods(methods)
        with pytest.raises(ValueError, match="listed twice"):
            best_bound(zeros(3), methods=methods)


def test_best_bound_calls_every_method_through_the_registry(monkeypatch):
    import abckit.bounds as B

    cfg = cfg_of([F(1, 10), F(1, 5)], [F(1, 10), F(1, 5)], [F(3, 10), F(0)])
    names = (*METHOD_NAMES, EXTENDED_METHOD)
    want = best_bound(cfg, methods=names)
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setitem(B.EVALUATORS, name, counted(name, B.EVALUATORS[name]))
    got = best_bound(cfg, methods=names)
    assert calls == dict.fromkeys(names, 1)
    assert (got.value, got.witness) == (want.value, want.witness)


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
    assert [sum(cfg.vector(v), F(0)) for v in "abc"] == [F(3, 10)] * 3
    assert cfg.vector("c") == (F(0), F(3, 10))


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
    # Fractions are kept as given, ints become Fractions, and a negative
    # number of either kind is refused wherever it stands
    half = F(1, 2)
    cfg = ExponentConfiguration(d=2, a=(half, 1), b=(0, half), c=(3, 0), delta=2)
    assert cfg.a[0] is half
    for x in (*cfg.a, *cfg.b, *cfg.c, cfg.delta, cfg.epsilon):
        assert type(x) is Fraction
    assert cfg == cfg_of([F(1, 2), F(1)], [F(0), F(1, 2)], [F(3), F(0)], delta=2)
    for bad in (-1, F(-1, 3)):
        for name in ("a", "b", "c"):
            vecs = {"a": (0, 0), "b": (0, 0), "c": (0, 0), name: (0, bad)}
            with pytest.raises(ValueError, match="negative entry"):
                ExponentConfiguration(d=2, **vecs)
        for slack in ("delta", "epsilon"):
            with pytest.raises(ValueError, match="non-negative"):
                ExponentConfiguration(d=1, a=(0,), b=(0,), c=(0,), **{slack: bad})


_EVALUATED = (trivial_bound, fourier_bound, geometry_bound, determinant_bound,
              thue_bound, extended_fourier_bound, best_bound)


def _fresh(cfg):
    return ExponentConfiguration(d=cfg.d, a=cfg.a, b=cfg.b, c=cfg.c,
                                 delta=cfg.delta, epsilon=cfg.epsilon)


def test_grid_is_the_configuration_on_its_own_denominators():
    rng = random.Random(18)
    for _ in range(100):
        cfg = _random_cfg(rng, max_d=10)
        vecs, dn, scale = cfg.grid
        assert scale == lcm(cfg.delta.denominator,
                            *(x.denominator for x in cfg.a + cfg.b + cfg.c))
        assert (vecs, dn) == fast_scale(cfg, scale)
        assert cfg.grid is cfg.grid


def test_cached_grid_gives_the_reports_of_a_fresh_configuration():
    from abckit.cli import _jsonify

    rng = random.Random(1818)
    for d in range(1, 11):
        for _ in range(5):
            cfg = _random_cfg(rng, d=d)
            cfg.grid
            warm = [fn(cfg) for fn in _EVALUATED]
            # each evaluator on a new equal instance, which builds its own grid
            assert warm == [fn(_fresh(cfg)) for fn in _EVALUATED]
            # the cached grid is not a field: equality, hash and JSON ignore it
            assert "grid" in vars(cfg) and cfg == _fresh(cfg)
            assert hash(cfg) == hash(_fresh(cfg))
            assert list(_jsonify(cfg)) == ["d", "a", "b", "c", "delta", "epsilon"]


def test_one_configuration_is_scaled_once(monkeypatch):
    import abckit.bounds as B
    from abckit.region import check_constraints

    calls = []

    def counted(cfg, grid):
        calls.append(grid)
        return scale(cfg, grid)

    scale = B.fast_scale
    monkeypatch.setattr(B, "fast_scale", counted)
    cfg = cfg_of([F(1, 10), F(1, 5)], [F(1, 10), F(1, 5)], [F(3, 10), F(0)],
                 delta=F(1, 1000))
    for fn in _EVALUATED:
        fn(cfg)
    check_constraints(cfg)
    assert calls == [1000]


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
    ("geometry", "thue", "fourier", "determinant", "trivial"),  # no strict method cap
    ("determinant", "fourier", "thue", "trivial", "geometry"),  # every method cap strict
    ("fourier", "determinant", "thue", "trivial"),  # no geometry, no early exit
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


def _greedy_masks(entries, target):
    """The subset triple _greedy_cover describes, as masks: the class-1
    entries, then whole classes from class 2 up while each leaves some
    deficit, then the covering class's entries largest first (vector order
    on a tie), ending at the entry that covers the deficit or just before
    it, whichever leaves the lower cost."""
    masks = [1, 1, 1]
    rem = target - sum(vec[0] for vec in entries)
    for i in range(2, len(entries[0]) + 1):
        if rem <= 0:
            break
        col = [(vec[i - 1], vi) for vi, vec in enumerate(entries)]
        whole = i * sum(v for v, _ in col)
        if whole < rem:
            masks = [m | 1 << (i - 1) for m in masks]
            rem -= whole
            continue
        for v, vi in sorted(col, key=lambda t: (-t[0], t[1])):
            if i * v >= rem and (i - 1) * v >= rem:
                break  # leaving the deficit open is no dearer
            masks[vi] |= 1 << (i - 1)
            rem -= i * v
            if rem <= 0:
                break
        break  # this class covers the deficit, or ends just before
    return tuple(masks)


def test_o_d_bounds_bracket_the_exact_cores():
    """Each O(d) lower bound is at most its core's value (trivial's is
    equal), and the greedy cover is at least the searched optimum and is
    attained by a real subset triple, replayed through evaluate_at."""
    rng = random.Random(3303)
    replays = {name: _METHODS[name][0] for name in ("trivial", "fourier",
                                                   "determinant", "thue")}
    for _ in range(1500):
        grid = rng.choice((12, 60, 3_000))  # coarse grids make ties common
        d = rng.randint(1, 12)
        top = rng.choice((grid // 3, grid // 12 or 1, grid))
        vecs = tuple(
            tuple(rng.choice((0, 0, rng.randint(0, top))) for _ in range(d))
            for _ in range(3)
        )
        dn = rng.choice((0, rng.randint(0, grid // 10)))
        lower = _lower_bounds(vecs, dn, grid)
        assert set(lower) == set(replays)
        for name, core in replays.items():
            num, den, _ = core(vecs, dn, grid)
            lo = F(*lower[name])
            assert lo <= F(num, den), (name, vecs, dn, grid)
            if name == "trivial":
                assert lo == F(num, den)
        greedy = _greedy_cover(vecs, grid)
        assert greedy >= _cover_branch_bound(vecs, grid)[0], (vecs, grid)
        cfg = cfg_of(*(tuple(F(x, grid) for x in vec) for vec in vecs),
                     delta=F(dn, grid))
        witness = dict(zip(("I", "Ip", "Ipp"),
                           map(_mask_to_classes, _greedy_masks(vecs, grid))))
        assert evaluate_at(cfg, "geometry", witness) == F(dn + greedy, grid), (vecs, grid)


class _CoreCalled(AssertionError):
    """A core or the cover search ran where the O(d) stage should decide."""


def test_floored_region_samples_decided_in_o_d(monkeypatch):
    """On region samples, a floor of 1/2 lies below every other method's
    O(d) bound while the greedy cover lies under it, so a floored fast_best
    names geometry without running any core or the cover search."""
    cfgs = sample_feasible(6, F(1, 1000), F(1, 1000), 40, seed=1)
    exact = [fast_best(*cfg.grid) for cfg in cfgs]
    floor = F(1, 2)

    def refuse(*args, **kwargs):
        raise _CoreCalled

    monkeypatch.setattr("abckit.bounds._cover_branch_bound", refuse)
    for name, (_, replay) in list(_METHODS.items()):
        monkeypatch.setitem(_METHODS, name, (refuse, replay))
    decided = 0
    for cfg, (num, den, method) in zip(cfgs, exact):
        try:
            got = fast_best(*cfg.grid, floor=(floor.numerator, floor.denominator))
        except _CoreCalled:
            continue
        decided += 1
        assert got[2] == method == "geometry"
        assert F(num, den) <= F(got[0], got[1]) < floor
    assert decided >= 30  # 33 of the 40 samples


def _triple_loop_cover(entries, target):
    """The cover minimum by the plain triple loop over (ma, mb, mc): the
    reference for the meet-in-the-middle enumeration, first minimizer and
    masks included."""
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


def test_exhaustive_matches_the_triple_loop():
    rng = random.Random(1974)
    cases = 0
    for d, count in ((1, 1500), (2, 1500), (3, 1200), (4, 650), (5, 120), (6, 30)):
        for _ in range(count):
            if rng.random() < 0.5:  # tie-heavy
                entries = tuple(tuple(rng.choice((0, 1, 2)) for _ in range(d))
                                for _ in range(3))
            else:
                entries = tuple(tuple(rng.choice((0, rng.randint(1, 40)))
                                      for _ in range(d)) for _ in range(3))
            # a target of 0, exactly the W of some subset triple, or random
            masks = [rng.getrandbits(d) for _ in range(3)]
            subset_w = sum(i * vec[i - 1] for vec, mask in zip(entries, masks)
                           for i in _mask_to_classes(mask))
            target = rng.choice((0, subset_w, rng.randint(0, 40 * d)))
            assert _cover_exhaustive(entries, target) == (
                _triple_loop_cover(entries, target)), (entries, target)
            cases += 1
    assert cases >= 5000


def test_cover_branch_bound_stop_at():
    rng = random.Random(2718)
    stopped = 0
    for _ in range(300):
        d = rng.randint(1, 9)
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
        for stop_at in (opt - 1, opt, opt + 1, 10**9):
            want = next((leaf for leaf in leaves if leaf[0] <= stop_at), first_opt)
            got = _cover_branch_bound(entries, target, stop_at=stop_at)
            assert got == want, (entries, target, stop_at)


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


def _flat_doc(d: int, entry: str) -> dict:
    row = [entry] * d
    return {"d": d, "a": row, "b": row, "c": row, "delta": "1/1000", "epsilon": "0"}


@pytest.mark.parametrize("d, entry, method, seconds", [
    (2000, "1/6000", "determinant", 2.0),  # a scan over every (p, q) took 29 s
    (300, "1/3000", "all", 5.0),  # a cap on nodes alone let geometry run 27 s
])
def test_bounds_eval_answers_or_refuses_in_time(capsys, tmp_path, d, entry, method,
                                                seconds):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(_flat_doc(d, entry)))
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        code = main(["bounds", "eval", "--config", str(path), "--method", method])
    except _Timeout:
        pytest.fail(f"bounds eval --method {method} at d = {d} took over {seconds} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    doc = json.loads(capsys.readouterr().out)
    if method == "determinant":
        # every entry e: the least term is 1 + delta - 2e + e/d, first at p = 1, q = d
        e = F(entry)
        assert code == 0
        assert doc["reports"] == [{
            "method": "determinant", "value": str(1 + F(1, 1000) - 2 * e + e / d),
            "witness": {"pair": ["a", "b"], "p": 1, "q": d},
        }]
    else:
        # the cover search's cap counts its steps: nodes plus items scanned
        err = doc["error"]
        assert code == 2
        assert (err["kind"], err["operation"]) == ("budget-exceeded", "geometry_bound")
        assert err["message"] == (f"geometry_bound: {err['estimate']} search steps "
                                  f"(nodes plus items scanned) exceed the cap "
                                  f"{err['budget']}")


def test_cover_search_refused_past_node_cap(monkeypatch, tmp_path, capsys):
    # every entry 1/3000 at d = 100 searches for minutes uncapped; a small
    # cap refuses it after cap + 1 nodes, in the library and in the CLI
    import abckit.bounds as bounds
    from abckit.radicals import BudgetExceeded

    monkeypatch.setattr(bounds, "COVER_NODE_CAP", 500)
    d = 100
    doc = {"d": d, "a": ["1/3000"] * d, "b": ["1/3000"] * d,
           "c": ["1/3000"] * d, "delta": "0", "epsilon": "0"}
    cfg = cfg_of(*(tuple(map(F, doc[v])) for v in "abc"))
    with pytest.raises(BudgetExceeded) as refused:
        geometry_bound(cfg)
    exc = refused.value
    assert (exc.operation, exc.estimate, exc.budget) == ("geometry_bound", 501, 500)
    # a search under the cap still answers
    assert geometry_bound(cfg_of([F(1, 3)] * 3, [F(1, 6)] * 3, [F(1, 9)] * 3))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["bounds", "eval", "--config", str(path)])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "kind": "budget-exceeded", "operation": "geometry_bound",
        "estimate": 501, "budget": 500, "message": str(exc),
    }
