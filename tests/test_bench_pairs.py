import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten parent runs: median 0.09715, interquartile range 0.0014
PARENT = [0.0960, 0.0962, 0.0965, 0.0970, 0.0971, 0.0972, 0.0975, 0.0978, 0.0979, 0.0980]


def test_verdict_claims_a_gain_that_wins_and_clears_the_parent_iqr():
    change = [0.0890] * 10
    assert bench_pairs.wins(PARENT, change, "lower") == 10
    assert bench_pairs.verdict(PARENT, change, "lower") == "gain"
    # the same numbers read the other way round lose every pair
    assert bench_pairs.verdict(PARENT, change, "higher") == "no gain"


def test_verdict_needs_nine_wins_in_ten():
    change = [0.0890] * 8 + [0.0990, 0.0980]  # a loss and a tie
    assert bench_pairs.wins(PARENT, change, "lower") == 8
    assert bench_pairs.verdict(PARENT, change, "lower") == "no gain"
    change[-1] = 0.0959
    assert bench_pairs.verdict(PARENT, change, "lower") == "gain"


def test_verdict_needs_a_gap_wider_than_the_parent_iqr():
    q1, med, q3 = bench_pairs.quartiles(PARENT)
    assert (q1, med, q3) == pytest.approx((0.096425, 0.09715, 0.097825))
    # wins every pair, but the median gap is below the IQR of 0.0014
    change = [p - 0.0001 for p in PARENT]
    assert bench_pairs.wins(PARENT, change, "lower") == 10
    assert bench_pairs.verdict(PARENT, change, "lower") == "no gain"


def test_verdict_refuses_fewer_than_ten_pairs():
    assert bench_pairs.verdict(PARENT[:9], [0.0890] * 9, "lower") == "too few pairs"
    with pytest.raises(ValueError):
        bench_pairs.verdict(PARENT, [0.0890] * 9, "lower")
