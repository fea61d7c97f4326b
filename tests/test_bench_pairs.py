import importlib.util
import json
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


def _stdout(digest, work, failed, attempted, wall_s=0.09):
    """bench/run.py's stdout: a report line, the run record, the result."""
    record = {"workload": "replay", "seed": 1, "work": work, "digest": digest}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}
    return "\n".join(["replay: seed 1, 3 runs", json.dumps(record), json.dumps(result)])


def test_parse_run_reads_the_record_and_the_result():
    run = bench_pairs.parse_run(_stdout("ab12", {"calls": 290}, 1, 40, wall_s=0.0878))
    assert run == {"metrics": {"wall_s": 0.0878}, "digest": "ab12",
                   "work": {"calls": 290}, "failed": 1, "attempted": 40}


def test_compare_outputs_checks_digest_and_work_apart():
    parse = bench_pairs.parse_run
    parent = parse(_stdout("ab12", {"calls": 290}, 0, 40))
    same = bench_pairs.compare_outputs(parent, parse(_stdout("ab12", {"calls": 290}, 0, 41)))
    assert same == {"digest": True, "work": True, "identical": True,
                    "failed": (0, 0), "attempted": (40, 41)}
    assert bench_pairs.outputs_line(same) == "digest equal, work equal, failed 0/40 -> 0/41"
    work = bench_pairs.compare_outputs(parent, parse(_stdout("ab12", {"calls": 291}, 2, 40)))
    assert (work["digest"], work["work"], work["identical"]) == (True, False, False)
    assert bench_pairs.outputs_line(work) == "digest equal, work DIFFERS, failed 0/40 -> 2/40"
    digest = bench_pairs.compare_outputs(parent, parse(_stdout("cd34", {"calls": 290}, 0, 40)))
    assert (digest["digest"], digest["work"], digest["identical"]) == (False, True, False)
