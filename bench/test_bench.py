"""Tests of the benchmark itself, on every workload at tiny input sizes.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_abckit()

import abckit.bounds  # noqa: E402
import abckit.counting  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _measure(workload: str, trace: int) -> dict:
    return run.measure(workload, seed=5, seconds=0, trace=trace,
                       sizes=W.TINY, setup_reps=1)


@pytest.fixture(scope="module")
def runs():
    return {(w, t): _measure(w, t) for w in run.WORKLOADS for t in (0, 1)}


def test_workloads_are_the_ones_in_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported_under_its_benchmark_json_name(runs, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = runs[workload, trace]["result"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    for m in runs[workload, 0]["result"]["metrics"].values():
        assert m["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_runs_do_the_same_work(runs, workload):
    plain, traced = runs[workload, 0]["record"], runs[workload, 1]["record"]
    assert plain["work"] and plain["work"] == traced["work"]
    assert plain["digest"] == traced["digest"]


def _wrong(fn, field, when=lambda kwargs: True):
    """fn, but with one more than the right answer in ``field``."""

    def fake(*args, **kwargs):
        out = fn(*args, **kwargs)
        if not when(kwargs):
            return out
        return dataclasses.replace(out, **{field: getattr(out, field) + 1})

    return fake


@pytest.mark.parametrize("workload, module, name, field, when", [
    # a fake evaluator: the region check replays best_bound at the argmax
    ("region", abckit.bounds, "best_bound", "value", lambda kw: True),
    # a fake oracle strategy: the two strategies no longer agree
    ("arith", abckit.counting, "count_exceptional_triples", "count",
     lambda kw: kw.get("strategy") == "ab"),
    # a fake evaluator: its witness no longer replays
    ("replay", abckit.bounds, "thue_bound", "value", lambda kw: True),
])
def test_an_injected_wrong_answer_is_counted_as_failed(
        monkeypatch, workload, module, name, field, when):
    monkeypatch.setattr(module, name, _wrong(getattr(module, name), field, when))
    result = _measure(workload, 0)["result"]
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "region", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
