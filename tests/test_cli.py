"""End-to-end checks of the command-line surface.

Everything runs in-process through main(argv) so stdout is capturable and
exit codes are explicit.  Frozen payloads double as a compatibility contract
for the "abckit/1" schema.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import abckit
from abckit.bounds import (
    EXTENDED_METHOD,
    METHOD_NAMES,
    ExponentConfiguration,
    evaluate_at,
    geometry_bound,
)
from abckit import cli
from abckit.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_rad(capsys):
    code, doc = run_json(capsys, "rad", "96")
    assert code == 0
    assert doc == {"schema": "abckit/1", "n": 96, "radical": 6}


def test_count_nlambda(capsys):
    code, doc = run_json(capsys, "count", "nlambda", "--x", "9",
                         "--lambda", "9/10")
    assert code == 0
    assert doc["schema"] == "abckit/1"
    assert doc["count"] == 2
    assert doc["strategy"] == "ca"


def test_count_nlambda_ab_strategy_agrees(capsys):
    _, doc = run_json(capsys, "count", "nlambda", "--x", "9",
                      "--lambda", "9/10", "--strategy", "ab")
    assert doc["count"] == 2
    assert doc["strategy"] == "ab"


def test_count_nlambda_small_radical_at_1e5(capsys):
    code = main(["count", "nlambda", "--x", "100000", "--lambda", "1",
                 "--strategy", "ab"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["count"] == 838
    assert "elapsed" in captured.err


def test_count_elapsed_goes_to_stderr_only(capsys):
    argv = ["count", "nlambda", "--x", "9", "--lambda", "9/10"]
    main(argv)
    first = capsys.readouterr()
    main(argv)
    second = capsys.readouterr()
    assert first.out == second.out
    assert "elapsed" not in first.out
    assert first.err.startswith(
        "count_exceptional_triples(X=9, lam=9/10, ordered=True) [ca]: elapsed ")


def test_count_debruijn(capsys):
    code, doc = run_json(capsys, "count", "debruijn", "--x", "100",
                         "--lambda", "1/2")
    assert code == 0
    assert doc["count"] == 30


def test_count_debruijn_radical_first_refuses_before_its_sieve(capsys):
    # t = 10^8 would be a 100 MB sieve; t + x is refused before it is built
    tracemalloc.start()
    try:
        code, doc = run_json(capsys, "count", "debruijn", "--x", str(10**12),
                             "--lambda", "2/3", "--strategy", "radical-first")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and doc["error"]["kind"] == "budget-exceeded"
    assert doc["error"]["estimate"] == 10**8 + 10**12
    assert peak < 10**6


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(Path(abckit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def _cap_address_space():
    import resource

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, hard))


@pytest.mark.parametrize("argv, flag, point", [
    (("count", "nlambda", "--x", "50"), "--lambda", "3"),
    (("count", "nlambda", "--x", "50", "--strategy", "ab"), "--lambda", "3"),
    (("count", "s", "--x", "30", "--beta", "1/2", "--gamma", "2/3"), "--alpha", "1"),
    (("count", "s", "--x", "30", "--alpha", "1/2", "--beta", "1/3", "--star"),
     "--gamma", "1"),
    (("count", "debruijn", "--x", "10"), "--lambda", "1"),
    (("count", "debruijn", "--x", "10", "--strategy", "radical-first"),
     "--lambda", "1"),
], ids=["nlambda-ca", "nlambda-ab", "s-plain", "s-star", "debruijn-scan",
        "debruijn-radical-first"])
def test_count_saturated_exponent_counts_as_its_saturation_point(capsys, argv,
                                                                 flag, point):
    # past its saturation point an exponent changes no test, so 10^12 counts
    # as the point, and 1/10^12 (2 * bitlen(X) <= 10^12) as 0; the child is
    # capped at 512 MB and 10 s, so building the power such an exponent asks
    # for fails instead of exhausting the machine
    for given, same in (("1000000000000", point), ("1/1000000000000", "0")):
        code, want = run_json(capsys, *argv, flag, same)
        proc = subprocess.run(
            [sys.executable, "-m", "abckit", *argv, flag, given],
            capture_output=True, text=True, env=_child_env(), timeout=10,
            preexec_fn=_cap_address_space,
        )
        assert proc.returncode == code == 0, proc.stderr[-300:]
        got = json.loads(proc.stdout)
        assert got["count"] == want["count"], given
        # the query names the exponent as given
        assert given in got["query"]
        assert got["query"].replace(given, same) == want["query"]


_HUGE = "1000000000000"
_NEAR_1 = "999999999999/1000000000000"


# Left out: `count nlambda --x 100000000 --strategy ab` still allocates about
# 1.2 GB over two minutes before its budget refusal (ROADMAP item 7).
@pytest.mark.parametrize("argv, code, outcome", [
    (("verify", "region", "--d", "6", "--delta", "4/25", "--epsilon", "2/5",
      "--samples", "200"), 0, "ok"),
    (("verify", "region", "--d", "6", "--delta", "1/1000", "--epsilon",
      "43/1000", "--samples", "200"), 0, "region-empty"),
    (("count", "ternary", "--exponents", f"{_HUGE},1,1", "--coefficients",
      "1,1,-1", "--limits", "2,2,2"), 2, "budget-exceeded"),
    (("count", "bd", "--spec", {"d": 1, "c": [3, 1, 1], "X": ["2"], "Y": ["2"],
                                "Z": ["4"], "A": _HUGE}), 2, "budget-exceeded"),
    (("count", "bd", "--spec", {"d": 1, "c": [3, 1, 1], "X": [_HUGE],
                                "Y": ["2"], "Z": ["4"]}), 2, "budget-exceeded"),
    (("count", "nlambda", "--x", "20", "--lambda", _NEAR_1), 2, "budget-exceeded"),
    (("count", "debruijn", "--x", "10", "--lambda", _NEAR_1), 2, "budget-exceeded"),
    (("count", "s", "--x", "20", "--alpha", _NEAR_1, "--beta", "1", "--gamma",
      "1", "--star"), 2, "budget-exceeded"),
    (("count", "s", "--x", _HUGE, "--alpha", "1", "--beta", "1", "--gamma",
      "1"), 2, "budget-exceeded"),
    (("reduce-triple", "--a", "1", "--b", "2", "--c", "3", "--x", "3",
      "--epsilon", _NEAR_1), 2, "budget-exceeded"),
    (("factorize", str(2**89 - 1)), 2, "budget-exceeded"),
], ids=["region-hinge", "region-c2-empty", "ternary-exponent", "bd-A",
        "bd-anchor", "nlambda", "debruijn", "s-star", "s-huge-x",
        "reduce-triple", "factorize-2^89-1"])
def test_cli_fuzz_answers_or_refuses_within_budget(tmp_path, argv, code, outcome):
    # each input answers or is refused in a child capped at 512 MB and 10 s:
    # one JSON document on stdout (an error object on exit 2), no traceback
    args = []
    for arg in argv:
        if isinstance(arg, dict):
            arg, doc = tmp_path / "spec.json", arg
            arg.write_text(json.dumps(doc))
        args.append(str(arg))
    proc = subprocess.run(
        [sys.executable, "-m", "abckit", *args],
        capture_output=True, text=True, env=_child_env(), timeout=10,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr, proc.stderr[-500:]
    doc = json.loads(proc.stdout)
    assert proc.returncode == code
    assert (doc["error"]["kind"] if code == 2 else doc["outcome"]) == outcome


def test_count_s_csv(capsys):
    code, out = run(capsys, "count", "s", "--x", "20", "--alpha", "1",
                    "--beta", "1", "--gamma", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "query,count,strategy"
    assert len(lines) == 2


def test_count_ternary(capsys):
    code, doc = run_json(capsys, "count", "ternary",
                         "--exponents", "1,1,1",
                         "--coefficients", "1,1,-1",
                         "--limits", "3,3,3")
    assert code == 0
    assert doc["count"] > 0
    _, doc2 = run_json(capsys, "count", "ternary",
                       "--exponents", "1,1,1",
                       "--coefficients", "1,1,-1",
                       "--limits", "3,3,3",
                       "--strategy", "nested")
    assert doc2["count"] == doc["count"]


def test_count_bd_spec_file(capsys, tmp_path):
    spec = tmp_path / "box.json"
    spec.write_text(json.dumps({
        "d": 1,
        "coefficients": [1, 1, 1],
        "X": ["2"], "Y": ["2"], "Z": ["4"],
    }))
    code, doc = run_json(capsys, "count", "bd", "--spec", str(spec))
    assert code == 0
    # x+y=z over x,y in (2,4], z in (4,8]; only (3,4,7),(4,3,7) are coprime
    assert doc["count"] == 2
    assert doc["delta"] == "16"
    # "c" is the documented coefficient key; same box, same count
    spec2 = tmp_path / "box2.json"
    spec2.write_text(json.dumps(
        {"d": 1, "c": [1, 1, 1], "X": ["2"], "Y": ["2"], "Z": ["4"]}))
    _, doc2 = run_json(capsys, "count", "bd", "--spec", str(spec2))
    assert doc2["count"] == 2


def test_count_bd_refuses_a_wide_A_before_counting(capsys, tmp_path, monkeypatch):
    def no_count(*args, **kwargs):
        raise AssertionError("count_bd ran")

    monkeypatch.setattr(cli, "count_bd", no_count)
    spec = tmp_path / "box.json"
    spec.write_text(json.dumps({"d": 1, "c": [3, 1, 1], "X": ["2"], "Y": ["2"],
                                "Z": ["4"], "A": "1000000000000"}))
    code = main(["count", "bd", "--spec", str(spec)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["kind"] == "budget-exceeded"
    assert "elapsed" not in captured.err


def test_sieve_formats(capsys):
    _, doc = run_json(capsys, "sieve", "--limit", "8")
    assert doc["radicals"] == [[1, 1], [2, 2], [3, 3], [4, 2],
                               [5, 5], [6, 6], [7, 7], [8, 2]]
    code, out = run(capsys, "sieve", "--limit", "4", "--format", "csv")
    assert code == 0
    assert out == "n,radical\n1,1\n2,2\n3,3\n4,2\n"


def test_sieve_budget_refusal(capsys, monkeypatch):
    code, doc = run_json(capsys, "sieve", "--limit", "1000", "--budget", "999")
    assert code == 2
    err = doc["error"]
    assert err["kind"] == "budget-exceeded"
    assert err["operation"] == "build_radical_table"
    assert (err["estimate"], err["budget"]) == (1000, 999)
    code, doc = run_json(capsys, "sieve", "--limit", "8", "--budget", "8")
    assert code == 0 and len(doc["radicals"]) == 8
    # the default budget refuses a huge table before allocating any of it
    tracemalloc.start()
    try:
        code, doc = run_json(capsys, "sieve", "--limit", str(10**12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and doc["error"]["kind"] == "budget-exceeded"
    assert peak < 10**6
    monkeypatch.setenv("ABCKIT_BUDGET", "7")
    code, doc = run_json(capsys, "sieve", "--limit", "8")
    assert code == 2 and doc["error"]["budget"] == 7


class _CountingSink:
    """A stdout that keeps nothing but the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_sieve_streams_its_rows(monkeypatch, fmt):
    # each block's rows are written as it is sieved: one bound on the
    # peak, whatever the limit
    for limit in (50_000, 200_000):
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["sieve", "--limit", str(limit), "--format", fmt])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.size > 10 * limit
        assert peak < 10**6, limit


def test_sieve_empty_table(capsys):
    for fmt, want in (
        ("json", '{\n  "schema": "abckit/1",\n  "limit": 0,\n  "radicals": []\n}\n'),
        ("csv", "n,radical\n"),
        ("table", "n  radical\n-  -------\n"),
    ):
        assert run(capsys, "sieve", "--limit", "0", "--format", fmt) == (0, want)
        # refused before the first byte of a table is written
        code, doc = run_json(capsys, "sieve", "--limit", "-1", "--format", fmt)
        assert code == 2 and doc["error"]["kind"] == "invalid-argument"


def test_table_bytes(capsys):
    # 12 is not squarefree, so the radical column's width comes from 11
    want = ("n   radical\n"
            "--  -------\n"
            + "".join(f"{n:<2}  {r}\n" for n, r in (
                (1, 1), (2, 2), (3, 3), (4, 2), (5, 5), (6, 6), (7, 7),
                (8, 2), (9, 3), (10, 10), (11, 11), (12, 6))))
    assert run(capsys, "sieve", "--limit", "12", "--format", "table") == (0, want)
    # widths from the cells, and an empty last column leaves no blanks
    cli._print_table(["check", "result", "note"],
                     [["C1", True, ""], ["a-long-name", 7, "tight"]])
    assert capsys.readouterr().out == (
        "check        result  note\n"
        "-----------  ------  -----\n"
        "C1           True\n"
        "a-long-name  7       tight\n")


def test_factorize(capsys):
    code, doc = run_json(capsys, "factorize", "360")
    assert code == 0
    assert doc["factors"] == {"2": 3, "3": 2, "5": 1}
    assert doc["radical"] == 30


def test_reduce_triple(capsys):
    code, doc = run_json(capsys, "reduce-triple", "--a", "1", "--b", "8",
                         "--c", "9", "--x", "10", "--epsilon", "1/2")
    assert code == 0
    assert doc["checks_ok"] is True
    assert doc["d"] == 640
    assert doc["factorizations"]["b"]["parts"] == {"3": 2}
    assert doc["factorizations"]["c"]["parts"] == {"2": 3}
    # coefficient identity: ca*A + cb*B = cc*C
    ca, cb, cc = doc["coefficients"]
    prod = lambda parts: __import__("math").prod(
        int(x) ** int(j) for j, x in parts.items()) or 1
    fa, fb, fc = (doc["factorizations"][k] for k in "abc")
    A = fa["leftover"] * prod(fa["parts"])
    B = fb["leftover"] * prod(fb["parts"])
    C = fc["leftover"] * prod(fc["parts"])
    assert ca * A + cb * B == cc * C


def test_verify_cases_pass_and_fail(capsys):
    code, doc = run_json(capsys, "verify", "cases", "--delta", "1/1000")
    assert code == 0
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 11
    assert all(isinstance(c["slack"], str) for c in doc["checks"])

    code, doc = run_json(capsys, "verify", "cases", "--delta", "1/10")
    assert code == 1
    assert doc["all_passed"] is False


def test_verify_cases_table(capsys):
    code, out = run(capsys, "verify", "cases", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].split() == ["check", "result", "slack", "note"]
    assert "triangle-vertices" in out
    assert "tight" in out


def test_bounds_eval_all_methods(capsys, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_doc = {
        "d": 3,
        "a": ["1/3", "0", "0"],
        "b": ["0", "1/6", "0"],
        "c": ["0", "0", "1/9"],
        "delta": "1/1000",
        "epsilon": "0",
    }
    cfg_file.write_text(json.dumps(cfg_doc))
    code, doc = run_json(capsys, "bounds", "eval", "--config", str(cfg_file))
    assert code == 0
    assert [r["method"] for r in doc["reports"]] == [
        "trivial", "fourier", "geometry", "determinant", "thue", "best"]
    assert doc["config"]["delta"] == "1/1000"
    # every report replays: evaluate_at(cfg, method, witness) == value,
    # straight off the JSON (witnesses hold only names, ints, index lists)
    from abckit.bounds import ExponentConfiguration

    cfg = ExponentConfiguration(
        d=3,
        a=tuple(Fraction(x) for x in cfg_doc["a"]),
        b=tuple(Fraction(x) for x in cfg_doc["b"]),
        c=tuple(Fraction(x) for x in cfg_doc["c"]),
        delta=Fraction(1, 1000),
    )
    for rep in doc["reports"]:
        if rep["method"] == "best":
            continue
        replay = evaluate_at(cfg, rep["method"], rep["witness"])
        assert replay == Fraction(rep["value"])


def test_bounds_eval_runs_each_method_once(capsys, tmp_path, monkeypatch):
    import abckit.bounds as B

    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(_TIES_CONFIG))
    calls = []

    def counted(method, *args, **kwargs):
        calls.append(method)
        return report(method, *args, **kwargs)

    report = B._report
    monkeypatch.setattr(B, "_report", counted)
    code, doc = run_json(capsys, "bounds", "eval", "--config", str(cfg_file),
                         "--extended-fourier")
    assert code == 0
    names = [*METHOD_NAMES, EXTENDED_METHOD]
    # "best" is picked from the reports above it (its bytes are pinned by
    # the bounds-ties golden hashes)
    assert calls == names
    assert [r["method"] for r in doc["reports"]] == [*names, "best"]


@pytest.mark.parametrize("extra", [(), ("--extended-fourier",)])
def test_bounds_eval_best_is_the_best_row_of_all(capsys, tmp_path, extra):
    cfg_file = tmp_path / "cfg.json"
    for config in (_TIES_CONFIG, _LATTICE_CONFIG):
        cfg_file.write_text(json.dumps(config))
        argv = ("bounds", "eval", "--config", str(cfg_file), *extra)
        code, every = run_json(capsys, *argv)
        assert code == 0
        code, best = run_json(capsys, *argv, "--method", "best")
        assert code == 0
        assert best["config"] == every["config"]
        assert best["reports"] == every["reports"][-1:]
        assert every["reports"][-1]["method"] == "best"


def test_bounds_eval_single_method(capsys, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"d": 2, "a": ["1/2", "0"], "b": ["0", "1/4"], "c": ["1/3", "0"]}))
    code, doc = run_json(capsys, "bounds", "eval", "--config", str(cfg_file),
                         "--method", "trivial")
    assert code == 0
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["method"] == "trivial"


def test_verify_region_deterministic(capsys):
    argv = ("verify", "region", "--d", "3", "--delta", "1/1000",
            "--epsilon", "1/1000", "--samples", "120", "--seed", "5",
            "--streams", "2")
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert out1 == out2  # byte-identical reruns
    assert code1 == code2 == 0
    doc = json.loads(out1)
    assert doc["verdict"] is True
    assert doc["seed"] == 5
    assert doc["streams"] == 2
    assert "not a certified supremum" in doc["note"]


def test_verify_region_verdict_fail_exit_1(capsys):
    # trivial alone exceeds 33/50, so restricting methods flips the verdict
    code, doc = run_json(capsys, "verify", "region", "--d", "3",
                         "--delta", "1/1000", "--epsilon", "1/1000",
                         "--samples", "150", "--seed", "1", "--streams", "2",
                         "--methods", "trivial")
    assert code == 1
    assert doc["verdict"] is False
    assert Fraction(doc["maximum"]) > Fraction(33, 50)


def test_verify_region_huge_streams(capsys):
    # only the streams that draw run: 10 samples over 10^9 streams is one
    # stream's work, with no per-stream list, and the same report as 11
    argv = ("verify", "region", "--d", "6", "--delta", "1/1000",
            "--epsilon", "1/1000", "--samples", "10", "--streams")
    tracemalloc.start()
    try:
        code, doc = run_json(capsys, *argv, "1000000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and doc["outcome"] == "ok"
    assert peak < 10**6
    code11, doc11 = run_json(capsys, *argv, "11")
    assert code11 == 0
    assert (doc.pop("streams"), doc11.pop("streams")) == (10**9, 11)
    assert doc == doc11


def test_verify_region_budget_refuses_before_searching(capsys, monkeypatch):
    # draws plus the hill-climb allowance (15%, rounded down) count against
    # the budget; a refusal never reaches maximize_nu
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(cli, "maximize_nu", no_search)
    monkeypatch.delenv("ABCKIT_BUDGET", raising=False)
    argv = ("verify", "region", "--d", "6", "--delta", "1/1000",
            "--epsilon", "1/1000")
    start = time.perf_counter()
    code, doc = run_json(capsys, *argv, "--samples", "1000000000",
                         "--streams", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert doc["error"] == {
        "kind": "budget-exceeded", "operation": "maximize_nu",
        "estimate": 1_150_000_000, "budget": 10**9,
        "message": doc["error"]["message"],
    }
    code, doc = run_json(capsys, *argv, "--samples", "100", "--budget", "114")
    assert code == 2 and doc["error"]["estimate"] == 115
    monkeypatch.setenv("ABCKIT_BUDGET", "22")
    code, doc = run_json(capsys, *argv, "--samples", "20")
    assert code == 2 and (doc["error"]["estimate"], doc["error"]["budget"]) == (23, 22)


def test_verify_region_within_budget_runs(capsys, monkeypatch):
    # a budget that covers the draws and the climbs exactly lets it run
    monkeypatch.setenv("ABCKIT_BUDGET", "1")
    code, doc = run_json(capsys, "verify", "region", "--d", "6",
                         "--delta", "1/1000", "--epsilon", "1/1000",
                         "--samples", "100", "--budget", "115")
    assert code == 0
    assert doc["strategy_mix"]["draws"] + doc["strategy_mix"]["hill"] == 115


def test_reduce_triple_tiny_epsilon_is_sparse(capsys):
    # epsilon 1/50 factorizes each member at 1/5000: M = 2.5 * 10^8 classes
    tracemalloc.start()
    t0 = time.perf_counter()
    code, doc = run_json(capsys, "reduce-triple", "--a", "1", "--b", "8",
                         "--c", "9", "--x", "10", "--epsilon", "1/50")
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 0
    assert doc["checks_ok"] is True
    assert doc["d"] == 250_000_000
    assert doc["factorizations"]["c"] == {
        "K": 10_000, "M": 250_000_000, "leftover": 1, "parts": {"2": 3}}
    assert elapsed < 1
    assert peak < 2_000_000
    # at 1/(2 * 10^10) a radical-bracket power would hold 2 * 10^10 bits
    code, doc = run_json(capsys, "reduce-triple", "--a", "1", "--b", "8",
                         "--c", "9", "--x", "10", "--epsilon", "1/100000")
    assert code == 0
    assert doc["checks_ok"] is True
    assert doc["d"] == 4 * 10**21


def test_factorize_large_prime_is_refused(capsys):
    t0 = time.perf_counter()
    code, doc = run_json(capsys, "factorize", str(2**89 - 1))
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert doc["error"]["kind"] == "budget-exceeded"
    assert doc["error"]["operation"] == "factorize"


def test_empty_totals_window_reports_region_empty(capsys):
    # at epsilon 1/20 the C4 totals window [0.32, 0.34 - 0.025] is empty
    code, doc = run_json(capsys, "verify", "region", "--d", "6",
                         "--delta", "0", "--epsilon", "1/20")
    assert code == 0
    assert doc["outcome"] == "region-empty"
    assert "[8/25, 63/200]" in doc["note"]
    assert (doc["samples"], doc["maximum"], doc["verdict"]) == (0, None, True)


def test_exit_2_decimal_rational(capsys):
    code, doc = run_json(capsys, "count", "nlambda", "--x", "9",
                         "--lambda", "0.9")
    assert code == 2
    assert doc["error"]["kind"] == "usage"
    assert "0.9" in doc["error"]["message"]


def test_exit_2_budget_refusal(capsys):
    code, doc = run_json(capsys, "count", "nlambda", "--x", "1000",
                         "--lambda", "1", "--budget", "10")
    assert code == 2
    err = doc["error"]
    assert err["kind"] == "budget-exceeded"
    assert err["budget"] == 10
    assert err["estimate"] > 10
    assert err["operation"] == "count_exceptional_triples"


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("ABCKIT_BUDGET", "10")
    code, doc = run_json(capsys, "count", "nlambda", "--x", "1000",
                         "--lambda", "1")
    assert code == 2
    assert doc["error"]["kind"] == "budget-exceeded"
    # explicit --budget outranks the environment
    code, doc = run_json(capsys, "count", "nlambda", "--x", "9",
                         "--lambda", "9/10", "--budget", "1000000")
    assert code == 0
    assert doc["count"] == 2
    # a value that is not an integer is a usage error naming the variable
    monkeypatch.setenv("ABCKIT_BUDGET", "lots")
    code, doc = run_json(capsys, "count", "nlambda", "--x", "9",
                         "--lambda", "9/10")
    assert code == 2
    assert doc["error"]["kind"] == "usage"
    assert "ABCKIT_BUDGET" in doc["error"]["message"]


def test_exit_2_missing_file(capsys):
    code, doc = run_json(capsys, "bounds", "eval", "--config",
                         "/nonexistent/cfg.json")
    assert code == 2
    assert doc["error"]["kind"] == "bad-file"


def test_exit_2_malformed_config(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 2, "a": ["0.5", "0"], "b": ["0", "0"], "c": ["0", "0"]}')
    code, doc = run_json(capsys, "bounds", "eval", "--config", str(bad))
    assert code == 2
    assert doc["error"]["kind"] == "bad-file"
    assert "0.5" in doc["error"]["message"]
    # wrong JSON types are refused, not coerced
    config = {"d": 2, "a": ["0", "0"], "b": ["0", "0"], "c": ["0", "0"]}
    box = {"d": 1, "c": [1, 1, 1], "X": ["2"], "Y": ["2"], "Z": ["4"]}
    for command, doc_in, message in [
        ("bounds eval --config", {**config, "a": "10"}, "'a' must be a JSON list"),
        ("bounds eval --config", {**config, "d": 2.7}, "'d' must be a JSON int"),
        ("bounds eval --config", {**config, "d": True}, "'d' must be a JSON int"),
        ("bounds eval --config", {**config, "d": "2"}, "'d' must be a JSON int"),
        ("count bd --spec", {**box, "c": 5}, "'c' must be a JSON list"),
        ("count bd --spec", {**box, "X": "2"}, "'X' must be a JSON list"),
        ("count bd --spec", {**box, "d": 1.0}, "'d' must be a JSON int"),
        ("count bd --spec", {**box, "c": [None, 1, 1]}, "'c' entry must be a JSON int"),
        ("count bd --spec", {**box, "c": [1.5, 1, 1]}, "'c' entry must be a JSON int"),
        ("count bd --spec", {**box, "c": ["1", 1, 1]}, "'c' entry must be a JSON int"),
        ("count bd --spec", {**box, "c": [True, 1, 1]}, "'c' entry must be a JSON int"),
        ("count bd --spec", {k: v for k, v in box.items() if k != "c"},
         "missing key 'c'"),
        ("bounds eval --config", [config], "expected a JSON object"),
        ("count bd --spec", [box], "expected a JSON object"),
    ]:
        bad.write_text(json.dumps(doc_in))
        code, doc = run_json(capsys, *command.split(), str(bad))
        assert code == 2, message
        assert doc["error"]["kind"] == "bad-file", message
        assert message in doc["error"]["message"], message


def test_exit_2_undecodable_file(capsys, tmp_path):
    # bytes that are not UTF-8 are a bad file, named, whatever reads it
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"d": 1, "a": ["\u00bd"]}'.encode("latin-1"))
    for argv in (("bounds", "eval", "--config", str(bad)),
                 ("count", "bd", "--spec", str(bad))):
        code, doc = run_json(capsys, *argv)
        assert code == 2, argv
        assert doc["error"]["kind"] == "bad-file", argv
        assert doc["error"]["message"].startswith(f"{bad} is not valid JSON: "), argv
        assert "utf-8" in doc["error"]["message"], argv


def _refused_as_bad_file(capsys, path, message):
    for argv in (("bounds", "eval", "--config", str(path)),
                 ("count", "bd", "--spec", str(path))):
        code, doc = run_json(capsys, *argv)
        assert code == 2, argv
        assert doc["error"]["kind"] == "bad-file", argv
        assert message in doc["error"]["message"], argv


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_exit_2_endless_file(capsys):
    # read up to the cap and refused, not read until memory runs out
    _refused_as_bad_file(capsys, "/dev/zero",
                         f"is larger than {cli.MAX_FILE_BYTES} bytes")


def test_exit_2_file_over_the_size_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_FILE_BYTES", 64)
    path = tmp_path / "cfg.json"
    config = json.dumps({"d": 1, "a": ["0"], "b": ["0"], "c": ["0"]})
    path.write_text(config.ljust(64))
    code, doc = run_json(capsys, "bounds", "eval", "--config", str(path))
    assert code == 0, doc
    path.write_text(config.ljust(65))
    _refused_as_bad_file(capsys, path, "is larger than 64 bytes")


@pytest.mark.parametrize("argv", [
    ("rad", "96", "--frobnicate"),
    ("verify", "region", "--d", "6", "--delta", "1/1000", "--epsilon",
     "1/1000", "--threads", "2"),
    ("verify", "region", "--d", "6", "--delta", "1/1000", "--epsilon",
     "1/1000", "--lambda", "1"),
    # the search runs on its own lattice and judges against 33/50 only
    ("verify", "region", "--d", "6", "--delta", "1/1000", "--epsilon",
     "1/1000", "--grid", "12"),
    ("verify", "region", "--d", "6", "--delta", "1/1000", "--epsilon",
     "1/1000", "--threshold", "1/2"),
    # P,Q,R must be three integers
    ("count", "ternary", "--exponents", "1,2", "--coefficients", "1,1,-1",
     "--limits", "5,5,5"),
    ("count", "ternary", "--exponents", "1,x", "--coefficients", "1,1,-1",
     "--limits", "5,5,5"),
])
def test_exit_2_unknown_flag(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"]["kind"] == "usage"


def test_exit_2_no_subcommand(capsys):
    code, doc = run_json(capsys)
    assert code == 2
    assert doc["error"]["kind"] == "usage"


def test_explore_theta_is_gone(capsys):
    # its sup was the best of independent region searches; `verify region`
    # at the same seeds gives the same maxima
    code, doc = run_json(capsys, "explore", "theta", "--d", "6",
                         "--delta", "1/1000", "--epsilon", "1/1000")
    assert code == 2
    assert doc["error"]["kind"] == "usage"


def test_exit_2_invalid_argument(capsys):
    # domain error surfaced from the library, not argparse
    code, doc = run_json(capsys, "verify", "region", "--d", "2",
                         "--delta", "1/5", "--epsilon", "1/1000",
                         "--samples", "50")
    assert code == 2
    assert doc["error"]["kind"] == "invalid-argument"


def test_exit_2_repeated_method(capsys):
    # a method listed twice would run twice per sample and be reported twice
    code, doc = run_json(capsys, "verify", "region", "--d", "6",
                         "--delta", "1/1000", "--epsilon", "1/1000",
                         "--samples", "10", "--methods", "geometry,geometry")
    assert code == 2
    assert doc["error"]["kind"] == "invalid-argument"
    assert "'geometry' is listed twice" in doc["error"]["message"]


@pytest.mark.parametrize("flags", [
    ("--alpha=-1/2", "--beta", "1", "--gamma", "1"),
    ("--alpha", "1", "--beta=-1", "--gamma", "1", "--star"),
    ("--alpha", "1", "--beta", "1", "--gamma=-3/2", "--strategy", "ab"),
])
def test_exit_2_count_s_negative_exponent(capsys, flags):
    # a negative exponent would make the radical tests compare floats
    code, doc = run_json(capsys, "count", "s", "--x", "20", *flags)
    assert code == 2
    assert doc["error"]["kind"] == "invalid-argument"
    assert ">= 0" in doc["error"]["message"]


def _flat_config(d: int) -> dict:
    """Every entry 1/1200: the cover search takes all 3(d - 1) items of
    class >= 2 in turn, one search level each."""
    row = ["1/1200"] * d
    return {"d": d, "a": row, "b": row, "c": row}


def _geometry_value(capsys, tmp_path, config: dict) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, doc = run_json(capsys, "bounds", "eval", "--config", str(path),
                         "--method", "geometry")
    assert code == 0, doc
    return doc["reports"][0]["value"]


def test_cover_search_takes_any_number_of_items(capsys, tmp_path):
    cfg = ExponentConfiguration(**_flat_config(251))
    assert geometry_bound(cfg).value == Fraction(1117, 1200)
    # 753 items, each taken in turn: a search 753 levels deep
    assert _geometry_value(capsys, tmp_path, _flat_config(252)) == "1117/1200"
    # 2397 items, but a shallow search: class 1 empty, every other entry 1/2
    row = ["0"] + ["1/2"] * 799
    shallow = {"d": 800, "a": row, "b": row, "c": row}
    assert _geometry_value(capsys, tmp_path, shallow) == "1/2"


@pytest.mark.parametrize("argv", [
    ("verify", "region", "--streams", "0"),
    ("verify", "region", "--streams", "-2"),
])
def test_exit_2_bad_streams_or_threads(capsys, argv):
    code, doc = run_json(capsys, *argv, "--d", "6", "--delta", "1/1000",
                         "--epsilon", "1/1000")
    assert code == 2
    assert doc["error"]["kind"] == "invalid-argument"
    assert "must be >= 1" in doc["error"]["message"]


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_exit_2_samples_below_1_names_the_flag(capsys, monkeypatch, samples):
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(cli, "maximize_nu", no_search)
    code, doc = run_json(capsys, "verify", "region", "--d", "6",
                         "--delta", "1/1000", "--epsilon", "1/1000",
                         "--samples", samples)
    assert code == 2
    assert doc["error"] == {"kind": "invalid-argument",
                            "message": "--samples must be >= 1"}


@pytest.mark.parametrize("streams", ["0", "-2"])
def test_exit_2_streams_below_1_names_the_flag(capsys, monkeypatch, streams):
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr(cli, "maximize_nu", no_search)
    code, doc = run_json(capsys, "verify", "region", "--d", "6",
                         "--delta", "1/1000", "--epsilon", "1/1000",
                         "--streams", streams)
    assert code == 2
    assert doc["error"] == {"kind": "invalid-argument",
                            "message": "--streams must be >= 1"}


@pytest.mark.parametrize("flags, message", [
    (("--d", "0", "--delta", "1/1000"), "d must be >= 1"),
    (("--d=-4", "--delta", "1/1000"), "d must be >= 1"),
    (("--d", "2", "--delta=-1/1000"), "must be non-negative"),
    (("--d", "6", "--delta=-1/1000"), "must be non-negative"),
], ids=["d-zero", "d-negative", "d2-delta-negative", "d6-delta-negative"])
def test_exit_2_bad_region_arguments(capsys, flags, message):
    # refused up front: before the empty-region shortcut, and before a search
    code, doc = run_json(capsys, "verify", "region", *flags,
                         "--epsilon", "1/1000", "--samples", "50")
    assert code == 2
    assert doc["error"]["kind"] == "invalid-argument"
    assert message in doc["error"]["message"]


def test_exports_resolve():
    names = abckit.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(abckit, name), name


def test_python_dash_m_entry_point(capsys):
    code, out = run(capsys, "verify", "cases")
    env = dict(os.environ)
    src = str(Path(abckit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "abckit", "verify", "cases"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_csv_rejected_where_not_flat(capsys):
    code, doc = run_json(capsys, "verify", "cases", "--format", "csv")
    assert code == 2
    assert doc["error"]["kind"] == "usage"


def test_main_reuses_its_parser(capsys, monkeypatch):
    # one process: a run, an argument error, ABCKIT_BUDGET changed, the
    # same run again; each gives the bytes and exit code of its own process
    env = dict(os.environ)
    env.pop("ABCKIT_BUDGET", None)
    src = str(Path(abckit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    argv = ["count", "nlambda", "--x", "200", "--lambda", "9/10"]
    steps = ((argv, None), (argv[:-1] + ["0.9"], None), (argv, "10"))
    monkeypatch.delenv("ABCKIT_BUDGET", raising=False)
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    kinds = []
    try:
        for args, budget in steps:
            if budget is not None:
                monkeypatch.setenv("ABCKIT_BUDGET", budget)
                env["ABCKIT_BUDGET"] = budget
            got = run(capsys, *args)
            proc = subprocess.run(
                [sys.executable, "-m", "abckit", *args],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert got == (proc.returncode, proc.stdout), args
            kinds.append((got[0], json.loads(got[1]).get("error", {}).get("kind")))
    finally:
        cli._parser.cache_clear()
    assert kinds == [(0, None), (2, "usage"), (2, "budget-exceeded")]
    assert len(built) == 1


def test_help_names_the_technique(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factorize", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "rho" in out
    with pytest.raises(SystemExit):
        main(["count", "debruijn", "--help"])
    assert "radical" in capsys.readouterr().out


# --- golden stdout: the report bytes are pinned by their sha256 ---

_TIES_CONFIG = {  # a == b, and several methods tie on pairs and indices
    "d": 3,
    "a": ["1/6", "1/12", "0"],
    "b": ["1/6", "1/12", "0"],
    "c": ["1/12", "1/12", "1/18"],
    "delta": "1/1000",
    "epsilon": "0",
}

_LATTICE_CONFIG = {  # a feasible d = 6 sample on the 3,000,000 grid
    "d": 6,
    "a": ["9401/62500", "36299/3000000", "22011/1000000", "28351/500000",
          "347/9375", "166649/3000000"],
    "b": ["44261/200000", "1653/250000", "12943/3000000", "18099/1000000",
          "299/25000", "110803/1500000"],
    "c": ["444217/3000000", "51377/3000000", "691/37500", "10173/200000",
          "40081/3000000", "246067/3000000"],
    "delta": "1/1000",
    "epsilon": "1/1000",
}

_REGION = ("verify", "region", "--d", "6", "--delta", "1/1000",
           "--epsilon", "1/1000", "--samples", "300", "--seed", "2")

_COUNT_S = ("count", "s", "--x", "60", "--alpha", "1/2", "--beta", "2/3",
            "--gamma", "3/4")
_COUNT_S_STAR = ("count", "s", "--x", "64", "--alpha", "1/3", "--beta", "1/2",
                 "--gamma", "2/3", "--star")
_TERNARY = ("count", "ternary", "--exponents", "1,2,3",
            "--coefficients=-1,1,2", "--limits", "40,12,9")
_DEBRUIJN = ("count", "debruijn", "--x", "5000", "--lambda", "2/3")
_NLAMBDA = ("count", "nlambda", "--x", "4000", "--lambda", "1")
_BD = ("count", "bd", "--spec", "{box}")

_BOX_SPEC = {  # 7 + 2*4 = 3*5 is its one solution; an anchor below 1, 3 > Delta^A
    "d": 2,
    "c": [1, 2, 3],
    "X": ["4", "1/2"], "Y": ["2", "1/2"], "Z": ["4", "1/2"],
    "A": "1/4",
}

_GOLDEN = {  # name: (argv, exit code, sha256 of stdout)
    "bounds-ties-json": (
        ("bounds", "eval", "--config", "{ties}", "--extended-fourier"),
        0, "20876d9249554f84e83e00db23671204db627dcf4b9953af3c50862af0786386"),
    "bounds-ties-table": (
        ("bounds", "eval", "--config", "{ties}", "--extended-fourier",
         "--format", "table"),
        0, "f1ee73a4dcd7b75bfc269cf1285d0d67e692787e67358ec05d007f98fc73d1dc"),
    "bounds-lattice-json": (
        ("bounds", "eval", "--config", "{lattice}", "--extended-fourier"),
        0, "0ab2fb4dff6c40490fcc3a7f5fe8eaff16fc2a2cdc5124eff7074067f2adcab0"),
    "bounds-lattice-table": (
        ("bounds", "eval", "--config", "{lattice}", "--extended-fourier",
         "--format", "table"),
        0, "4fe357124893b38b4df32df989b6514cecc849d0d07a4e190f156c176653b603"),
    "region-json": (
        _REGION,
        0, "f4d9566704e7ba3559d4bb922be4da58498c26beb65d039fbbccaaca1602d9f4"),
    "region-table": (
        _REGION + ("--format", "table"),
        0, "287413f9192e5eaef9e1ccd21051d7f2e6ea6de992a35f3d75f4aa1dfba5873a"),
    "region-2000-json": (
        ("verify", "region", "--d", "6", "--delta", "1/1000",
         "--epsilon", "1/1000", "--samples", "2000"),
        0, "0006a58984693e877ec4ce6fae156d770010a30944458ba00a8ce433c131cfbf"),
    "region-2000-table": (
        ("verify", "region", "--d", "6", "--delta", "1/1000",
         "--epsilon", "1/1000", "--samples", "2000", "--format", "table"),
        0, "4f05c197278d989f82d7edf903ed4cc4f4b6c67bd89d68199ecf668de8c9ad3c"),
    "region-d10-json": (
        ("verify", "region", "--d", "10", "--delta", "1/1000",
         "--epsilon", "1/1000", "--samples", "400"),
        0, "bed9787f1ff8f68b20d39531aaf2f299a05c348a0c6368969810e980b7d2f900"),
    "region-six-methods-json": (
        ("verify", "region", "--d", "6", "--delta", "1/1000",
         "--epsilon", "1/1000", "--samples", "400", "--methods",
         "trivial,fourier,geometry,determinant,thue,extended-fourier"),
        0, "c4ed027383d5bfabfc2d566005bf2fa79371e4a0ce4e8957d4e6bed0cf77b48f"),
    # d = 3 at epsilon 1/50: a window left to search, but no draw lands in it
    "region-thin-json": (
        ("verify", "region", "--d", "3", "--delta", "0",
         "--epsilon", "1/50", "--samples", "50"),
        0, "00d1fff39e10d4ddc18e60bf83982112f306a3397b99731ce5c1c0bc29c66a00"),
    # d = 3 at epsilon 1/25: C4 totals of at most 8/25 leave every pair
    # short of C2, so the region is empty before any draw
    "region-c2-empty-json": (
        ("verify", "region", "--d", "3", "--delta", "0",
         "--epsilon", "1/25", "--samples", "50"),
        0, "108f31b692a94c10f0f595408322d11753695550cfbaf0a589529dc42a935481"),
    "region-empty-json": (
        ("verify", "region", "--d", "2", "--delta", "1/1000",
         "--epsilon", "1/1000", "--samples", "10"),
        0, "c86d9ef1ed39ce062c180beb23d8bd87ddcdae457c238ab9fe2dfe9e701d636b"),
    "cases-json": (
        ("verify", "cases"),
        0, "81acbf100ee715dbcbaad1bb0cbe12a8cab9a654f265967d12831b4b74a552f0"),
    "cases-table": (
        ("verify", "cases", "--format", "table"),
        0, "6d6ba397be6f44ad722834f473ef132c5f0c2ce4cd0e6a9819433131f72b88ba"),
    "count-s-ca": (
        _COUNT_S,
        0, "94499dc911c7abe773fe380ecfaaf09934261e0f7c84af30c5f08531e26bb1b2"),
    "count-s-ab": (
        _COUNT_S + ("--strategy", "ab"),
        0, "6520eb165446fd1cb900e209b6247992a5e466fb5653cdac0652e5c6357a9594"),
    "count-s-star-ca": (
        _COUNT_S_STAR,
        0, "d39900fbb4e8cff406f38174831da32de3da82655b9e3cc4418b2c3223c2b7fa"),
    "count-s-star-ab": (
        _COUNT_S_STAR + ("--strategy", "ab"),
        0, "7a03866c6f84bbaea8fcb91b9d99753365f0342f4a5ee32665b979d508918745"),
    "count-ternary-solve-z": (
        _TERNARY,
        0, "cd4491ac38320244342e7b3616bfb46b7593f2194a78f09b53d35cd054a4aae3"),
    "count-ternary-nested": (
        _TERNARY + ("--strategy", "nested"),
        0, "98965dfe28d74b517ad7e4ae9266ede02ed428f7a7745b89597c95225aa6d847"),
    "count-nlambda-json": (
        _NLAMBDA,
        0, "39c514888121746aefb2072fe7c64e2027f94e50193a19bbb63ea239af75a145"),
    "count-nlambda-unordered-json": (
        _NLAMBDA + ("--unordered",),
        0, "c98294e6bec8f33156b50b9888f2ad7a73331c8198048ebdb3bdca47d909386c"),
    "count-nlambda-csv": (
        ("count", "nlambda", "--x", "2000", "--lambda", "3/2", "--format", "csv"),
        0, "3499d7b92bebadd06988b2ceb809246e73624db59c36676450fe520b863e010d"),
    "count-debruijn-scan": (
        _DEBRUIJN,
        0, "1c8e2b53930aa0e525a84e9d99ff47a9fc6424bd7ef01526a0622740ffef61cc"),
    "count-debruijn-radical-first": (
        _DEBRUIJN + ("--strategy", "radical-first"),
        0, "e30f477c1c38a2c8849efc8346735672af2ad5cf946bf60cb6f5fec349be241d"),
    "sieve-json": (
        ("sieve", "--limit", "3000"),
        0, "d43f241640815abef33123529d83eb7cbcc37b32a5c4d6629655e22167c79560"),
    "sieve-csv": (
        ("sieve", "--limit", "3000", "--format", "csv"),
        0, "9d916d6b58a69da79b3673848d6e8f0dd0a583a1a9ee4b79197461d23f12a121"),
    "sieve-table": (
        ("sieve", "--limit", "3000", "--format", "table"),
        0, "83c21fc35484af9294cadca1fcd62ab719191f980cdd5f5af65a8d8df12fceba"),
    # trial division runs in blocks of 64 wheel candidates: 241 ends the
    # first block, 487 starts the third, 9973 is the last prime below the
    # cap and 10007 the first above it
    "factorize-9973x10007": (
        ("factorize", str(9973 * 10007)),
        0, "369b2f98563a02ccbe7140c5ec75f2c787c2a758be5c63b7c1c659bbd0d3c2e2"),
    "factorize-10007-squared": (
        ("factorize", str(10007**2)),
        0, "80b6b3f12813518d2d19cfad49271abe1259c57445276f4038018c6ebe7c8479"),
    "factorize-487-squared-x1000003": (
        ("factorize", str(487**2 * 1_000_003)),
        0, "ef7711be81a6280b527feece29006eaab856bf61124ed6c88150d1861879fc1b"),
    "factorize-241x1000000007": (
        ("factorize", str(241 * 1_000_000_007)),
        0, "2aa15a24390a72a7cc2645049b2140d2aaa9a18ff4655709f6c78f3257f57466"),
    # count tables and CSV, count bd, rad, reduce-triple, one error per kind
    "count-nlambda-table": (
        _NLAMBDA + ("--format", "table"),
        0, "873d8238277c5bf9832e0aba5298c52ff8030ff15789e095c0e087c97e23bbc3"),
    "count-s-table": (
        _COUNT_S + ("--format", "table"),
        0, "06cb5c329cd2e1db32101afe6c4a3b459eb8a7b697c8c60bbbd27a96b383340a"),
    "count-s-csv": (
        _COUNT_S + ("--format", "csv"),
        0, "97d388bbbc50778127f646a19c9e6dd7e0c3995e17705200733be0fb69b3041d"),
    "count-debruijn-table": (
        _DEBRUIJN + ("--format", "table"),
        0, "9451adc13ad1121cc4715ebe1181099d50ba1c60cea4a63d805dcb1e0eaa9496"),
    "count-debruijn-csv": (
        _DEBRUIJN + ("--format", "csv"),
        0, "39d46efaad4a1d6688a10fcc9639640c70b124e6610c20b28fae26cab09d5c41"),
    "count-ternary-table": (
        _TERNARY + ("--format", "table"),
        0, "345605626501a3bf27fbacc5fa429044d0dfcd61dcacfd6b7e60bb90ec7cd2dc"),
    "count-ternary-csv": (
        _TERNARY + ("--format", "csv"),
        0, "f909e632e003ea4e3902177dacb309e0336d7b7a621f1901110dddebc77e8081"),
    "count-bd-json": (
        _BD,
        0, "e212dfdd1f482f9daa7bf1532ef2ebb6b7d079aa37ced682da6c6bb7aad4fc44"),
    "count-bd-table": (
        _BD + ("--format", "table"),
        0, "74e5822bb8649818aed536709bfc0f329bc194b7ba9d15103e42bfb0c6cf0cf7"),
    "count-bd-csv": (
        _BD + ("--format", "csv"),
        0, "31d79db3cdfbf9e7350aa32db9f2811924dbd9a1d852e3b131c9283169a9f72d"),
    "rad": (
        ("rad", "720720"),
        0, "6ad9ef130ac0052aadb5e19b9676315e1cb008872ea0c18fe3295b5a69aa0bac"),
    "reduce-triple": (
        ("reduce-triple", "--a", "3", "--b", "125", "--c", "128",
         "--x", "200", "--epsilon", "1/4"),
        0, "9723ac313bec46e7199e97888b0389ff657ee20e704911463b97ba428f341a4a"),
    "error-usage": (
        ("rad", "96", "--frobnicate"),
        2, "bf34f88ad1d16f53b6588461ec0296857b3fc38833f01d10f330f6de0813e4ab"),
    "error-bad-file-missing": (
        ("bounds", "eval", "--config", "missing.json"),
        2, "34d922123faee829fc0b8d59348acfbe1005bbd6798b775ed6ec74eb6e54d92d"),
    "error-bad-file-key": (
        ("count", "bd", "--spec", "{nokey}"),
        2, "201ec977c666d7279258d8694823cea4e89851711426b4965f774c23da3b12b0"),
    "error-budget-exceeded": (
        _NLAMBDA + ("--budget", "10"),
        2, "297f9e00f1d5cb1c5103d62829558b711b540c5cd72a3ed1ef51001c35b816f3"),
    "error-invalid-argument": (
        _COUNT_S[:4] + ("--alpha=-1/2",) + _COUNT_S[6:],
        2, "d363db0257badb8ae2288dae3391e3946e598723e852334fbbd00fe2e7345e22"),
}


def test_golden_stdout(capsys, tmp_path, monkeypatch):
    # relative paths, so a bad-file message names the same file every run
    monkeypatch.chdir(tmp_path)
    nokey = {k: v for k, v in _BOX_SPEC.items() if k != "c"}
    paths = {}
    for name, doc in (("ties", _TIES_CONFIG), ("lattice", _LATTICE_CONFIG),
                      ("box", _BOX_SPEC), ("nokey", nokey)):
        paths[name] = f"{name}.json"
        Path(paths[name]).write_text(json.dumps(doc))
    for name, (argv, want_code, want_sha) in _GOLDEN.items():
        argv = [a.format(**paths) for a in argv]
        code, out = run(capsys, *argv)
        sha = hashlib.sha256(out.encode()).hexdigest()
        assert (code, sha) == (want_code, want_sha), f"{name} printed:\n{out}"
