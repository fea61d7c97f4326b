"""Paired benchmark runs of two checkouts, with the gain verdict.

Runs ``bench/run.py --trace 0`` once per seed and workload in each of two
checkouts, the parent and the change, alternating which side runs first.
Per seed it prints each side's end-to-end metrics, whether the change's
output ``digest`` and ``work`` counters equal the parent's, and each side's
failed and attempted operations; per workload, how many seeds gave
identical outputs and, per end-to-end metric of BENCHMARK.json:

- each side's median and quartiles over the pairs;
- the change's wins, ties counting for neither side;
- the verdict of a claimed gain: the change wins at least nine tenths of
  the pairs, at least ten pairs were run, and the medians differ, in the
  metric's better direction, by more than the parent's interquartile
  range;
- the change's median relative to the parent's, against the metric's
  bound in BENCHMARK.json, read as a fraction of the parent's median.

The benchmark runs as a subprocess in each checkout; nothing under bench/
is changed.  Usage, from the root of the change's checkout:

    python3 tools/bench_pairs.py --parent ../parent --workload replay \\
        --seeds 101 102 103 104 105 106 107 108 109 110 --seconds 35
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads strictly better."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str) -> str:
    """'gain' when at least MIN_PAIRS pairs were run, the change wins at
    least WIN_SHARE of them, and its median is better than the parent's by
    more than the parent's interquartile range; 'too few pairs' below
    MIN_PAIRS; 'no gain' otherwise."""
    if len(parent) != len(change):
        raise ValueError("parent and change need one value per pair")
    if len(parent) < MIN_PAIRS:
        return "too few pairs"
    q1, parent_med, q3 = quartiles(parent)
    change_med = quartiles(change)[1]
    gap = parent_med - change_med if better == "lower" else change_med - parent_med
    won = wins(parent, change, better) >= WIN_SHARE * len(parent)
    return "gain" if won and gap > q3 - q1 else "no gain"


def parse_run(stdout: str) -> dict:
    """One run of bench/run.py, read from its stdout: the end-to-end metric
    values, the output ``digest`` and ``work`` counters of the run record
    (the second-to-last line) and the ``failed`` and ``attempted``
    operations of the result (the last line)."""
    *_, record, result = stdout.splitlines()
    record, result = json.loads(record), json.loads(result)
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "digest": record["digest"], "work": record["work"],
            "failed": result["failed"], "attempted": result["attempted"]}


def compare_outputs(parent: dict, change: dict) -> dict:
    """Whether the change's run repeated the parent's outputs (``digest``
    and ``work`` each compared, ``identical`` when both are equal), and
    each side's failed and attempted operations."""
    digest, work = (parent[k] == change[k] for k in ("digest", "work"))
    return {"digest": digest, "work": work, "identical": digest and work,
            "failed": (parent["failed"], change["failed"]),
            "attempted": (parent["attempted"], change["attempted"])}


def outputs_line(cmp: dict) -> str:
    """compare_outputs' verdict on one seed, as one line of text."""
    same = {True: "equal", False: "DIFFERS"}
    (pf, cf), (pa, ca) = cmp["failed"], cmp["attempted"]
    return (f"digest {same[cmp['digest']]}, work {same[cmp['work']]}, "
            f"failed {pf}/{pa} -> {cf}/{ca}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in checkout, as parse_run reads it."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout)


def report(workload: str, metrics: list[dict], parent: list[dict], change: list[dict]) -> None:
    same = sum(compare_outputs(p, c)["identical"] for p, c in zip(parent, change))
    print(f"{workload}: {len(parent)} pairs, identical outputs in {same} of {len(parent)} seeds")
    for m in metrics:
        name, better = m["name"], m["better"]
        pv, cv = [r["metrics"][name] for r in parent], [r["metrics"][name] for r in change]
        pq, cq = quartiles(pv), quartiles(cv)
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        worse = rel if better == "lower" else -rel
        print(f"  {name:12s} parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]  "
              f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]  "
              f"wins {wins(pv, cv, better)}/{len(pv)}  {verdict(pv, cv, better)}  "
              f"{rel:+.1%} ({'within' if worse <= m['bound'] else 'OUTSIDE'} "
              f"bound {m['bound']:.0%})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent's checkout")
    ap.add_argument("--change", type=Path, default=ROOT, help="the change's checkout")
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload of BENCHMARK.json; may be repeated")
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    ap.add_argument("--seconds", type=float, default=35.0)
    args = ap.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    for workload in args.workload:
        parent, change = [], []
        for k, seed in enumerate(args.seeds):
            sides = [(args.parent, parent), (args.change, change)]
            for checkout, out in sides if k % 2 == 0 else sides[::-1]:
                out.append(run_once(checkout, workload, seed, args.seconds))
            pm, cm = parent[-1]["metrics"], change[-1]["metrics"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m['name']} {pm[m['name']]:.4g} -> {cm[m['name']]:.4g}"
                for m in metrics) + "; " + outputs_line(
                    compare_outputs(parent[-1], change[-1])), flush=True)
        report(workload, metrics, parent, change)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
