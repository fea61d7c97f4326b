"""abckit benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload region|arith|replay|all \
        --seed N --seconds S --trace 0|1

The benchmark imports abckit from ``src/`` of the checkout it sits in, and
refuses (exit 2, no result) when that is missing.  It builds each
workload's inputs from the seed and repeats the workload's fixed job,
single-threaded in this process, for about ``--seconds`` seconds, checking
every output.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several set-ups, each in a fresh interpreter, from the start of this
script: import abckit, build the inputs, write the CLI's config files),
``wall_s`` (the fixed job) and
``peak_rss_mb`` (this process's peak resident memory; one workload per
process).  Both times are corrected for the host's drifting speed by a
reference job run around each set-up and each part of the job: see
``job_seconds`` and NOTES.md.  ``--trace 1`` alternates untraced and
traced runs of the job and reports the per-layer metrics of
``layers.PER_LAYER``, each the median over the traced runs, with times
scaled to the reference speed as ``wall_s`` is; the spans of
the first traced run are written to ``bench/out/``.  ``--workload all``
runs each workload in its own process and prints one table.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
the run record (git SHA, Python, core count, seed, library arguments, work
counters and the sha256 digest of the job's canonical output); it is also
written to ``bench/out/``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import asdict  # noqa: E402
from fractions import Fraction  # noqa: E402
from math import gcd  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("region", "arith", "replay")
SETUP_REPS = 15
# The host's speed drifts by up to 1.6x over seconds to minutes (NOTES.md).
# wall_s is therefore stated at the speed at which reference_time() takes
# this long, close to its time on a quiet core of the 2-core machine where
# the benchmark was defined (Python 3.11.7).
REFERENCE_S = 0.0035


class MissingProgram(RuntimeError):
    """The checkout has no abckit sources to benchmark."""


def load_abckit():
    """Import abckit from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "abckit" / "__init__.py").is_file():
        raise MissingProgram(f"no abckit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import abckit

    if Path(abckit.__file__).resolve().parent != src / "abckit":
        raise MissingProgram(f"abckit was imported from {abckit.__file__}, not {src}")
    return abckit


def git_sha():
    """HEAD of the checkout, read from .git without running git (None when
    the checkout is not a git repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def time_setups(workload: str, seed: int, reps: int) -> list[tuple]:
    """``reps`` set-ups, each in a fresh interpreter: (seconds from the start
    of this script to inputs ready, mean of two reference times right after)."""
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-only"],
            check=True, capture_output=True, text=True, cwd=ROOT,
        )
        child = json.loads(proc.stdout.splitlines()[-1])
        times.append((child["setup_s"], child["reference_s"]))
    return times


def reference_time() -> float:
    """Time of a fixed pure-Python job (Fraction arithmetic, dict and list
    churn, a keyed sort) that uses no abckit code: a probe of the speed the
    host currently gives this process."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 600):
        f = Fraction(i, i % 17 + 1)
        acc += f * f - Fraction(1, i)
        table[i, i % 7] = [gcd(i, 360), i * i % 97]
    sorted(table.items(), key=lambda kv: (kv[1][1], -kv[0][0]))
    return time.perf_counter() - t0


def _run_job(steps, mark):
    """One run of the fixed job: ({part: (seconds, reference seconds)}, ledger).

    Each part is bracketed by two runs of reference_time, outside its timing."""
    import workloads as W

    led = W.Ledger()
    parts = {}
    for name, step in steps:
        before = reference_time()
        t0 = time.perf_counter()
        step(led, mark)
        took = time.perf_counter() - t0
        parts[name] = (took, (before + reference_time()) / 2)
    return parts, led


def job_seconds(runs) -> float:
    """The job's time at the reference speed: each part's median, over the
    runs, of its time over its bracketing reference time, summed and scaled
    by REFERENCE_S."""
    return REFERENCE_S * sum(
        statistics.median(parts[name][0] / parts[name][1] for parts in runs)
        for name in runs[0]
    )


def _raw(parts) -> float:
    return sum(took for took, _ in parts.values())


def measure(workload: str, seed: int, seconds: float, trace: int, *,
            sizes=None, setup_reps: int = SETUP_REPS) -> dict:
    """Run one workload; returns {"result": ..., "record": ...}."""
    load_abckit()
    import abckit.bounds as B
    import layers as L
    import workloads as W
    from spans import ARGS, Tracer

    sizes = sizes or W.FULL
    setup, steps_of = W.WORKLOADS[workload]
    setups = time_setups(workload, seed, setup_reps) if trace == 0 else []
    OUT.mkdir(exist_ok=True)
    runs, traced_runs, per_rep = [], [], []
    ledgers = []
    first_tracer = None
    deadline = time.perf_counter() + seconds
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        inputs = setup(seed, sizes, workdir)
        steps = steps_of(inputs)
        while True:
            parts, led = _run_job(steps, W.no_mark)
            runs.append(parts)
            ledgers.append(led)
            if trace:
                tracer = Tracer(f"{workload}-{seed}-{len(traced_runs)}")
                with tracer.patched(L.traced_functions()):
                    tparts, tled = _run_job(steps, tracer.span)
                traced_runs.append(tparts)
                ledgers.append(tled)
                captured = [rec[ARGS] for rec in tracer.spans
                            if rec[0] == "bounds.fast_best"]
                fast_us = L.fast_method_replay(B.fast_best, captured)
                layer = L.layer_metrics(tracer.spans, tled.work, fast_us)
                # times at the reference speed, like wall_s
                scale = REFERENCE_S / statistics.median(ref for _, ref in tparts.values())
                per_rep.append({k: v * scale if L.PER_LAYER[k] in ("s", "ms", "us") else v
                                for k, v in layer.items()})
                if first_tracer is None:
                    first_tracer = tracer
            spent = _raw(parts) + (_raw(tparts) if trace else 0)
            if time.perf_counter() + spent > deadline:
                break
    walls = [_raw(parts) for parts in runs]
    wall_s = job_seconds(runs)
    if first_tracer is not None:
        first_tracer.write_jsonl(OUT / f"spans-{workload}-{seed}.jsonl")

    # every run of the job must repeat the first one exactly
    ref = ledgers[0]
    attempted = sum(led.attempted for led in ledgers)
    failures = [f for led in ledgers for f in led.failures]
    for led in ledgers[1:]:
        attempted += 1
        if (led.digest, led.work) != (ref.digest, ref.work):
            failures.append("run differs from the first run (digest or work)")

    if trace:
        metrics = {k: statistics.median(r[k] for r in per_rep)
                   for k in L.PER_LAYER if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = job_seconds(traced_runs) - wall_s
        units = L.PER_LAYER
    else:
        metrics = {
            "setup_s": REFERENCE_S * statistics.median(t / ref for t, ref in setups),
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = L.END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": nproc(),
        "library_args": _library_args(inputs),
        "sizes": asdict(sizes),
        "runs": len(walls),
        "wall_s_runs": walls,
        "parts_s_runs": [{k: took for k, (took, _) in p.items()} for p in runs],
        "reference_s_runs": [{k: ref for k, (_, ref) in p.items()} for p in runs],
        "traced_wall_s_runs": [_raw(p) for p in traced_runs],
        "setup_s_runs": [t for t, _ in setups],
        "setup_reference_s_runs": [ref for _, ref in setups],
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "work": ref.work,
        "digest": ref.digest,
    }
    return {"result": result, "record": record}


def _library_args(inputs) -> dict:
    """The workload's inputs as JSON, configurations as {d, a, b, c, ...}."""
    import abckit.bounds as B
    import workloads as W

    def plain(value):
        if isinstance(value, B.ExponentConfiguration):
            return W.config_doc(value)
        return str(value)

    out = dict(vars(inputs))
    if "cli_configs" in out:
        out["cli_configs"] = [cfg for _, cfg in out["cli_configs"]]
    return json.loads(json.dumps(out, default=plain))


def _print_report(name: str, measured: dict) -> None:
    res, rec = measured["result"], measured["record"]
    print(f"{name}: seed {rec['seed']}, {rec['runs']} runs, "
          f"failed_frac {rec['failed_frac']:.4g} "
          f"({res['failed']} of {res['attempted']} operations)")
    for key, m in res["metrics"].items():
        print(f"  {key:36s} {m['value']:>14.6g} {m['unit']}")
    if rec["runs"] > 1 and not rec["trace"]:
        q = statistics.quantiles(rec["wall_s_runs"], n=4)
        print(f"  (measured job time over {rec['runs']} runs: median {q[1]:.4g} s, "
              f"quartiles {q[0]:.4g}-{q[2]:.4g} s)")


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        result, record = json.loads(lines[-1]), json.loads(lines[-2])
        _print_report(name, {"result": result, "record": record})
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        load_abckit()
    except (MissingProgram, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_only:
        import workloads as W

        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            W.WORKLOADS[args.workload][0](args.seed, W.FULL, workdir)
            took = time.perf_counter() - STARTED
        reference = (reference_time() + reference_time()) / 2
        print(json.dumps({"setup_s": took, "reference_s": reference}))
        return 0
    measured = measure(args.workload, args.seed, args.seconds, args.trace)
    record = measured["record"]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _print_report(args.workload, measured)
    print(json.dumps(record))
    print(json.dumps(measured["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
