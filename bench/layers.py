"""Per-layer metrics of a traced job, named after the module they measure.

Times come from the spans of one traced job (``spans.Tracer``); counts come
from the same spans or from the job's own work counters, which are
deterministic and identical in traced and untraced runs.  A layer the
workload does not exercise reports 0.
"""

from __future__ import annotations

from math import ceil
from time import perf_counter

import abckit.bounds as B
import abckit.cases as CS
import abckit.cli as CLI
import abckit.counting as C
import abckit.exact as E
import abckit.powerfact as P
import abckit.radicals as R
import abckit.region as RG
from spans import ARGS, END, KWARGS, NAME, PARENT, START, self_times

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

FAST_METHODS = ("trivial", "fourier", "geometry", "determinant", "thue")
EVALUATOR_NAMES = ("trivial", "fourier", "geometry", "determinant", "thue",
                   "extended_fourier")

PER_LAYER = {
    "bounds.fast_best_calls": "count",
    "bounds.fast_best_s": "s",
    "bounds.fast_best_us_p50": "us",
    "bounds.fast_best_us_p99": "us",
    **{f"bounds.fast_{m}_us_p50": "us" for m in FAST_METHODS},
    **{f"bounds.wins_{m}": "count" for m in FAST_METHODS},
    "bounds.best_bound_calls": "count",
    "bounds.best_bound_ms_p50": "ms",
    "bounds.best_bound_ms_p90": "ms",
    **{f"bounds.{m}_bound_s": "s" for m in EVALUATOR_NAMES},
    "bounds.evaluate_at_calls": "count",
    "bounds.evaluate_at_s": "s",
    "bounds.geometry_exhaustive_s": "s",
    "region.maximize_nu_s": "s",
    "region.self_s": "s",
    "region.samples": "count",
    "region.feasible": "count",
    "region.feasible_ratio": "ratio",
    "region.max_found": "exponent",
    "region.sample_feasible_s": "s",
    "region.sample_feasible_configs": "count",
    "region.check_constraints_calls": "count",
    "region.check_constraints_s": "s",
    "radicals.factorize_calls": "count",
    "radicals.factorize_s": "s",
    "radicals.factorize_us_p50": "us",
    "radicals.factorize_us_p99": "us",
    "radicals.large_factorize_calls": "count",
    "radicals.large_factorize_ms_p50": "ms",
    "radicals.large_factorize_ms_max": "ms",
    "radicals.radical_calls": "count",
    "radicals.sieve_s": "s",
    "radicals.sieve_entries": "count",
    "powerfact.calls": "count",
    "powerfact.power_factorize_self_s": "s",
    "powerfact.verify_calls": "count",
    "powerfact.verify_self_s": "s",
    "exact.pow_leq_calls": "count",
    "exact.pow_leq_s": "s",
    "counting.nlambda_ca_s": "s",
    "counting.nlambda_ab_s": "s",
    "counting.nlambda_candidates": "count",
    "counting.nlambda_hits": "count",
    "counting.s_ca_s": "s",
    "counting.s_ab_s": "s",
    "counting.radical_bounded_scan_s": "s",
    "counting.radical_bounded_rf_s": "s",
    "counting.ternary_solvez_s": "s",
    "counting.ternary_nested_s": "s",
    "counting.bd_boxes": "count",
    "counting.bd_s": "s",
    "cases.catalog_s": "s",
    "cases.checks": "count",
    "cli.calls": "count",
    "cli.main_s": "s",
    "cli.overhead_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Work counters the jobs record themselves, reported as they are.
_FROM_WORK = (
    "region.samples", "region.feasible", "region.max_found",
    "region.sample_feasible_configs", "radicals.large_factorize_calls",
    "counting.nlambda_candidates", "counting.nlambda_hits",
    "counting.bd_boxes", "cases.checks", "cli.calls", "cli.stdout_bytes",
    *(f"bounds.wins_{m}" for m in FAST_METHODS),
)


def traced_functions():
    """The public functions wrapped in a traced run, with their layer."""
    return [
        ("bounds", B.fast_best),
        *(("bounds", getattr(B, f"{m}_bound")) for m in EVALUATOR_NAMES),
        ("bounds", B.best_bound),
        ("bounds", B.evaluate_at),
        ("region", RG.maximize_nu),
        ("region", RG.sample_feasible),
        ("region", RG.check_constraints),
        ("radicals", R.factorize),
        ("radicals", R.radical),
        ("radicals", R.build_radical_table),
        ("powerfact", P.power_factorize),
        ("powerfact", P.verify_power_factorization),
        ("exact", E.pow_leq),
        ("counting", C.count_exceptional_triples),
        ("counting", C.count_s),
        ("counting", C.count_radical_bounded),
        ("counting", C.count_ternary),
        ("counting", C.count_bd),
        ("cases", CS.verify_case_catalog),
        ("cli", CLI.main),
    ]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


class _Spans:
    """Outermost spans by name (a recursive call is part of its caller)."""

    def __init__(self, spans):
        self.spans = spans
        self.selfs = self_times(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, rec in enumerate(spans):
            parent = rec[PARENT]
            if parent >= 0 and spans[parent][NAME] == rec[NAME]:
                continue
            self.by_name.setdefault(rec[NAME], []).append(i)

    def select(self, name, where=None):
        return [
            i for i in self.by_name.get(name, ())
            if where is None or where(self.spans[i])
        ]

    def durations(self, name, where=None):
        return [self.spans[i][END] - self.spans[i][START]
                for i in self.select(name, where)]

    def total(self, name, where=None) -> float:
        return sum(self.durations(name, where))

    def self_total(self, name) -> float:
        return sum(self.selfs[i] for i in self.select(name))

    def calls(self, name) -> int:
        return len(self.select(name))


def _strategy(value):
    return lambda rec: rec[KWARGS].get("strategy") == value


def _exhaustive(rec) -> bool:
    return rec[KWARGS].get("mode") == "exhaustive"


def fast_method_replay(fast_best, captured, limit: int = 256) -> dict:
    """Median time of fast_best restricted to each method, replayed on an
    evenly spaced subset of the argument tuples the traced job passed."""
    if not captured:
        return {m: 0.0 for m in FAST_METHODS}
    step = max(1, len(captured) // limit)
    subset = captured[::step][:limit]
    out = {}
    for m in FAST_METHODS:
        times = []
        for args in subset:
            t0 = perf_counter()
            fast_best(args[0], args[1], args[2], (m,))
            times.append(perf_counter() - t0)
        out[m] = percentile(times, 0.5)
    return out


def layer_metrics(spans, work: dict, fast_us: dict) -> dict:
    """Every PER_LAYER metric except trace.overhead_s."""
    s = _Spans(spans)
    fb = s.durations("bounds.fast_best")
    bb = s.durations("bounds.best_bound")
    fz = s.durations("radicals.factorize")
    large = s.durations("radicals.large_factorize")
    sieve_entries = sum(
        spans[i][ARGS][0] + 1 for i in s.select("radicals.build_radical_table")
    )
    m = {
        "bounds.fast_best_calls": len(fb),
        "bounds.fast_best_s": sum(fb),
        "bounds.fast_best_us_p50": percentile(fb, 0.5) * 1e6,
        "bounds.fast_best_us_p99": percentile(fb, 0.99) * 1e6,
        **{f"bounds.fast_{k}_us_p50": v * 1e6 for k, v in fast_us.items()},
        "bounds.best_bound_calls": len(bb),
        "bounds.best_bound_ms_p50": percentile(bb, 0.5) * 1e3,
        "bounds.best_bound_ms_p90": percentile(bb, 0.9) * 1e3,
        **{f"bounds.{k}_bound_s": s.total(f"bounds.{k}_bound")
           for k in EVALUATOR_NAMES if k != "geometry"},
        "bounds.geometry_bound_s": s.total(
            "bounds.geometry_bound", lambda r: not _exhaustive(r)),
        "bounds.geometry_exhaustive_s": s.total(
            "bounds.geometry_bound", _exhaustive),
        "bounds.evaluate_at_calls": s.calls("bounds.evaluate_at"),
        "bounds.evaluate_at_s": s.total("bounds.evaluate_at"),
        "region.maximize_nu_s": s.total("region.maximize_nu"),
        "region.self_s": s.self_total("region.maximize_nu"),
        "region.sample_feasible_s": s.total("region.sample_feasible"),
        "region.check_constraints_calls": s.calls("region.check_constraints"),
        "region.check_constraints_s": s.total("region.check_constraints"),
        "radicals.factorize_calls": len(fz),
        "radicals.factorize_s": sum(fz),
        "radicals.factorize_us_p50": percentile(fz, 0.5) * 1e6,
        "radicals.factorize_us_p99": percentile(fz, 0.99) * 1e6,
        "radicals.large_factorize_ms_p50": percentile(large, 0.5) * 1e3,
        "radicals.large_factorize_ms_max": max(large, default=0.0) * 1e3,
        "radicals.radical_calls": s.calls("radicals.radical"),
        "radicals.sieve_s": s.total("radicals.build_radical_table"),
        "radicals.sieve_entries": sieve_entries,
        "powerfact.calls": s.calls("powerfact.power_factorize"),
        "powerfact.power_factorize_self_s": s.self_total("powerfact.power_factorize"),
        "powerfact.verify_calls": s.calls("powerfact.verify_power_factorization"),
        "powerfact.verify_self_s": s.self_total("powerfact.verify_power_factorization"),
        "exact.pow_leq_calls": s.calls("exact.pow_leq"),
        "exact.pow_leq_s": s.total("exact.pow_leq"),
        "counting.nlambda_ca_s": s.total(
            "counting.count_exceptional_triples", _strategy("ca")),
        "counting.nlambda_ab_s": s.total(
            "counting.count_exceptional_triples", _strategy("ab")),
        "counting.s_ca_s": s.total("counting.count_s", _strategy("ca")),
        "counting.s_ab_s": s.total("counting.count_s", _strategy("ab")),
        "counting.radical_bounded_scan_s": s.total(
            "counting.count_radical_bounded", _strategy("scan")),
        "counting.radical_bounded_rf_s": s.total(
            "counting.count_radical_bounded", _strategy("radical-first")),
        "counting.ternary_solvez_s": s.total(
            "counting.count_ternary", _strategy("solve-z")),
        "counting.ternary_nested_s": s.total(
            "counting.count_ternary", _strategy("nested")),
        "counting.bd_s": s.total("counting.count_bd"),
        "cases.catalog_s": s.total("cases.verify_case_catalog"),
        "cli.main_s": s.total("cli.main"),
        "cli.overhead_s": s.self_total("cli.main"),
    }
    for key in _FROM_WORK:
        m[key] = work.get(key, 0)
    samples = work.get("region.samples", 0)
    m["region.feasible_ratio"] = work.get("region.feasible", 0) / samples if samples else 0.0
    return m
