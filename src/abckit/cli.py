"""Command-line entry point.

One subcommand per operation family: `rad`, `sieve`, `factorize`,
`reduce-triple`, `count {nlambda|s|debruijn|bd|ternary}`, `bounds eval`,
`verify {region|cases}`, `explore theta`.

Conventions, uniform across subcommands:
  * exactly one JSON document on stdout (CSV/table on request); anything
    diagnostic goes to stderr
  * rationals cross the boundary as "p/q" strings in both directions --
    decimals are rejected so exactness survives the round trip
  * identical argv produces byte-identical output (no timestamps, fixed
    key order, deterministic seeds)
  * exit 0 on success or verdict-pass, 1 on verdict-fail, 2 on usage
    errors and budget refusals, which emit a machine-readable error object
  * ABCKIT_BUDGET sets the default budget for the count commands and
    `sieve` (table entries)
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .bounds import (
    EVALUATORS,
    EXTENDED_METHOD,
    METHOD_NAMES,
    ExponentConfiguration,
    best_bound,
)
from .cases import CaseCheckReport, verify_case_catalog
from .counting import (
    DEFAULT_BUDGET,
    BoxSpec,
    BudgetExceeded,
    TernaryQuery,
    count_bd,
    count_exceptional_triples,
    count_radical_bounded,
    count_s,
    count_ternary,
)
from .exact import format_rational, parse_rational
from .powerfact import reduce_triple, verify_power_factorization
from .radicals import build_radical_table, factorize, radical
from .region import ThetaReport, explore_theta, maximize_nu

SCHEMA = "abckit/1"


class _CliError(Exception):
    def __init__(self, kind: str, message: str, **extra):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.extra = extra


class _Parser(argparse.ArgumentParser):
    # route argparse failures through the JSON error channel
    def error(self, message):
        raise _CliError("usage", message)


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated integers")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise argparse.ArgumentTypeError("expected three comma-separated integers")


def _methods_list(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _print_csv(header, rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _print_table(header, rows) -> None:
    cells = [[str(x) for x in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(header)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    sys.stdout.write(line.rstrip() + "\n")
    sys.stdout.write("  ".join("-" * w for w in widths) + "\n")
    for row in cells:
        sys.stdout.write(
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
        )


# Reports whose JSON keys are not their dataclass fields in order: the
# case report adds all_passed before its checks, and the theta report puts
# theta_estimate before argmax (its rounds are reshaped in _jsonify).
_KEYS = {
    CaseCheckReport: ("delta", "epsilon", "all_passed", "checks"),
    ThetaReport: ("d", "delta", "epsilon", "lam", "budget", "seed", "methods",
                  "rounds", "sup", "theta_estimate", "argmax", "certified"),
}


def _jsonify(value):
    """Reports to JSON: a dataclass becomes an object of its fields in order
    (see _KEYS), `lam` written as `lambda` and each theta round as
    {threshold, verdict}; Fractions become 'p/q' strings; containers
    recurse."""
    if is_dataclass(value):
        keys = _KEYS.get(type(value)) or [f.name for f in fields(value)]
        doc = {key: getattr(value, key) for key in keys}
        if isinstance(value, ThetaReport):
            doc["rounds"] = [{"threshold": t, "verdict": v} for t, v in value.rounds]
        return {"lambda" if k == "lam" else k: _jsonify(v) for k, v in doc.items()}
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _CliError("bad-file", f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise _CliError("bad-file", f"{path} is not valid JSON: {exc}")


def _default_budget(args) -> int | None:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("ABCKIT_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _CliError("usage", f"ABCKIT_BUDGET must be an integer, got {env!r}")
    return None


def _config_from_doc(doc, where: str) -> ExponentConfiguration:
    if not isinstance(doc, dict):
        raise _CliError("bad-file", f"{where}: expected a JSON object")
    try:
        d = int(doc["d"])
        vecs = {}
        for name in ("a", "b", "c"):
            vecs[name] = tuple(parse_rational(str(x)) for x in doc[name])
        delta = parse_rational(str(doc.get("delta", "0")))
        epsilon = parse_rational(str(doc.get("epsilon", "0")))
    except KeyError as exc:
        raise _CliError("bad-file", f"{where}: missing key {exc.args[0]!r}")
    except ValueError as exc:
        raise _CliError("bad-file", f"{where}: {exc}")
    return ExponentConfiguration(
        d=d, a=vecs["a"], b=vecs["b"], c=vecs["c"], delta=delta, epsilon=epsilon
    )


def _emit_count(result, fmt: str, **extra) -> int:
    """Print a CountResult on stdout; its wall time goes to stderr only, so
    stdout stays byte-identical across runs."""
    sys.stderr.write(
        f"{result.query} [{result.strategy}]: "
        f"elapsed {result.elapsed_seconds:.6f} s\n"
    )
    payload = {
        "schema": SCHEMA,
        "query": result.query,
        "count": result.count,
        "strategy": result.strategy,
        **extra,
    }
    if fmt == "json":
        _print_json(payload)
    elif fmt == "csv":
        _print_csv(["query", "count", "strategy"],
                   [[result.query, result.count, result.strategy]])
    else:
        _print_table(["query", "count", "strategy"],
                     [[result.query, result.count, result.strategy]])
    return 0


# --- subcommand handlers ------------------------------------------------------


def _cmd_rad(args) -> int:
    _print_json({"schema": SCHEMA, "n": args.n, "radical": radical(args.n)})
    return 0


def _cmd_sieve(args) -> int:
    # about 0.17 KB per table entry: refuse before allocating any of them
    budget = _default_budget(args)
    budget = DEFAULT_BUDGET if budget is None else budget
    if args.limit > budget:
        raise BudgetExceeded("build_radical_table", args.limit, budget)
    table = build_radical_table(args.limit)
    rows = [[n, table[n]] for n in range(1, args.limit + 1)]
    if args.format == "json":
        _print_json({"schema": SCHEMA, "limit": args.limit, "radicals": rows})
    elif args.format == "csv":
        _print_csv(["n", "radical"], rows)
    else:
        _print_table(["n", "radical"], rows)
    return 0


def _cmd_factorize(args) -> int:
    factors = factorize(args.n)
    _print_json({
        "schema": SCHEMA,
        "n": args.n,
        "factors": {str(p): factors[p] for p in sorted(factors)},
        "radical": radical(args.n),
    })
    return 0


def _cmd_reduce_triple(args) -> int:
    red = reduce_triple(args.a, args.b, args.c, args.x, args.epsilon)
    parts = {}
    checks_ok = True
    for name, pf in (("a", red.fa), ("b", red.fb), ("c", red.fc)):
        checks_ok = checks_ok and verify_power_factorization(pf).ok
        parts[name] = {
            "K": pf.K,
            "M": pf.M,
            "leftover": pf.c,
            "parts": {str(j): x for j, x in sorted(pf.nontrivial_parts.items())},
        }
    _print_json({
        "schema": SCHEMA,
        "a": args.a,
        "b": args.b,
        "c": args.c,
        "x": args.x,
        "epsilon": format_rational(args.epsilon),
        "d": red.d,
        "coefficients": list(red.coefficients),
        "factorizations": parts,
        "checks_ok": checks_ok,
    })
    return 0


def _cmd_count_nlambda(args) -> int:
    result = count_exceptional_triples(
        args.x, args.lam, ordered=not args.unordered,
        strategy=args.strategy, budget=_default_budget(args),
    )
    return _emit_count(result, args.format)


def _cmd_count_s(args) -> int:
    result = count_s(
        args.x, args.alpha, args.beta, args.gamma, star=args.star,
        strategy=args.strategy, budget=_default_budget(args),
    )
    return _emit_count(result, args.format)


def _cmd_count_debruijn(args) -> int:
    result = count_radical_bounded(
        args.x, args.lam, strategy=args.strategy, budget=_default_budget(args)
    )
    return _emit_count(result, args.format)


def _box_from_doc(doc, where: str) -> BoxSpec:
    if not isinstance(doc, dict):
        raise _CliError("bad-file", f"{where}: expected a JSON object")
    try:
        anchors = {
            key: tuple(parse_rational(str(x)) for x in doc[key])
            for key in ("X", "Y", "Z")
        }
        # "c" is the documented key; "coefficients" accepted as an alias
        coeffs = tuple(int(c) for c in doc.get("c", doc.get("coefficients")))
    except TypeError:
        raise _CliError("bad-file", f"{where}: missing key 'c'")
    except KeyError as exc:
        raise _CliError("bad-file", f"{where}: missing key {exc.args[0]!r}")
    except ValueError as exc:
        raise _CliError("bad-file", f"{where}: {exc}")
    try:
        a_exp = doc.get("A")
        return BoxSpec(
            d=int(doc["d"]),
            coefficients=coeffs,  # type: ignore[arg-type]
            X=anchors["X"], Y=anchors["Y"], Z=anchors["Z"],
            A=None if a_exp is None else parse_rational(str(a_exp)),
        )
    except KeyError as exc:
        raise _CliError("bad-file", f"{where}: missing key {exc.args[0]!r}")
    except ValueError as exc:
        raise _CliError("bad-file", f"{where}: {exc}")


def _cmd_count_bd(args) -> int:
    spec = _box_from_doc(_load_json_file(args.spec), args.spec)
    result = count_bd(spec, strategy=args.strategy, budget=_default_budget(args))
    return _emit_count(result, args.format, delta=format_rational(spec.delta),
                       deviations=list(spec.deviations()))


def _cmd_count_ternary(args) -> int:
    query = TernaryQuery(
        exponents=args.exponents,
        coefficients=args.coefficients,
        limits=args.limits,
    )
    result = count_ternary(query, strategy=args.strategy,
                           budget=_default_budget(args))
    return _emit_count(result, args.format)


def _cmd_bounds_eval(args) -> int:
    cfg = _config_from_doc(_load_json_file(args.config), args.config)
    names = METHOD_NAMES + ((EXTENDED_METHOD,) if args.extended_fourier else ())
    if args.method == "all":
        reports = [EVALUATORS[name](cfg) for name in names]
        reports.append(best_bound(cfg, methods=names))
    elif args.method == "best":
        reports = [best_bound(cfg, methods=names)]
    else:
        reports = [EVALUATORS[args.method](cfg)]
    payload = {"schema": SCHEMA, "config": _jsonify(cfg), "reports": _jsonify(reports)}
    if args.format == "json":
        _print_json(payload)
    else:
        rows = [[r["method"], r["value"], json.dumps(r["witness"])]
                for r in payload["reports"]]
        _print_table(["method", "value", "witness"], rows)
    return 0


def _cmd_verify_region(args) -> int:
    report = maximize_nu(
        args.d, args.delta, args.epsilon, args.lam,
        budget=args.samples, seed=args.seed, threshold=args.threshold,
        methods=args.methods, streams=args.streams, grid=args.grid,
    )
    payload = {"schema": SCHEMA, **_jsonify(report)}
    if args.format == "json":
        _print_json(payload)
    else:
        rows = [[k, json.dumps(v) if isinstance(v, (dict, list)) else v]
                for k, v in payload.items() if k != "schema"]
        _print_table(["field", "value"], rows)
    return 0 if report.verdict else 1


def _cmd_verify_cases(args) -> int:
    report = verify_case_catalog(args.delta, args.epsilon)
    payload = {"schema": SCHEMA, **_jsonify(report)}
    if args.format == "json":
        _print_json(payload)
    else:
        rows = [
            [c.name, "pass" if c.passed else "FAIL",
             format_rational(c.slack), "tight" if c.boundary else ""]
            for c in report.checks
        ]
        _print_table(["check", "result", "slack", "note"], rows)
    return 0 if report.all_passed else 1


def _cmd_explore_theta(args) -> int:
    report = explore_theta(
        args.d, args.delta, args.epsilon, args.lam,
        budget=args.budget, seed=args.seed, methods=args.methods,
        rounds=args.rounds, streams=args.streams,
    )
    _print_json({"schema": SCHEMA, **_jsonify(report)})
    return 0


# --- parser wiring -------------------------------------------------------------


def _add_format(p, *, csv_ok: bool = False, table_ok: bool = True) -> None:
    choices = ["json"] + (["csv"] if csv_ok else []) + (["table"] if table_ok else [])
    p.add_argument("--format", choices=choices, default="json",
                   help="output format (default json)")


def _add_budget(p) -> None:
    p.add_argument("--budget", type=int, default=None,
                   help="candidate-evaluation budget; refuses with exit 2 when "
                        "the estimate exceeds it (default: ABCKIT_BUDGET or 10^9)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="abckit",
        description="Exact tools for abc-triple counting and rational "
                    "exponent-bound verification.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("rad", help="radical of one integer",
                       description="Product of the distinct primes dividing n.")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_rad)

    p = sub.add_parser("sieve", help="radical table up to a limit",
                       description="Smallest-prime-factor sieve; emits rad(n) "
                                   "for every n up to the limit.  Each table "
                                   "entry counts one against the budget.")
    p.add_argument("--limit", type=int, required=True)
    _add_format(p, csv_ok=True)
    _add_budget(p)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("factorize", help="prime factorization",
                       description="Exact factorization via trial division, "
                                   "deterministic primality testing, and "
                                   "Brent-Pollard rho.")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser(
        "reduce-triple",
        help="canonical power factorization of an abc triple",
        description="Rewrites a + b = c as a three-term equation in per-class "
                    "power products with small coefficients, the reduction "
                    "behind the dyadic-box counting.",
    )
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--x", type=int, required=True, help="window bound X >= c")
    p.add_argument("--epsilon", type=_rational, required=True)
    p.set_defaults(func=_cmd_reduce_triple)

    count = sub.add_parser("count", help="exhaustive counting oracles")
    csub = count.add_subparsers(dest="count_kind", metavar="KIND")

    p = csub.add_parser(
        "nlambda", help="exceptional abc triples up to X",
        description="Counts coprime a + b = c <= X with rad(abc) < c^lambda, "
                    "the exceptional-set count the 33/50 exponent bounds.",
    )
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_rational, required=True)
    p.add_argument("--unordered", action="store_true",
                   help="count unordered {a, b} pairs instead of ordered (a, b)")
    p.add_argument("--strategy", choices=["ca", "ab"], default="ca",
                   help="ca: brute-force scan of every (c, a), about X^2/2 "
                        "candidates; ab: enumeration by small radical, "
                        "about 10^6 candidates at X = 10^5, lambda = 1")
    _add_budget(p)
    _add_format(p, csv_ok=True)
    p.set_defaults(func=_cmd_count_nlambda)

    p = csub.add_parser(
        "s", help="triples with per-member radical constraints",
        description="Counts coprime a + b = c with rad(a) <= a^alpha etc.; "
                    "--star localizes c near X and puts each radical in a "
                    "dyadic window.",
    )
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--alpha", type=_rational, required=True)
    p.add_argument("--beta", type=_rational, required=True)
    p.add_argument("--gamma", type=_rational, required=True)
    p.add_argument("--star", action="store_true")
    p.add_argument("--strategy", choices=["ca", "ab"], default="ca")
    _add_budget(p)
    _add_format(p, csv_ok=True)
    p.set_defaults(func=_cmd_count_s)

    p = csub.add_parser(
        "debruijn", help="integers with a small radical",
        description="Counts n <= x with rad(n) <= x^lambda, the smooth-ish "
                    "integer count used to size the exceptional families.",
    )
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_rational, required=True)
    p.add_argument("--strategy", choices=["scan", "radical-first"],
                   default="scan")
    _add_budget(p)
    _add_format(p, csv_ok=True)
    p.set_defaults(func=_cmd_count_debruijn)

    p = csub.add_parser(
        "bd", help="dyadic-box solutions of the reduced equation",
        description="Counts solutions of c1*prod(x_j^j) + c2*prod(y_j^j) = "
                    "c3*prod(z_j^j) in dyadic boxes read from a BoxSpec JSON "
                    "file {d, coefficients, X, Y, Z[, A]}.",
    )
    p.add_argument("--spec", required=True, help="path to the BoxSpec JSON file")
    p.add_argument("--strategy", choices=["mitm", "nested"], default="mitm")
    _add_budget(p)
    _add_format(p, csv_ok=True)
    p.set_defaults(func=_cmd_count_bd)

    p = csub.add_parser(
        "ternary", help="ternary equations in boxes",
        description="Counts nonzero pairwise-coprime solutions of "
                    "a1*x^p + a2*y^q + a3*z^r = 0 with |x| <= X etc.",
    )
    p.add_argument("--exponents", type=_int_triple, required=True,
                   metavar="P,Q,R")
    p.add_argument("--coefficients", type=_int_triple, required=True,
                   metavar="A1,A2,A3")
    p.add_argument("--limits", type=_int_triple, required=True, metavar="X,Y,Z")
    p.add_argument("--strategy", choices=["solve-z", "nested"],
                   default="solve-z")
    _add_budget(p)
    _add_format(p, csv_ok=True)
    p.set_defaults(func=_cmd_count_ternary)

    bounds = sub.add_parser("bounds", help="exponent-bound evaluators")
    bsub = bounds.add_subparsers(dest="bounds_kind", metavar="KIND")
    p = bsub.add_parser(
        "eval", help="evaluate the five bounds on a configuration",
        description="Evaluates the trivial, Fourier, geometry, determinant, "
                    "and Thue bounds (plus their minimum) on an exponent "
                    "configuration read from a JSON file "
                    "{d, a, b, c, delta, epsilon}; every value carries a "
                    "replayable witness.",
    )
    p.add_argument("--config", required=True, help="path to the config JSON file")
    p.add_argument("--method", default="all",
                   choices=["all", "best", *METHOD_NAMES, EXTENDED_METHOD])
    p.add_argument("--extended-fourier", action="store_true",
                   help="also evaluate the divisor-averaged Fourier variant")
    _add_format(p)
    p.set_defaults(func=_cmd_bounds_eval)

    verify = sub.add_parser("verify", help="feasible-region and case checks")
    vsub = verify.add_subparsers(dest="verify_kind", metavar="KIND")

    p = vsub.add_parser(
        "region", help="falsification search over the feasible region",
        description="Samples the constraint region and hill-climbs, looking "
                    "for a configuration whose best bound exceeds the "
                    "threshold (default 33/50). Exit 0 when none is found.",
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--epsilon", type=_rational, required=True)
    p.add_argument("--lambda", dest="lam", type=_rational,
                   default=Fraction(1), help="recorded in the report")
    p.add_argument("--samples", type=int, default=100_000,
                   help="sampling budget (hill-climbing adds ~15%% on top)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=_rational, default=Fraction(33, 50))
    p.add_argument("--methods", type=_methods_list, default=None,
                   help="comma-separated bound subset (default: all five)")
    p.add_argument("--streams", type=int, default=8)
    p.add_argument("--grid", type=int, default=None,
                   help="lattice denominator override")
    _add_format(p)
    p.set_defaults(func=_cmd_verify_region)

    p = vsub.add_parser(
        "cases", help="replay the fixed case catalog",
        description="Replays the eleven exact-arithmetic checks behind the "
                    "0.66 threshold case split. Exit 0 iff all pass.",
    )
    p.add_argument("--delta", type=_rational, default=Fraction(1, 1000))
    p.add_argument("--epsilon", type=_rational, default=Fraction(0))
    _add_format(p)
    p.set_defaults(func=_cmd_verify_cases)

    explore = sub.add_parser("explore", help="empirical exponent exploration")
    esub = explore.add_subparsers(dest="explore_kind", metavar="KIND")
    p = esub.add_parser(
        "theta", help="bisect for the smallest unfalsified threshold",
        description="Binary-searches thresholds over [0.66 - eps^2, 1], "
                    "running the region search at each; reports the "
                    "empirical sup of the best bound, explicitly "
                    "non-certified.",
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--epsilon", type=_rational, required=True)
    p.add_argument("--lambda", dest="lam", type=_rational, default=Fraction(1))
    p.add_argument("--budget", type=int, default=80_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--methods", type=_methods_list, default=None)
    p.add_argument("--streams", type=int, default=8)
    p.set_defaults(func=_cmd_explore_theta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        func = getattr(args, "func", None)
        if func is None:
            raise _CliError("usage", "a subcommand is required (see --help)")
        return func(args)
    except _CliError as exc:
        _print_json({
            "schema": SCHEMA,
            "error": {"kind": exc.kind, "message": exc.message, **exc.extra},
        })
        return 2
    except BudgetExceeded as exc:
        _print_json({
            "schema": SCHEMA,
            "error": {
                "kind": "budget-exceeded",
                "operation": exc.operation,
                "estimate": exc.estimate,
                "budget": exc.budget,
                "message": str(exc),
            },
        })
        return 2
    except ValueError as exc:
        _print_json({
            "schema": SCHEMA,
            "error": {"kind": "invalid-argument", "message": str(exc)},
        })
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
