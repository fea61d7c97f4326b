"""Command-line entry point.

One subcommand per operation family: `rad`, `sieve`, `factorize`,
`reduce-triple`, `count {nlambda|s|debruijn|bd|ternary}`, `bounds eval`,
`verify {region|cases}`.

Conventions, uniform across subcommands, each implemented once:
  * exactly one JSON document on stdout (CSV/table on request, all three
    written by _emit; `sieve` streams its rows instead); anything
    diagnostic goes to stderr, such as the wall time of a count, which
    _emit_count measures around the oracle call (results carry no time)
  * rationals cross the boundary as "p/q" strings in both directions --
    decimals are rejected so exactness survives the round trip
  * identical argv produces byte-identical output (no timestamps, fixed
    key order, deterministic seeds); a report is an object of its dataclass
    fields in order
  * exit 0 on success or verdict-pass, 1 on verdict-fail, 2 on usage
    errors, bad input files (read only up to MAX_FILE_BYTES), invalid
    arguments and budget refusals, which main prints as one error object
    {"kind", ..., "message"}
  * the budget is --budget, else ABCKIT_BUDGET, else 10**9 (_budget); it
    caps the count commands, `sieve` (table entries) and `verify region`
    (draws plus hill-climb moves), each checked by counting.check_budget
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .bounds import (
    EVALUATORS,
    EXTENDED_METHOD,
    METHOD_NAMES,
    ExponentConfiguration,
    best_bound,
    best_of,
)
from .cases import verify_case_catalog
from .counting import (
    DEFAULT_BUDGET,
    BoxSpec,
    BudgetExceeded,
    TernaryQuery,
    check_budget,
    count_bd,
    count_exceptional_triples,
    count_radical_bounded,
    count_s,
    count_ternary,
)
from .exact import format_rational, parse_rational
from .powerfact import reduce_triple, verify_power_factorization
from .radicals import factorize, is_squarefree, radical, radical_segments
from .region import hill_climbs, maximize_nu

SCHEMA = "abckit/1"

MAX_FILE_BYTES = 1 << 24  # the largest --config or --spec file read, 16 MiB


class _CliError(Exception):
    """A refusal of the given kind; main prints it as an error object."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


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


def _print_table(header, rows, widths=None) -> None:
    """Print rows under header, each column as wide as its widest cell,
    with two spaces between columns and no trailing blanks.  Given the
    widths (each at least its header's), rows may be any iterable and
    are written as they come."""
    if widths is None:
        rows = [[str(x) for x in row] for row in rows]
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(header)
        ]
    # one format for every line: each cell as str, padded to its width but
    # the last, so only a line whose last cell is empty has blanks to strip
    line = "  ".join([*(f"{{!s:<{w}}}" for w in widths[:-1]), "{!s}\n"]).format
    write = sys.stdout.write
    write(line(*header))
    write("  ".join("-" * w for w in widths) + "\n")
    for row in rows:
        write(line(*row) if row[-1] != "" else line(*row).rstrip() + "\n")


def _emit(fmt: str, payload, header, rows) -> None:
    """Print payload as JSON, or header and rows (any iterable, read only
    for those formats) as CSV or a table."""
    if fmt == "json":
        _print_json(payload)
    elif fmt == "csv":
        _print_csv(header, rows)
    else:
        _print_table(header, rows)


def _jsonify(value):
    """Reports to JSON: a dataclass becomes an object of its fields in order;
    Fractions become 'p/q' strings; containers recurse."""
    if is_dataclass(value):
        return {f.name: _jsonify(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _load_json_file(path: str):
    """The JSON value in the UTF-8 file at path, read only up to
    MAX_FILE_BYTES + 1 bytes, so an endless or huge file is refused before
    it is parsed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
    except OSError as exc:
        raise _CliError("bad-file", f"cannot read {path}: {exc.strerror}")
    if len(data) > MAX_FILE_BYTES:
        raise _CliError("bad-file", f"{path} is larger than {MAX_FILE_BYTES} bytes")
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _CliError("bad-file", f"{path} is not valid JSON: {exc}")


def _read_doc(path: str, read):
    """read(doc, path) on the JSON object in the file at path; a missing key
    or a value read refuses with ValueError is a bad-file error naming it."""
    doc = _load_json_file(path)
    if not isinstance(doc, dict):
        raise _CliError("bad-file", f"{path}: expected a JSON object")
    try:
        return read(doc, path)
    except KeyError as exc:
        raise _CliError("bad-file", f"{path}: missing key {exc.args[0]!r}")
    except ValueError as exc:
        raise _CliError("bad-file", f"{path}: {exc}")


def _budget(args) -> int:
    """--budget, else ABCKIT_BUDGET, else DEFAULT_BUDGET."""
    if args.budget is not None:
        return args.budget
    env = os.environ.get("ABCKIT_BUDGET", DEFAULT_BUDGET)
    try:
        return int(env)
    except ValueError:
        raise _CliError("usage", f"ABCKIT_BUDGET must be an integer, got {env!r}")


def _json_value(value, kind: type, what: str, where: str):
    """value, refused unless it is a JSON value of type kind (int or list)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise _CliError("bad-file", f"{where}: {what} must be a JSON {kind.__name__}, "
                        f"got {json.dumps(value)}")
    return value


def _doc_field(doc, key: str, kind: type, where: str):
    """doc[key], refused unless it is a JSON value of type kind."""
    return _json_value(doc[key], kind, repr(key), where)


def _config_fields(doc, where: str) -> dict:
    """The ExponentConfiguration fields of a config document."""
    out = {"d": _doc_field(doc, "d", int, where)}
    for name in ("a", "b", "c"):
        vals = _doc_field(doc, name, list, where)
        out[name] = tuple(parse_rational(str(x)) for x in vals)
    for name in ("delta", "epsilon"):
        out[name] = parse_rational(str(doc.get(name, "0")))
    return out


def _emit_count(args, oracle, *params, extra=dict, **options) -> int:
    """Run oracle(*params, **options) at the strategy and budget of args and
    print its CountResult, plus the fields extra() returns, on stdout; the
    wall time of the call goes to stderr only, so stdout stays
    byte-identical across runs.  extra() runs first, so a query it refuses
    is refused before the count."""
    fields = extra()
    t0 = time.perf_counter()
    result = oracle(*params, **options, strategy=args.strategy, budget=_budget(args))
    sys.stderr.write(
        f"{result.query} [{result.strategy}]: "
        f"elapsed {time.perf_counter() - t0:.6f} s\n"
    )
    payload = {
        "schema": SCHEMA,
        "query": result.query,
        "count": result.count,
        "strategy": result.strategy,
        **fields,
    }
    _emit(args.format, payload, ["query", "count", "strategy"],
          [[result.query, result.count, result.strategy]])
    return 0


# --- subcommand handlers ------------------------------------------------------


def _cmd_rad(args) -> int:
    _print_json({"schema": SCHEMA, "n": args.n, "radical": radical(args.n)})
    return 0


def _cmd_sieve(args) -> int:
    # rows are written block by block as the sieve yields them, so only one
    # block is held; refuse before sieving any of it
    check_budget("build_radical_table", args.limit, _budget(args))
    rows = ((n, r) for lo, block in radical_segments(args.limit)
            for n, r in enumerate(block, lo))
    if args.format == "json":
        # the bytes of _print_json, written one row at a time
        write = sys.stdout.write
        write(f'{{\n  "schema": {json.dumps(SCHEMA)},\n  "limit": {args.limit},\n'
              f'  "radicals": [')
        sep = "\n"
        for n, r in rows:
            write(f"{sep}    [\n      {n},\n      {r}\n    ]")
            sep = ",\n"
        write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")
    elif args.format == "csv":
        _print_csv(["n", "radical"], rows)
    else:
        # the widest radical is the largest squarefree n <= limit, its own
        # radical; the column widths are needed before the first row
        top = args.limit
        while top > 1 and not is_squarefree(top):
            top -= 1
        widths = [max(len(h), len(str(x)))
                  for h, x in (("n", args.limit), ("radical", top))]
        _print_table(["n", "radical"], rows, widths)
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
    return _emit_count(args, count_exceptional_triples, args.x, args.lam,
                       ordered=not args.unordered)


def _cmd_count_s(args) -> int:
    return _emit_count(args, count_s, args.x, args.alpha, args.beta, args.gamma,
                       star=args.star)


def _cmd_count_debruijn(args) -> int:
    return _emit_count(args, count_radical_bounded, args.x, args.lam)


def _box_from_doc(doc, where: str) -> BoxSpec:
    anchors = [
        tuple(parse_rational(str(x)) for x in _doc_field(doc, key, list, where))
        for key in ("X", "Y", "Z")
    ]
    # "c" is the documented key; "coefficients" accepted as an alias
    key = "coefficients" if "c" not in doc and "coefficients" in doc else "c"
    a_exp = doc.get("A")
    return BoxSpec(
        d=_doc_field(doc, "d", int, where),
        coefficients=tuple(
            _json_value(c, int, f"{key!r} entry", where)
            for c in _doc_field(doc, key, list, where)
        ),
        X=anchors[0], Y=anchors[1], Z=anchors[2],
        A=None if a_exp is None else parse_rational(str(a_exp)),
    )


def _cmd_count_bd(args) -> int:
    spec = _read_doc(args.spec, _box_from_doc)
    return _emit_count(args, count_bd, spec, extra=lambda: {
        "delta": format_rational(spec.delta),
        "deviations": list(spec.deviations()),
    })


def _cmd_count_ternary(args) -> int:
    query = TernaryQuery(
        exponents=args.exponents,
        coefficients=args.coefficients,
        limits=args.limits,
    )
    return _emit_count(args, count_ternary, query)


def _cmd_bounds_eval(args) -> int:
    cfg = ExponentConfiguration(**_read_doc(args.config, _config_fields))
    names = METHOD_NAMES + ((EXTENDED_METHOD,) if args.extended_fourier else ())
    if args.method == "all":
        reports = [EVALUATORS[name](cfg) for name in names]
        reports.append(best_of(reports))
    elif args.method == "best":
        reports = [best_bound(cfg, methods=names)]
    else:
        reports = [EVALUATORS[args.method](cfg)]
    payload = {"schema": SCHEMA, "config": _jsonify(cfg), "reports": _jsonify(reports)}
    rows = ([r["method"], r["value"], json.dumps(r["witness"])]
            for r in payload["reports"])
    _emit(args.format, payload, ["method", "value", "witness"], rows)
    return 0


def _cmd_verify_region(args) -> int:
    # every draw and hill-climb move is one evaluation; refuse before the
    # search allocates anything
    check_budget("maximize_nu", args.samples + hill_climbs(args.samples),
                 _budget(args))
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    if args.streams < 1:
        raise ValueError("--streams must be >= 1")
    report = maximize_nu(
        args.d, args.delta, args.epsilon, budget=args.samples, seed=args.seed,
        methods=args.methods, streams=args.streams,
    )
    payload = {"schema": SCHEMA, **_jsonify(report)}
    rows = ([k, json.dumps(v) if isinstance(v, (dict, list)) else v]
            for k, v in payload.items() if k != "schema")
    _emit(args.format, payload, ["field", "value"], rows)
    return 0 if report.verdict else 1


def _cmd_verify_cases(args) -> int:
    report = verify_case_catalog(args.delta, args.epsilon)
    payload = {"schema": SCHEMA, **_jsonify(report)}
    rows = ([c.name, "pass" if c.passed else "FAIL",
             format_rational(c.slack), "tight" if c.boundary else ""]
            for c in report.checks)
    _emit(args.format, payload, ["check", "result", "slack", "note"], rows)
    return 0 if report.all_passed else 1


# --- parser wiring -------------------------------------------------------------


def _add_format(p, *, csv_ok: bool = False) -> None:
    choices = ["json", *(["csv"] if csv_ok else []), "table"]
    p.add_argument("--format", choices=choices, default="json",
                   help="output format (default json)")


def _add_budget(p) -> None:
    p.add_argument("--budget", type=int, default=None,
                   help="candidate-evaluation budget; refuses with exit 2 when "
                        "the estimate exceeds it (default: ABCKIT_BUDGET or 10^9)")


def _add_count(p, func, strategies, strategy_help=None) -> None:
    """The options every count command takes, after its own arguments:
    --strategy (the first choice is the default), --budget and --format
    (csv allowed), and func as its handler."""
    p.add_argument("--strategy", choices=strategies, default=strategies[0],
                   help=strategy_help)
    _add_budget(p)
    _add_format(p, csv_ok=True)
    p.set_defaults(func=func)


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
                       description="Segmented prime-power division sieve, "
                                   "one block of 2^15 machine words at a "
                                   "time; emits rad(n) for every n up to the "
                                   "limit as its block is sieved.  Each "
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
    _add_count(p, _cmd_count_nlambda, ["ca", "ab"],
               "ca: brute-force scan of every unordered pair "
               "{a, c - a}, about X^2/4 candidates, behind an exact "
               "bit-length prefilter; ab: enumeration by small radical, "
               "about 10^6 candidates at X = 10^5, lambda = 1")

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
    _add_count(p, _cmd_count_s, ["ca", "ab"])

    p = csub.add_parser(
        "debruijn", help="integers with a small radical",
        description="Counts n <= x with rad(n) <= x^lambda, the smooth-ish "
                    "integer count used to size the exceptional families.",
    )
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_rational, required=True)
    _add_count(p, _cmd_count_debruijn, ["scan", "radical-first"])

    p = csub.add_parser(
        "bd", help="dyadic-box solutions of the reduced equation",
        description="Counts solutions of c1*prod(x_j^j) + c2*prod(y_j^j) = "
                    "c3*prod(z_j^j) in dyadic boxes read from a BoxSpec JSON "
                    "file {d, c, X, Y, Z[, A]}, where c holds (c1, c2, c3) "
                    "and may be given as coefficients instead.",
    )
    p.add_argument("--spec", required=True, help="path to the BoxSpec JSON file")
    _add_count(p, _cmd_count_bd, ["mitm", "nested"])

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
    _add_count(p, _cmd_count_ternary, ["solve-z", "nested"])

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
                    "paper's 33/50. Exit 0 when none is found.",
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=_rational, required=True)
    p.add_argument("--epsilon", type=_rational, required=True)
    p.add_argument("--samples", type=int, default=100_000,
                   help="sampling budget (hill-climbing adds ~15%% on top)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", type=_methods_list, default=None,
                   help="comma-separated bound subset (default: all five)")
    p.add_argument("--streams", type=int, default=8)
    _add_budget(p)
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

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser main uses, built on its first call: a build costs about
    3 ms and leaves some 950 objects in reference cycles, and parsing
    leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        func = getattr(args, "func", None)
        if func is None:
            raise _CliError("usage", "a subcommand is required (see --help)")
        return func(args)
    except (_CliError, BudgetExceeded, ValueError) as exc:
        if isinstance(exc, BudgetExceeded):
            error = {"kind": "budget-exceeded", "operation": exc.operation,
                     "estimate": exc.estimate, "budget": exc.budget}
        else:  # a ValueError from the library is an invalid argument
            error = {"kind": exc.kind if isinstance(exc, _CliError)
                     else "invalid-argument"}
        _print_json({"schema": SCHEMA, "error": {**error, "message": str(exc)}})
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
