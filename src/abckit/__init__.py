"""Exact tools for abc-triple counting and rational exponent-bound verification.

Everything arithmetic here is exact -- integers and fractions.Fraction all
the way down; no float ever decides a comparison.  The package splits into:

  radicals / exact   -- rad(n), factorization, integer/rational power compares
  powerfact          -- canonical power factorizations and triple reduction
  counting           -- brute-force counting oracles with explicit budgets
  bounds             -- five exponent-bound evaluators with replayable witnesses
  region             -- feasible-region sampling and falsification search
  cases              -- the fixed exact-arithmetic case catalog
  cli                -- `abckit` command-line front end (JSON out)
"""

from .bounds import (
    BoundReport,
    ExponentConfiguration,
    SubsetSearchRefusal,
    best_bound,
    determinant_bound,
    evaluate_at,
    extended_fourier_bound,
    fourier_bound,
    geometry_bound,
    thue_bound,
    trivial_bound,
)
from .cases import CaseCheck, CaseCheckReport, verify_case_catalog
from .counting import (
    BoxSpec,
    BudgetExceeded,
    CountResult,
    TernaryQuery,
    box_for,
    count_bd,
    count_exceptional_triples,
    count_radical_bounded,
    count_s,
    count_ternary,
)
from .exact import (
    cmp_pow,
    dyadic_range,
    exact_root,
    format_rational,
    iroot,
    parse_rational,
    rational_pow_leq,
)
from .powerfact import (
    PowerFactorization,
    TripleReduction,
    power_factorize,
    reduce_triple,
    verify_power_factorization,
)
from .radicals import (
    build_radical_table,
    factorize,
    is_squarefree,
    radical,
    radical_segments,
)
from .region import (
    ConstraintReport,
    RegionSearchReport,
    check_constraints,
    maximize_nu,
    sample_feasible,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoxSpec",
    "BudgetExceeded",
    "CaseCheck",
    "CaseCheckReport",
    "ConstraintReport",
    "CountResult",
    "ExponentConfiguration",
    "PowerFactorization",
    "RegionSearchReport",
    "SubsetSearchRefusal",
    "TernaryQuery",
    "TripleReduction",
    "best_bound",
    "box_for",
    "build_radical_table",
    "check_constraints",
    "cmp_pow",
    "count_bd",
    "count_exceptional_triples",
    "count_radical_bounded",
    "count_s",
    "count_ternary",
    "determinant_bound",
    "dyadic_range",
    "evaluate_at",
    "exact_root",
    "extended_fourier_bound",
    "factorize",
    "format_rational",
    "fourier_bound",
    "geometry_bound",
    "iroot",
    "is_squarefree",
    "maximize_nu",
    "parse_rational",
    "power_factorize",
    "radical",
    "radical_segments",
    "rational_pow_leq",
    "reduce_triple",
    "sample_feasible",
    "thue_bound",
    "trivial_bound",
    "verify_case_catalog",
    "verify_power_factorization",
]
