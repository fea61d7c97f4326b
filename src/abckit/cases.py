"""Exact replay of the fixed case catalog behind the 0.66 threshold.

The case analysis splits on the class sums s_1 = a_1+b_1+c_1 and
s_2 = a_2+b_2+c_2.  Three boundary lines

    L3: 4*s1 + 3*s2 = 0.71
    L4: 4*s1 +   s2 = 0.40
    L6: 2*s1 -   s2 = 0.025

cut out a closed triangle T in the (s1, s2) square; the half-planes on the
far side of each line, plus the strip 0.066 <= s2 <= 0.204 covering T,
exhaust all configurations.  Each catalog entry replays one numeric step of
that argument with exact rationals -- no floating point anywhere -- and
reports the worst slack.  Inequalities that pass with zero slack are
flagged `boundary` so the tight cases are auditable.

Checks take the slack parameters (delta, epsilon) as inputs; several steps
are only valid for delta <= 1/1000, and the catalog demonstrates exactly
that by failing when run at, say, delta = 1/10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

F = Fraction

# Boundary lines as (A, B, C) with A*s1 + B*s2 = C.
LINE_L3 = (F(4), F(3), F(71, 100))
LINE_L4 = (F(4), F(1), F(2, 5))
LINE_L6 = (F(2), F(-1), F(1, 40))

TRIANGLE_VERTICES = (
    (F(49, 800), F(31, 200)),
    (F(157, 2000), F(33, 250)),
    (F(17, 240), F(7, 60)),
)

STRIP_LOW = F(33, 500)  # 0.066
STRIP_HIGH = F(51, 250)  # 0.204


@dataclass(frozen=True)
class CaseCheck:
    name: str
    statement: str
    passed: bool
    slack: Fraction
    boundary: bool = False


@dataclass(frozen=True)
class CaseCheckReport:
    delta: Fraction
    epsilon: Fraction
    all_passed: bool = field(init=False)
    checks: tuple[CaseCheck, ...]

    def __post_init__(self):
        object.__setattr__(self, "all_passed", all(c.passed for c in self.checks))

    def check(self, name: str) -> CaseCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


class _Acc:
    """Collects equality and inequality steps for one catalog entry.

    slack = the minimum inequality slack (0 if the entry is pure identity);
    boundary = passed with some inequality exactly tight.
    """

    def __init__(self):
        self.ok = True
        self.slacks: list[Fraction] = []

    def eq(self, lhs: Fraction, rhs: Fraction) -> None:
        if lhs != rhs:
            self.ok = False

    def le(self, lhs: Fraction, rhs: Fraction) -> None:
        s = rhs - lhs
        self.slacks.append(s)
        if s < 0:
            self.ok = False

    def lt(self, lhs: Fraction, rhs: Fraction) -> None:
        s = rhs - lhs
        self.slacks.append(s)
        if s <= 0:
            self.ok = False

    def done(self, name: str, statement: str) -> CaseCheck:
        slack = min(self.slacks, default=F(0))
        boundary = self.ok and any(s == 0 for s in self.slacks)
        return CaseCheck(name, statement, self.ok, slack, boundary)


# --- exact plane geometry ----------------------------------------------------


def line_intersection(l1, l2):
    """Intersection point of A1*x+B1*y=C1 and A2*x+B2*y=C2."""
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        raise ValueError("lines are parallel")
    return ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)


def _cross_point(p, q, half):
    a, b, c = half
    denom = a * (q[0] - p[0]) + b * (q[1] - p[1])
    t = (c - a * p[0] - b * p[1]) / denom
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def clip_polygon(poly, half):
    """Sutherland-Hodgman clip of a convex polygon by A*x + B*y <= C."""
    a, b, c = half
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        p_in = a * p[0] + b * p[1] <= c
        q_in = a * q[0] + b * q[1] <= c
        if p_in:
            out.append(p)
        if p_in != q_in:
            out.append(_cross_point(p, q, half))
    out = [v for i, v in enumerate(out) if v != out[i - 1]]
    cleaned = []
    m = len(out)
    for i in range(m):  # drop collinear interior points
        prev, cur, nxt = out[i - 1], out[i], out[(i + 1) % m]
        cross = (cur[0] - prev[0]) * (nxt[1] - prev[1]) - (
            cur[1] - prev[1]
        ) * (nxt[0] - prev[0])
        if cross != 0:
            cleaned.append(cur)
    return cleaned


def halfplane_triangle():
    """[0,1]^2 clipped to the inward side of L3, L4, L6."""
    square = [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))]
    poly = clip_polygon(square, LINE_L3)  # 4s1 + 3s2 <= 0.71
    a4, b4, c4 = LINE_L4
    poly = clip_polygon(poly, (-a4, -b4, -c4))  # 4s1 + s2 >= 0.4
    return clip_polygon(poly, LINE_L6)  # 2s1 - s2 <= 0.025


# --- the eleven catalog entries ----------------------------------------------


def _triangle_vertices_check() -> CaseCheck:
    acc = _Acc()
    got = (
        line_intersection(LINE_L3, LINE_L4),
        line_intersection(LINE_L3, LINE_L6),
        line_intersection(LINE_L4, LINE_L6),
    )
    for point, want in zip(got, TRIANGLE_VERTICES):
        acc.eq(point[0], want[0])
        acc.eq(point[1], want[1])
    return acc.done(
        "triangle-vertices",
        "pairwise intersections of the three boundary lines equal "
        "(0.06125, 0.155), (0.0785, 0.132), (17/240, 7/60) exactly",
    )


def _halfplane_coverage_check() -> CaseCheck:
    acc = _Acc()
    poly = halfplane_triangle()
    acc.eq(F(len(poly)), F(3))
    acc.eq(F(len(set(poly) ^ set(TRIANGLE_VERTICES))), F(0))
    return acc.done(
        "halfplane-coverage",
        "clipping the unit square by the three half-planes leaves exactly "
        "the triangle with the catalog vertices, so the far sides cover "
        "everything outside it",
    )


def _strip_coverage_check() -> CaseCheck:
    acc = _Acc()
    for _, s2 in TRIANGLE_VERTICES:
        acc.le(STRIP_LOW, s2)
        acc.le(s2, STRIP_HIGH)
    return acc.done(
        "strip-coverage",
        "every triangle vertex has 0.066 <= s2 <= 0.204, so the strip case "
        "covers the whole triangle",
    )


def _case11_check(dl: Fraction, ep: Fraction) -> CaseCheck:
    acc = _Acc()
    # constants feeding the a_3 lower bound: 0.66 - 0.04 - 0.51/2 = 0.365
    acc.eq(F(33, 50) - F(1, 25) - F(51, 200), F(73, 200))
    acc.eq(F(73, 200) - F(1, 3), F(19, 600))
    # frame: 0.68 - 2*s2 + 2d <= 0.33 - s2/2 - d/2 at the worst s2 = 0.3
    acc.le(F(17, 25) - 2 * F(3, 10) + 2 * dl, F(33, 100) - F(3, 20) - dl / 2)
    # the two bounds on (3/2) deviation + 3 delta are incompatible
    acc.lt(F(3, 2) * (F(1, 75) + dl + ep) + 3 * dl, F(19, 600))
    return acc.done(
        "case1.1-contradiction",
        "with s2 >= 0.3 and a small third entry, the derived floor "
        "0.365 - (5/2)*dev - 3*delta on a_3 exceeds the ceiling 1/3 - dev, "
        "forcing 19/600 < (3/2)(1/75 + delta + eps) + 3*delta to fail",
    )


def _case12_check(dl: Fraction, ep: Fraction) -> CaseCheck:
    acc = _Acc()
    # tail bound stays under the large-third-entry branch: worst case at
    # s2 = 0.34 + delta and pair deviation at its 1/75 + delta + eps cap
    acc.lt(F(5, 2) * dl + ep, F(3, 50))
    # affine identity: 1.36 - 5*(0.33 - s2/2 - d/2) + 4d = -0.29 + (5/2)s2 + (13/2)d
    acc.eq(F(34, 25) - 5 * F(33, 100), F(-29, 100))
    acc.eq(F(5, 2), 5 * F(1, 2))
    acc.eq(5 * F(1, 2) + 4, F(13, 2))
    # s1 cancels: 6s1 + ... + 6*(0.34 - s1 - s2 + d) collapses to constants
    acc.eq(F(-29, 100) + 6 * F(17, 50), F(7, 4))
    acc.eq(F(5, 2) - 6, F(-7, 2))
    acc.le(F(13, 2) * dl + 6 * dl, 13 * dl)  # (25/2)d <= 13d
    acc.eq(F(2, 15) + F(7, 4) / 5, F(29, 60))  # the 0.483... constant
    # final constants: 29/60 - (7/10)(0.3) + (2/5)(1/150 + eps^2) + (13/5)d < 0.279
    acc.lt(
        F(29, 60) - F(7, 10) * F(3, 10) + F(2, 5) * (F(1, 150) + ep * ep)
        + F(13, 5) * dl,
        F(279, 1000),
    )
    # wrap-up: 2*nu - 1 - delta < 0.279 still lands under 0.66
    acc.le((1 + F(279, 1000) + dl) / 2, F(33, 50))
    return acc.done(
        "case1.2-chain",
        "the Fourier-side chain for s2 >= 0.3 collapses to "
        "0.48(3) - (7/10)(0.3) + (2/5)(1/150 + eps^2) + (13/5)delta < 0.279",
    )


def _s1_nu1_check(dl: Fraction, ep: Fraction) -> CaseCheck:
    acc = _Acc()
    # determinant branch for a large index >= 4 entry: constants first
    acc.eq(F(2, 3) * F(3, 4) * F(9, 100), F(1, 2) * F(9, 100))
    acc.eq(2 * F(3, 4) * F(9, 100), F(27, 200))  # t_i cap 0.135
    acc.le(1 + dl - F(8, 25) - F(1, 2) * F(9, 100), F(636, 1000))
    acc.le(F(636, 1000), F(33, 50))
    # geometry branch, first maximum: 0.34 + d + (1/5)(4/3 + 1/150 + eps^2 + 0.135)
    acc.lt(
        F(17, 50) + dl
        + (F(4, 3) + F(1, 150) + ep * ep + F(27, 200)) / 5,
        F(637, 1000),
    )
    acc.lt(F(637, 1000), F(33, 50))
    return acc.done(
        "subcaseS1-nu1",
        "with the third entry of the largest vector >= 0.32, the "
        "determinant branch caps at 0.636 and the first geometry maximum at "
        "0.34 + delta + (1/5)(4/3 + 1/150 + eps^2 + 0.135) < 0.637",
    )


def _s1_nu2_check(dl: Fraction, ep: Fraction) -> CaseCheck:
    acc = _Acc()
    # 2/3 + 0.3 - 2(0.3 - d) + (9/4)(0.09) < 0.57 + 2d: constants are
    acc.eq(F(2, 3) - F(3, 10) + F(9, 4) * F(9, 100), F(683, 1200))
    acc.lt(F(683, 1200), F(57, 100))
    # pair deviation floor used next: two per-vector floors add up
    acc.eq(2 * (F(1, 150) + dl), F(1, 75) + 2 * dl)
    acc.lt(F(57, 100) + F(1, 75) + 4 * dl, F(3, 5))
    # combining both geometry maxima stays under 0.64, itself under 0.66
    acc.le(F(637, 1000) + ep, F(16, 25))
    acc.lt(F(16, 25), F(33, 50))
    return acc.done(
        "subcaseS1-nu2",
        "the second geometry maximum obeys "
        "2/3 + 0.3 - 2(0.3 - delta) + (9/4)(0.09) < 0.57 + 2*delta and "
        "0.57 + 1/75 + 4*delta < 0.6, so both maxima stay below 0.64",
    )


def _s2_a3_check(dl: Fraction, ep: Fraction) -> CaseCheck:
    acc = _Acc()
    # 0.66 - (5/2)(0.01) - (1/2)(0.51) = 0.38 exactly
    acc.eq(F(33, 50) - F(5, 2) * F(1, 100) - F(1, 2) * F(51, 100), F(19, 50))
    # absorbing the eps and delta terms into "- 3 delta" needs 2*eps <= delta
    acc.le(F(5, 2) * ep + F(7, 4) * dl, 3 * dl)
    # 0.38 - s1 - 3d >= 0.34 - s1 + d, i.e. the gap survives 4 delta
    acc.le(F(17, 50) + dl, F(19, 50) - 3 * dl)
    # and the induced floor 0.33 - d/2 still clears 0.32
    acc.le(F(8, 25), F(33, 100) - dl / 2)
    return acc.done(
        "subcaseS2-a3",
        "when the two smaller third entries sum below 0.33 - s2/2 - delta/2, "
        "the largest third entry exceeds 0.38 - s1 - 3*delta and lands in "
        "the regime of the previous subcase",
    )


def _interval_overlap_check(dl: Fraction) -> CaseCheck:
    acc = _Acc()
    # gap-free union of (0.34-s1-s2+d, 0.33-s2/2-d/2) and (0.34-s1+d, 0.33-d/2)
    # under 2*s1 - s2 > 0.025 reduces to (3/2) delta <= 1/400
    acc.le(F(3, 2) * dl, F(1, 400))
    return acc.done(
        "geotau3-overlap",
        "past the 2*s1 - s2 > 0.025 line, the two third-entry danger "
        "intervals overlap into one, since s1 > 0.0125 + s2/2 beats the "
        "required 0.01 + s2/2 + (3/2)*delta whenever (3/2)*delta <= 1/400",
    )


def _s6_final_check(dl: Fraction, ep: Fraction) -> CaseCheck:
    acc = _Acc()
    acc.eq(F(71, 100) / 4, F(71, 400))  # s1 cap 0.1775
    acc.eq(F(3, 2) * F(31, 300), F(31, 200))  # s2 cap 0.155 from the wedge
    # small-pair contradiction: s1 would exceed 0.28 - 4 eps - 2 delta > 0.1775
    acc.le(F(71, 400), F(7, 25) - 4 * ep - 2 * dl)
    # floor for the second-largest third entry: 0.165 - d/4 > 0.164
    acc.lt(F(164, 1000), F(33, 200) - dl / 4)
    # the 5/9 chain constant: 5/9 + (1/3)(1/75) + 1/150 - (5/3)(0.164)
    acc.eq(
        F(5, 9) + F(1, 3) * F(1, 75) + F(1, 150) - F(5, 3) * F(41, 250),
        F(22, 75),
    )
    acc.le(F(22, 75) + F(4, 3) * dl + ep / 3, F(59, 200))
    # wrap: (1 + 0.295 + d)/2 <= 1.296/2 forces delta <= 1/1000
    acc.le((1 + F(59, 200) + dl) / 2, F(1296, 2000))
    # 1.296/2 + 0.036/3 hits 0.66 exactly, so max(a2,b2) < 0.036 is forced
    acc.eq(F(1296, 2000) + F(9, 250) / 3, F(33, 50))
    # two second entries >= 0.036 give s2 >= 0.072, against s2 < 0.066
    acc.eq(2 * F(9, 250), F(9, 125))
    acc.lt(F(33, 500), F(9, 125))
    return acc.done(
        "subcaseS6-final",
        "in the remaining wedge the Fourier chain gives "
        "nu <= 1.296/2 + max(second entries)/3 with 1.296/2 + 0.036/3 = 0.66 "
        "exactly, and two second entries >= 0.036 would force "
        "s2 >= 0.072 > 0.066",
    )


def _slack_range_check(dl: Fraction, ep: Fraction) -> CaseCheck:
    acc = _Acc()
    # pairwise deviation cap: 2/3 - 0.66 = 1/150 exactly
    acc.eq(F(2, 3) - F(33, 50), F(1, 150))
    # per-vector deviation range from the total windows
    acc.eq(F(1, 3) - F(17, 50), F(-1, 150))
    acc.eq(F(1, 3) - F(8, 25), F(1, 75))
    acc.le(F(-1, 150) - dl, F(-1, 150) - dl + ep / 2)  # lower containment
    acc.le(F(1, 75) + dl, F(1, 75) + dl + ep)  # upper containment
    # grand-total deviation: 1 - (3/2)(0.66) = 0.01 exactly
    acc.eq(1 - F(3, 2) * F(33, 50), F(1, 100))
    acc.le(F(3, 2) * ep * ep, ep)  # derived cap sits under 0.01 + eps
    # lower end: derived eps - delta against the claimed > -delta; at eps = 0
    # the strict form degenerates, recorded here as a zero-slack boundary
    acc.le(-dl, ep - dl)
    return acc.done(
        "robin-derivations",
        "the three deviation ranges follow from the total windows at their "
        "extremes: constants 1/150, 1/75, 1/100 are exact, and the epsilon "
        "paddings absorb the derived terms (tight at eps = 0, where the "
        "strict lower form needs eps > 0)",
    )


def verify_case_catalog(
    delta: Fraction = F(1, 1000), epsilon: Fraction = F(0)
) -> CaseCheckReport:
    """Run all eleven catalog entries at the given slack parameters.

    Failures are report entries, never exceptions.  Defaults replay the
    published constants (delta = 1/1000 with epsilon treated as 0).
    """
    dl, ep = F(delta), F(epsilon)
    if dl < 0 or ep < 0:
        raise ValueError("delta and epsilon must be non-negative")
    checks = (
        _triangle_vertices_check(),
        _halfplane_coverage_check(),
        _strip_coverage_check(),
        _case11_check(dl, ep),
        _case12_check(dl, ep),
        _s1_nu1_check(dl, ep),
        _s1_nu2_check(dl, ep),
        _s2_a3_check(dl, ep),
        _interval_overlap_check(dl),
        _s6_final_check(dl, ep),
        _slack_range_check(dl, ep),
    )
    return CaseCheckReport(delta=dl, epsilon=ep, checks=checks)
