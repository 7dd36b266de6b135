"""Consequences of the length certificates: word minimization, the
Teichmueller-to-curve-graph ratio, and power thresholds for right-angled
Artin subgroups generated by twist powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bounds import bounds_two_multicurve
from .config import CurveSystem, dist_multicurve, proj_multicurve
from .errors import BadParameter, ConditionUnmet, NotHyperbolic, ZeroTotal
from .exact import Interval, log_enclosure, p_eval
from .thurston import IntersectionMatrix, lambda_log_enclosure, represent
from .words import TwistWord, block_decompose, normalize, word


@dataclass(frozen=True)
class MinimalWordResult:
    """Outcome of collecting a two-multicurve word into per-curve totals."""

    collected: TwistWord
    verdict: str  # "strictly_greater" or "equal_conjugate"
    interchanges: int  # the k of the 2k-block decomposition
    totals: tuple[tuple[str, int], ...]


STRICTLY_GREATER = "strictly_greater"
EQUAL_CONJUGATE = "equal_conjugate"


def minimal_word(word_in: TwistWord, sys: CurveSystem, A: str, B: str) -> MinimalWordResult:
    """Collect a verified two-multicurve word into T_a^{r}... T_b^{s}... form.

    The collected word twists once per curve (A-curves first, then
    B-curves, in configuration order) with the summed exponents.  With k >=
    2 block interchanges the original word is strictly longer on the curve
    graph; with k = 1 it is a conjugate of the collected word and has the
    same length.
    """
    base = bounds_two_multicurve(word_in, sys, A, B)
    if not base.verified:
        first = base.failed_conditions()[0]
        raise ConditionUnmet(
            f"two-multicurve hypotheses fail: {first.description} (witness {first.witness})"
        )
    a_curves, b_curves = sys.multicurve(A), sys.multicurve(B)
    partition = {c: A for c in a_curves} | {c: B for c in b_curves}
    nw = normalize(word_in)
    k = len(block_decompose(nw, partition)) // 2
    totals: dict[str, int] = {}
    for s in nw:
        totals[s.curve] = totals.get(s.curve, 0) + s.exponent
    ordered = list(a_curves) + list(b_curves)
    zero = [c for c in ordered if totals.get(c, 0) == 0]
    if zero:
        raise ZeroTotal(f"zero total exponent on {zero}: every curve must survive collection")
    collected = word((c, totals[c]) for c in ordered)
    return MinimalWordResult(
        collected,
        STRICTLY_GREATER if k >= 2 else EQUAL_CONJUGATE,
        k,
        tuple((c, totals[c]) for c in ordered),
    )


def trace_bound(n: int, t: Fraction) -> Fraction:
    """The bound (2t)^(2n) on traces of alternating unit-power words."""
    t = Fraction(t)
    if t <= 1:
        raise BadParameter(f"the bound needs t > 1, got {t}")
    if n < 1:
        raise BadParameter(f"the bound needs n >= 1, got {n}")
    return (2 * t) ** (2 * n)


def unit_alternating_trace(signs: Sequence[int], t: Fraction) -> Fraction:
    """Trace of a^{s1} b^{s2} a^{s3} ... for a = [[1,t],[0,1]], b = [[1,0],[t,1]].

    ``signs`` is the flat sequence of unit exponents, alternately applied to
    a and b; this is the matrix family the trace bound is stated for.
    """
    if len(signs) % 2 != 0 or not signs:
        raise BadParameter("need an even number of unit exponents")
    for sign in signs:
        if sign not in (1, -1):
            raise BadParameter(f"unit exponents must be +-1, got {sign}")
    # represent() maps T_B^k to [[1, 0], [-k s, 1]], so b^sign is B^-sign
    w = word(("A", sign) if i % 2 == 0 else ("B", -sign) for i, sign in enumerate(signs))
    m_a, _, _, m_d = represent(w).eval_at(Fraction(t))
    return m_a + m_d


@dataclass(frozen=True)
class RatioReport:
    """Curve-graph length, Teichmueller length, and their ratio for an
    optimizer-shaped word (all exponents +-(2M+1) on two filling curves)."""

    lc: int
    lt: Interval
    tau: Interval
    optimizer_upper: Interval
    omega: int | None
    t: int
    trace: int
    lam: Interval

    @property
    def tau_within_bound(self) -> bool:
        return self.tau[1] <= self.optimizer_upper[1]


RATIO_PRECISION = Fraction(1, 10**12)


def ratio_report(word_in: TwistWord, sys: CurveSystem, N: IntersectionMatrix) -> RatioReport:
    """Certified ratio data for a word of +-(2M+1) twists on two curves.

    The curve-graph length is the exact 2n(l-2); the Teichmueller length is
    log of the stretch factor, computed through the two-generator
    representation evaluated exactly at s = i(a, b), with lambda enclosed to
    ``RATIO_PRECISION``.  The report compares tau against log(2t)/(l-2) where
    t = i(a, b) * (2M+1).
    """
    w = normalize(word_in)
    curves = w.curves()
    if len(curves) != 2 or len(w) % 2 != 0 or not w.syllables:
        raise ConditionUnmet("need an alternating word on exactly two curves")
    unit = 2 * sys.M + 1
    off = next((s for s in w if abs(s.exponent) != unit), None)
    if off is not None:
        raise ConditionUnmet(f"every exponent must be +-(2M+1) = +-{unit}; found {off}")
    a, b = curves
    l = sys.dist(a, b)
    if l < 3:
        raise ConditionUnmet(f"the two curves must fill: dist({a}, {b}) = {l} < 3")
    if len(N.rows) != 1 or len(N.rows[0]) != 1:
        raise ConditionUnmet("two single curves expected: intersection matrix must be 1x1")
    i_ab = N.rows[0][0]
    n = len(w) // 2
    lc = 2 * n * (l - 2)
    t = i_ab * unit

    relabeled = word((("A" if s.curve == a else "B"), s.exponent) for s in w)
    trace = p_eval(represent(relabeled).trace_in_mu(), i_ab**2)
    if abs(trace) <= 2:
        raise NotHyperbolic(f"|trace| = {abs(trace)} <= 2 at s = {i_ab}")
    enc = lambda_log_enclosure((Fraction(abs(trace)), Fraction(abs(trace))), RATIO_PRECISION)
    lt = enc.log
    tau = (lt[0] / lc, lt[1] / lc)
    opt_log = log_enclosure(Fraction(2 * t), RATIO_PRECISION / 2)
    optimizer = (opt_log[0] / (l - 2), opt_log[1] / (l - 2))
    return RatioReport(
        lc=lc,
        lt=lt,
        tau=tau,
        optimizer_upper=optimizer,
        omega=sys.surface.omega if sys.surface is not None else None,
        t=t,
        trace=trace,
        lam=enc.lam,
    )


@dataclass(frozen=True)
class RaagCertificate:
    """Smallest twist power with a certified right-angled Artin image."""

    required_power: int
    group_shape: str
    conditions_used: tuple[str, ...]


FREE_CURVES = "free_curves"
TWO_MULTICURVES = "two_multicurves"
MULTICURVES = "multicurves"


def raag_threshold(sys: CurveSystem, mode: str, data) -> RaagCertificate:
    """Power threshold for twist powers to generate the expected group.

    * ``free_curves``: data is a list of curves, pairwise distance >= 3;
      powers beyond 2M + 2 + max projection generate a free group.
    * ``two_multicurves``: data is (A, B) with dist(A, B) >= 3; powers
      beyond 2M + 3 generate Z^|A| * Z^|B|.
    * ``multicurves``: data lists multicurve names, pairwise distance >= 3;
      powers beyond 2M + 3 + max projection generate the free product of
      the free abelian groups.

    The returned power is the smallest integer satisfying the strict
    inequality.
    """
    M = sys.M
    conds: list[str] = []
    if mode == FREE_CURVES:
        curves = list(data)
        if len(curves) < 2:
            raise BadParameter("need at least two curves")
        for i, x in enumerate(curves):
            for y in curves[i + 1 :]:
                d = sys.dist(x, y)
                if d < 3:
                    raise ConditionUnmet(f"dist({x}, {y}) = {d} < 3")
                conds.append(f"dist({x}, {y}) = {d} >= 3")
        maxproj = 0
        for core in curves:
            others = [c for c in curves if c != core]
            for i, x in enumerate(others):
                for y in others[i + 1 :]:
                    maxproj = max(maxproj, sys.proj(core, x, y))
        threshold = 2 * M + 2 + maxproj
        conds.append(f"power n > 2M + 2 + max proj = {threshold}")
        return RaagCertificate(threshold + 1, f"free group of rank {len(curves)}", tuple(conds))

    if mode == TWO_MULTICURVES:
        A, B = data
        l = dist_multicurve(sys, A, B)
        if l < 3:
            raise ConditionUnmet(f"dist({A}, {B}) = {l} < 3")
        conds.append(f"dist({A}, {B}) = {l} >= 3")
        threshold = 2 * M + 3
        conds.append(f"power n > 2M + 3 = {threshold}")
        shape = f"Z^{len(sys.multicurve(A))} * Z^{len(sys.multicurve(B))}"
        return RaagCertificate(threshold + 1, shape, tuple(conds))

    if mode == MULTICURVES:
        names = list(data)
        if len(names) < 2:
            raise BadParameter("need at least two multicurves")
        for i, X in enumerate(names):
            for Y in names[i + 1 :]:
                d = dist_multicurve(sys, X, Y)
                if d < 3:
                    raise ConditionUnmet(f"dist({X}, {Y}) = {d} < 3")
                conds.append(f"dist({X}, {Y}) = {d} >= 3")
        maxproj = 0
        all_cores: list[str] = []
        for name in names:
            all_cores.extend(sys.multicurve(name))
        for core in all_cores:
            for i, X in enumerate(names):
                for Y in names[i + 1 :]:
                    maxproj = max(maxproj, proj_multicurve(sys, core, X, Y))
        threshold = 2 * M + 3 + maxproj
        conds.append(f"power n > 2M + 3 + max proj = {threshold}")
        shape = " * ".join(f"Z^{len(sys.multicurve(name))}" for name in names)
        return RaagCertificate(threshold + 1, shape, tuple(conds))

    raise BadParameter(f"unknown mode {mode!r}")
