import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from twistlab.applications import (
    EQUAL_CONJUGATE,
    STRICTLY_GREATER,
    minimal_word,
    raag_threshold,
    ratio_report,
    trace_bound,
    unit_alternating_trace,
)
from twistlab.config import CurveSystem, SurfaceKind
from twistlab.errors import (
    BadParameter,
    ConditionUnmet,
    MissingProjection,
    ZeroTotal,
)
from twistlab.thurston import IntersectionMatrix
from twistlab.words import parse_word, word


def _singleton_pair(l=3, surface=None):
    return CurveSystem(
        ["a", "b"],
        multicurves={"A": ["a"], "B": ["b"]},
        dist=[("a", "b", l)],
        inter=[("a", "b", 1)],
        surface=surface,
    )


def test_minimal_word_strictly_greater():
    res = minimal_word(parse_word("a^204 b^-204 a^204 b^-204"), _singleton_pair(), "A", "B")
    assert str(res.collected) == "a^408 b^-408"
    assert res.verdict == STRICTLY_GREATER and res.interchanges == 2


def test_minimal_word_equal_conjugate(multi_system):
    res = minimal_word(parse_word("a1^204 a2^5 b1^-204"), multi_system, "A", "B")
    assert res.verdict == EQUAL_CONJUGATE and res.interchanges == 1
    assert res.totals == (("a1", 204), ("a2", 5), ("b1", -204))
    # collected word is a per-curve reordering: same totals, k = 1
    assert str(res.collected) == "a1^204 a2^5 b1^-204"


def test_minimal_word_zero_total():
    with pytest.raises(ZeroTotal):
        minimal_word(
            parse_word("a^204 b^-204 a^-204 b^204"), _singleton_pair(), "A", "B"
        )


def test_minimal_word_condition_unmet():
    with pytest.raises(ConditionUnmet):
        minimal_word(parse_word("a^10 b^-10"), _singleton_pair(), "A", "B")


def test_trace_bound_values():
    assert trace_bound(1, 2) == 16
    assert trace_bound(2, Fraction(3, 2)) == 81
    with pytest.raises(BadParameter):
        trace_bound(1, 1)
    with pytest.raises(BadParameter):
        trace_bound(0, 2)


def test_unit_alternating_trace_small():
    # a b with t = 2: [[1,2],[0,1]] [[1,0],[2,1]] = [[5,2],[2,1]], trace 6
    assert unit_alternating_trace([1, 1], 2) == 6
    assert unit_alternating_trace([1, -1], 2) == -3 + 1  # [[1,2],[0,1]][[1,0],[-2,1]]


def test_unit_trace_respects_bound():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 5)
        signs = [rng.choice([1, -1]) for _ in range(2 * n)]
        t = rng.randint(2, 10)
        assert abs(unit_alternating_trace(signs, t)) <= trace_bound(n, t)


def test_ratio_report_example():
    rr = ratio_report(
        parse_word("a^201 b^-201"), _singleton_pair(3), IntersectionMatrix.of([[1]])
    )
    assert rr.lc == 2 and rr.t == 201
    assert rr.trace == 2 + 201 * 201
    # tau <= log(2t)/(l-2) = log 402
    assert float(rr.optimizer_upper[0]) == pytest.approx(math.log(402), abs=1e-9)
    assert rr.tau_within_bound
    assert rr.tau[0] <= rr.tau[1]


def test_ratio_report_n2_l4():
    sys_ = _singleton_pair(4)
    rr = ratio_report(
        parse_word("a^201 b^-201 a^-201 b^201"), sys_, IntersectionMatrix.of([[1]])
    )
    assert rr.lc == 2 * 2 * (4 - 2)
    assert rr.tau_within_bound


def test_ratio_report_shape_rejection():
    with pytest.raises(ConditionUnmet):
        ratio_report(parse_word("a^2 b^-201"), _singleton_pair(), IntersectionMatrix.of([[1]]))
    with pytest.raises(ConditionUnmet):
        ratio_report(
            parse_word("a^201 b^-201"), _singleton_pair(2), IntersectionMatrix.of([[1]])
        )


def test_ratio_report_omega():
    rr = ratio_report(
        parse_word("a^201 b^-201"),
        _singleton_pair(surface=SurfaceKind(2, 1)),
        IntersectionMatrix.of([[1]]),
    )
    assert rr.omega == 3


def test_raag_free_curves():
    sys_ = CurveSystem(
        ["a", "b", "c"],
        dist=[("a", "b", 3), ("b", "c", 3), ("a", "c", 3)],
        inter=[("a", "b", 2), ("b", "c", 2), ("a", "c", 2)],
        proj=[("a", "b", "c", 4), ("b", "a", "c", 1), ("c", "a", "b", 2)],
    )
    cert = raag_threshold(sys_, "free_curves", ["a", "b", "c"])
    assert cert.required_power == 2 * 100 + 2 + 4 + 1  # 207
    assert cert.group_shape == "free group of rank 3"


def test_raag_two_multicurves(multi_system):
    cert = raag_threshold(multi_system, "two_multicurves", ("A", "B"))
    assert cert.required_power == 204
    assert cert.group_shape == "Z^2 * Z^1"


def test_raag_multicurves():
    sys_ = CurveSystem(
        ["x", "y", "z"],
        multicurves={"X": ["x"], "Y": ["y"], "Z": ["z"]},
        dist=[("x", "y", 3), ("y", "z", 3), ("x", "z", 3)],
        inter=[("x", "y", 1), ("y", "z", 1), ("x", "z", 1)],
        proj=[("x", "y", "z", 5), ("y", "x", "z", 0), ("z", "x", "y", 3)],
    )
    cert = raag_threshold(sys_, "multicurves", ["X", "Y", "Z"])
    assert cert.required_power == 2 * 100 + 3 + 5 + 1  # 209
    assert cert.group_shape == "Z^1 * Z^1 * Z^1"


def test_raag_distance_too_small():
    sys_ = CurveSystem(
        ["x", "y"],
        multicurves={"X": ["x"], "Y": ["y"]},
        dist=[("x", "y", 2)],
    )
    with pytest.raises(ConditionUnmet):
        raag_threshold(sys_, "two_multicurves", ("X", "Y"))
    with pytest.raises(ConditionUnmet):
        raag_threshold(sys_, "free_curves", ["x", "y"])


def test_raag_missing_projection():
    sys_ = CurveSystem(
        ["a", "b", "c"],
        dist=[("a", "b", 3), ("b", "c", 3), ("a", "c", 3)],
        inter=[("a", "b", 2), ("b", "c", 2), ("a", "c", 2)],
    )
    with pytest.raises(MissingProjection):
        raag_threshold(sys_, "free_curves", ["a", "b", "c"])


def test_raag_monotone_in_m_and_projection():
    base = CurveSystem(
        ["a", "b", "c"],
        dist=[("a", "b", 3), ("b", "c", 3), ("a", "c", 3)],
        inter=[("a", "b", 2), ("b", "c", 2), ("a", "c", 2)],
        proj=[("a", "b", "c", 4), ("b", "a", "c", 1), ("c", "a", "b", 2)],
    )
    low_m = base.with_m(10)
    assert (
        raag_threshold(low_m, "free_curves", ["a", "b", "c"]).required_power
        < raag_threshold(base, "free_curves", ["a", "b", "c"]).required_power
    )
    bumped = CurveSystem(
        base.curves,
        {},
        base.dist_entries,
        [("a", "b", "c", 9), ("b", "a", "c", 1), ("c", "a", "b", 2)],
        base.inter_entries,
    )
    assert (
        raag_threshold(bumped, "free_curves", ["a", "b", "c"]).required_power
        > raag_threshold(base, "free_curves", ["a", "b", "c"]).required_power
    )


def test_ratio_not_hyperbolic_path():
    # engineered degenerate case: trace lands in [-2, 2] only if it exists;
    # the alternating +-(2M+1) family at t >= 201 is always hyperbolic, so
    # force a tiny M to hit the boundary check instead.
    sys_ = CurveSystem(
        ["a", "b"],
        dist=[("a", "b", 3)],
        inter=[("a", "b", 1)],
        M=1,
        m_is_default=False,
    )
    # t = 3, word a^3 b^3: trace 2 - t^2 = -7, hyperbolic; a^3 b^-3 trace 11
    rr = ratio_report(parse_word("a^3 b^3"), sys_, IntersectionMatrix.of([[1]]))
    assert rr.trace == 2 - 9
    assert rr.tau_within_bound


def _integer_trace(exponents, s):
    """Trace of the product of [[1, e s], [0, 1]] (even places) and
    [[1, 0], [-e s, 1]] (odd places), in plain integer matrices."""
    a, b, c, d = 1, 0, 0, 1
    for j, e in enumerate(exponents):
        if j % 2 == 0:
            a, b, c, d = a, a * e * s + b, c, c * e * s + d
        else:
            a, b, c, d = a - b * e * s, b, c - d * e * s, d
    return a + d


def test_ratio_report_encloses_isqrt_lambda_and_its_log():
    # lambda = (|T| + sqrt(T^2 - 4)) / 2 to 12 + 40 digits with math.isqrt,
    # and its log from decimal at 80 significant digits
    rng = random.Random(29)
    scale = 10 ** (12 + 40)
    for i_ab in range(1, 5):
        for n in range(1, 4):
            sys_ = CurveSystem(["a", "b"], dist=[("a", "b", 3)], inter=[("a", "b", i_ab)])
            unit = 2 * sys_.M + 1
            exponents = [rng.choice([1, -1]) * unit for _ in range(2 * n)]
            w = word(("a" if j % 2 == 0 else "b", e) for j, e in enumerate(exponents))
            rr = ratio_report(w, sys_, IntersectionMatrix.of([[i_ab]]))
            t = abs(_integer_trace(exponents, i_ab))
            root = math.isqrt((t * t - 4) * scale * scale)
            lam = (Fraction(t * scale + root, 2 * scale), Fraction(t * scale + root + 1, 2 * scale))
            assert rr.lam[0] <= lam[0] and lam[1] <= rr.lam[1]
            assert rr.lam[1] - rr.lam[0] <= Fraction(1, 10**12)
            with localcontext() as ctx:
                ctx.prec = 80
                logs = [Fraction((Decimal(x.numerator) / x.denominator).ln()) for x in lam]
            assert rr.lt[0] <= logs[0] and logs[1] <= rr.lt[1]
            assert rr.lt[1] - rr.lt[0] <= Fraction(2, 10**12)
