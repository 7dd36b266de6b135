import pytest
from hypothesis import given, settings, strategies as st

from twistlab.config import (
    CurveSystem,
    SurfaceKind,
    dist_multicurve,
    filling_pair,
    load_curve_system,
    proj_multicurve,
    validate,
)
from twistlab.errors import MalformedConfig, MissingDistance, MissingProjection


def test_validate_clean(pair_system):
    assert validate(pair_system) == []


def test_validate_asymmetric_dist():
    sys_ = CurveSystem(["a", "b"], dist=[("a", "b", 3), ("b", "a", 4)])
    assert any("asymmetric" in v for v in validate(sys_))


def test_validate_triangle():
    sys_ = CurveSystem(
        ["a", "b", "c"], dist=[("a", "b", 5), ("b", "c", 1), ("a", "c", 1)]
    )
    assert any("triangle" in v for v in validate(sys_))


def test_validate_multicurve_disjointness():
    sys_ = CurveSystem(
        ["a", "b"], multicurves={"A": ["a", "b"]}, inter=[("a", "b", 2)]
    )
    assert any("not disjoint" in v for v in validate(sys_))


def test_validate_self_distance():
    sys_ = CurveSystem(["a"], dist=[("a", "a", 1)])
    assert any("self-distance" in v for v in validate(sys_))


def test_validate_projection_needs_crossing():
    sys_ = CurveSystem(["a", "b", "c"], proj=[("a", "b", "c", 1)])
    problems = validate(sys_)
    assert any("not positive" in v for v in problems)


def test_intersecting_at_distance_one_flagged_off_torus():
    data = dict(curves=["a", "b"], dist=[("a", "b", 1)], inter=[("a", "b", 1)])
    general = CurveSystem(**data)
    assert any("intersecting" in v for v in validate(general))
    torus = CurveSystem(**data, surface=SurfaceKind(1, 0))
    assert validate(torus) == []


def test_filling_pair(pair_system):
    assert filling_pair(pair_system, "a", "b") is True
    low = CurveSystem(["a", "b"], dist=[("a", "b", 2)])
    assert filling_pair(low, "a", "b") is False
    lower = CurveSystem(["a", "b"], dist=[("a", "b", 1)])
    assert filling_pair(lower, "a", "b") is False


def test_filling_pair_missing():
    with pytest.raises(MissingDistance):
        filling_pair(CurveSystem(["a", "b"]), "a", "b")


def test_dist_multicurve(multi_system):
    assert dist_multicurve(multi_system, "A", "B") == 3
    single = CurveSystem(
        ["a", "b"], multicurves={"A": ["a"], "B": ["b"]}, dist=[("a", "b", 5)]
    )
    assert dist_multicurve(single, "A", "B") == 5
    shared = CurveSystem(["a", "b"], multicurves={"X": ["a"], "Y": ["a", "b"]}, dist=[("a", "b", 3)])
    assert dist_multicurve(shared, "X", "Y") == 0


def test_proj_multicurve(multi_system):
    assert proj_multicurve(multi_system, "b1", "A", "A") == 1
    sys_ = CurveSystem(
        ["c", "x", "y", "z"],
        multicurves={"C": ["x", "y"], "D": ["z"]},
        inter=[("c", "x", 1), ("c", "y", 1), ("c", "z", 1)],
        proj=[("c", "x", "z", 1), ("c", "y", "z", 4), ("c", "x", "y", 2)],
    )
    assert proj_multicurve(sys_, "c", "C", "D") == 4
    # no crossing pairs: everything disjoint from the core
    quiet = CurveSystem(
        ["c", "x", "z"],
        multicurves={"C": ["x"], "D": ["z"]},
        inter=[("c", "x", 0), ("c", "z", 0)],
    )
    assert proj_multicurve(quiet, "c", "C", "D") == 0


def test_proj_multicurve_missing():
    sys_ = CurveSystem(
        ["c", "x", "z"],
        multicurves={"C": ["x"], "D": ["z"]},
        inter=[("c", "x", 1), ("c", "z", 1)],
    )
    with pytest.raises(MissingProjection):
        proj_multicurve(sys_, "c", "C", "D")


def test_surface_omega():
    assert SurfaceKind(1, 0).omega == -1
    assert SurfaceKind(2, 0).omega == 2
    assert SurfaceKind(0, 5).omega == 1
    assert SurfaceKind(1, 0).sporadic
    assert not SurfaceKind(2, 0).sporadic


def test_load_rejects_unknown_fields():
    with pytest.raises(MalformedConfig):
        load_curve_system({"curves": ["a"], "bogus": 1})


def test_load_rejects_bad_rows():
    with pytest.raises(MalformedConfig):
        load_curve_system({"curves": ["a", "b"], "dist": [["a", "b", "x"]]})


BASE = {"curves": ["a", "b"], "dist": [["a", "b", 3]], "inter": [["a", "b", 1]]}


@pytest.mark.parametrize(
    "field, value",
    [
        ("dist", [["a", "b", True]]),
        ("inter", [["a", "b", False]]),
        ("proj", [["a", "a", "b", True]]),
        ("M", True),
        ("surface", {"genus": True, "punctures": 0}),
        ("surface", {"genus": 2, "punctures": False}),
    ],
    ids=["dist", "inter", "proj", "M", "genus", "punctures"],
)
def test_load_rejects_booleans(field, value):
    with pytest.raises(MalformedConfig):
        load_curve_system({**BASE, field: value})


def test_load_m_default_flag():
    base = {"curves": ["a", "b"], "dist": [["a", "b", 3]]}
    sys_ = load_curve_system(base)
    assert sys_.M == 100 and sys_.m_is_default
    sys2 = load_curve_system({**base, "M": 100})
    assert not sys2.m_is_default
    sys3 = load_curve_system({**base, "M": 7})
    assert sys3.M == 7 and not sys3.m_is_default


def test_load_surface():
    sys_ = load_curve_system(
        {"curves": ["a"], "surface": {"genus": 1, "punctures": 0}}
    )
    assert sys_.surface == SurfaceKind(1, 0)
    with pytest.raises(MalformedConfig):
        load_curve_system({"curves": ["a"], "surface": {"genus": 1}})


def test_m_override_is_flagged(pair_system):
    bumped = pair_system.with_m(50)
    assert bumped.M == 50 and not bumped.m_is_default
    assert bumped.dist("a", "b") == 3


def _triangle_oracle(sys_):
    """The triangle check as validate ran it before the index matrix: every
    stored pair against every third name, through the lookups."""
    out = []
    names = sorted({c for a, b, _ in sys_.dist_entries for c in (a, b)})
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if not sys_.has_dist(a, b):
                continue
            for c in names:
                if c in (a, b) or not (sys_.has_dist(a, c) and sys_.has_dist(b, c)):
                    continue
                if sys_.dist(a, b) > sys_.dist(a, c) + sys_.dist(c, b):
                    out.append(
                        f"triangle inequality fails: dist({a},{b})={sys_.dist(a,b)} > "
                        f"dist({a},{c})+dist({c},{b})={sys_.dist(a,c)+sys_.dist(c,b)}"
                    )
    return out


def _triangle_lines(problems):
    return [p for p in problems if p.startswith("triangle inequality fails")]


def test_triangle_messages_in_oracle_order():
    sys_ = CurveSystem(
        ["a", "b", "c", "d"],
        dist=[("a", "b", 9), ("b", "c", 1), ("c", "a", 2), ("a", "d", 3), ("d", "b", 4), ("c", "d", 8)],
    )
    lines = _triangle_lines(validate(sys_))
    assert lines == _triangle_oracle(sys_)
    assert lines == [
        "triangle inequality fails: dist(a,b)=9 > dist(a,c)+dist(c,b)=3",
        "triangle inequality fails: dist(a,b)=9 > dist(a,d)+dist(d,b)=7",
        "triangle inequality fails: dist(c,d)=8 > dist(c,a)+dist(a,d)=5",
        "triangle inequality fails: dist(c,d)=8 > dist(c,b)+dist(b,d)=5",
    ]


# partial tables over five names, one of them ("e") not declared: missing
# pairs, repeated and conflicting rows, self-pairs and violated triangles
ROWS = st.lists(
    st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"), st.integers(-2, 9)),
    max_size=16,
)


@settings(max_examples=300, deadline=None)
@given(ROWS)
def test_validate_matches_triangle_oracle(rows):
    sys_ = CurveSystem(["a", "b", "c", "d"], dist=rows)
    problems = validate(sys_)
    lines = _triangle_lines(problems)
    assert lines == _triangle_oracle(sys_)
    # the triangle lines form one block, between the row checks and the rest
    if lines:
        start = problems.index(lines[0])
        assert problems[start : start + len(lines)] == lines
