import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from twistlab.config import validate
from twistlab.errors import BudgetExhausted, ConditionUnmet, CoreDisjoint
from twistlab.farey import (
    INFINITY,
    MAT_ID,
    Slope,
    annular_distance,
    export_curve_system,
    farey_distance,
    farey_distance_bfs,
    farey_geodesic,
    find_equality_threshold,
    intersection,
    mat_apply,
    mat_det,
    mat_inv,
    mat_mul,
    parse_slope,
    slopes_within,
    twist_matrix,
    verify_main_theorem,
    word_matrix,
)


def test_slope_canonical_form():
    assert Slope(2, -4) == Slope(-1, 2)
    assert Slope(-3, 0) == Slope(1, 0)
    assert str(Slope(3, 5)) == "3/5"
    with pytest.raises(ValueError):
        Slope(0, 0)


def test_parse_slope():
    assert parse_slope("1/0") == INFINITY
    assert parse_slope("-2/7") == Slope(-2, 7)
    assert parse_slope("4") == Slope(4, 1)


def test_intersection_examples():
    assert intersection(INFINITY, Slope(0, 1)) == 1
    assert intersection(INFINITY, Slope(7, 9)) == 9
    assert intersection(Slope(3, 5), Slope(1, 2)) == 1


def test_twist_matrix_anchor():
    assert twist_matrix(INFINITY, 5) == (1, 5, 0, 1)
    assert twist_matrix(Slope(0, 1), 1) == (1, 0, -1, 1)


def test_twist_matrix_inverse_cancels():
    c = Slope(3, 7)
    assert mat_mul(twist_matrix(c, 4), twist_matrix(c, -4)) == MAT_ID


def test_twist_matrix_determinant_and_fixed_curve():
    rng = random.Random(5)
    for _ in range(25):
        c = Slope(rng.randint(-9, 9), rng.randint(0, 9)) if rng.random() > 0.1 else INFINITY
        e = rng.choice([-3, -1, 1, 2, 5])
        m = twist_matrix(c, e)
        assert mat_det(m) == 1
        assert mat_apply(m, c) == c


def test_twist_moves_by_intersection_squared():
    # i(T_c x, x) = i(c, x)^2 * |e| for a twist power
    rng = random.Random(6)
    for _ in range(25):
        c = Slope(rng.randint(-9, 9), rng.randint(1, 9))
        x = Slope(rng.randint(-9, 9), rng.randint(1, 9))
        e = rng.choice([1, -1, 3])
        moved = mat_apply(twist_matrix(c, e), x)
        assert intersection(moved, x) == intersection(c, x) ** 2 * abs(e)


def test_farey_distance_examples():
    assert farey_distance(INFINITY, Slope(0, 1)) == 1
    assert farey_distance(INFINITY, Slope(1, 2)) == 2
    assert farey_distance(INFINITY, Slope(3, 5)) == 3
    assert farey_distance(Slope(3, 5), Slope(3, 5)) == 0


def test_farey_distance_adjacency_iff_unit_intersection():
    rng = random.Random(7)
    for _ in range(60):
        x = Slope(rng.randint(-12, 12), rng.randint(0, 12) or 1)
        y = Slope(rng.randint(-12, 12), rng.randint(0, 12) or 1)
        if x == y:
            continue
        d = farey_distance(x, y)
        if intersection(x, y) == 1:
            assert d == 1
        else:
            assert d >= 2


def test_farey_distance_metric_on_sample():
    rng = random.Random(8)
    pts = [Slope(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(10)] + [INFINITY]
    for x in pts:
        for y in pts:
            assert farey_distance(x, y) == farey_distance(y, x)
            assert (farey_distance(x, y) == 0) == (x == y)
            for z in pts:
                assert farey_distance(x, z) <= farey_distance(x, y) + farey_distance(y, z)


def test_farey_geodesic_is_a_path():
    rng = random.Random(9)
    for _ in range(40):
        x = Slope(rng.randint(-30, 30), rng.randint(1, 30))
        y = Slope(rng.randint(-30, 30), rng.randint(1, 30))
        path = farey_geodesic(x, y)
        assert path[0] == x and path[-1] == y
        assert len(path) == farey_distance(x, y) + 1
        for u, v in zip(path, path[1:]):
            assert intersection(u, v) == 1


def test_bfs_matches_cf_small():
    assert farey_distance_bfs(INFINITY, Slope(0, 1), 8) == 1
    assert farey_distance_bfs(INFINITY, Slope(3, 5), 64) == 3
    rng = random.Random(10)
    for _ in range(30):
        x = Slope(rng.randint(-10, 10), rng.randint(1, 10))
        y = Slope(rng.randint(-10, 10), rng.randint(1, 10))
        assert farey_distance_bfs(x, y, 40) == farey_distance(x, y)


def test_bfs_budget_exhausted():
    with pytest.raises(BudgetExhausted):
        farey_distance_bfs(Slope(10**6 + 1, 10**6), Slope(0, 1), 16)


def test_equivariance_under_unimodular_maps():
    rng = random.Random(11)
    mats = []
    while len(mats) < 20:
        a, b, c = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
        # solve a*d - b*c = 1 for integer d when possible
        if a != 0 and (1 + b * c) % a == 0:
            mats.append((a, b, c, (1 + b * c) // a))
    pts = [Slope(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(6)] + [INFINITY]
    for u in mats:
        for x in pts:
            for y in pts:
                assert farey_distance(mat_apply(u, x), mat_apply(u, y)) == farey_distance(x, y)
        core, x, y = pts[0], pts[1], pts[2]
        if intersection(core, x) > 0 and intersection(core, y) > 0:
            assert annular_distance(
                mat_apply(u, core), mat_apply(u, x), mat_apply(u, y)
            ) == annular_distance(core, x, y)


def test_annular_examples():
    assert annular_distance(INFINITY, Slope(1, 2), Slope(5, 2)) == 4
    assert annular_distance(INFINITY, Slope(1, 3), Slope(2, 3)) == 2
    assert annular_distance(INFINITY, Slope(1, 2), Slope(1, 2)) == 0


def _core_frame_annular_distance(core, x, y):
    """The former model: the frame (p, r; q, s) with the smallest nonnegative
    cofactor s = p^-1 mod q sends 1/0 to the core; its inverse is applied."""
    p, q = core.p, core.q
    frame = (1, 0, 0, 1)
    if q != 0:
        s = pow(p, -1, q)
        frame = (p, (p * s - 1) // q, q, s)
    a, b, c, d = mat_inv(frame)
    xv = Fraction(a * x.p + b * x.q, c * x.p + d * x.q)
    yv = Fraction(a * y.p + b * y.q, c * y.p + d * y.q)
    if xv == yv:
        return 0
    return abs(xv.numerator // xv.denominator - yv.numerator // yv.denominator) + 2


def test_annular_distance_matches_core_frame_oracle():
    # every crossing triple of slopes within magnitude 5
    pts = slopes_within(5)
    checked = 0
    for core in pts:
        crossing = [x for x in pts if intersection(core, x) > 0]
        for x in crossing:
            for y in crossing:
                assert annular_distance(core, x, y) == _core_frame_annular_distance(core, x, y)
                checked += 1
    assert checked == 60840


def test_annular_core_disjoint():
    with pytest.raises(CoreDisjoint):
        annular_distance(INFINITY, INFINITY, Slope(1, 2))


def test_annular_twist_identity_quick():
    rng = random.Random(12)
    for _ in range(30):
        core = Slope(rng.randint(-9, 9), rng.randint(1, 9))
        x = Slope(rng.randint(-9, 9), rng.randint(1, 9))
        if intersection(core, x) == 0:
            continue
        n = rng.choice([-25, -3, -1, 1, 2, 17])
        moved = mat_apply(twist_matrix(core, n), x)
        assert annular_distance(core, x, moved) == abs(n) + 2


def test_annular_prefix_inequality():
    # proj(core; y, T_core^e y') >= |e| - proj(core; y', y) for sampled slopes
    rng = random.Random(13)
    for _ in range(60):
        core = Slope(rng.randint(-9, 9), rng.randint(1, 9))
        y = Slope(rng.randint(-9, 9), rng.randint(1, 9))
        y2 = Slope(rng.randint(-9, 9), rng.randint(1, 9))
        if intersection(core, y) == 0 or intersection(core, y2) == 0:
            continue
        e = rng.choice([-40, -7, 5, 12])
        moved = mat_apply(twist_matrix(core, e), y2)
        if intersection(core, moved) == 0:
            continue
        lhs = annular_distance(core, y, moved)
        assert lhs >= abs(e) - annular_distance(core, y2, y)


def test_verify_main_theorem_report_shape():
    rep = verify_main_theorem(INFINITY, Slope(3, 5), [201, -201], m_max=3)
    assert rep.l == 3 and rep.n == 1
    assert rep.base_point == Slope(0, 1)
    assert [r.power for r in rep.rows] == [1, 2, 3]
    # measured distances on the Farey graph grow linearly with slope 2nl
    assert [r.distance for r in rep.rows] == [6, 12, 18]
    assert [r.expected for r in rep.rows] == [2, 4, 6]
    assert all(r.ratio == Fraction(r.distance, r.power) for r in rep.rows)


@pytest.mark.parametrize(
    "b, l", [(Slope(3, 5), 3), (Slope(2, 5), 3), (Slope(-7, 12), 4), (Slope(5, 12), 4)]
)
def test_torus_translation_count_by_bfs(b, l):
    # d(v1, f v1) = 2nl for |e| >= 3 on the Farey graph, measured by the
    # breadth-first oracle over slopes no larger than the endpoints rather
    # than by the continued-fraction distance
    assert farey_distance_bfs(INFINITY, b, b.magnitude) == l
    v1 = farey_geodesic(INFINITY, b)[1]
    assert farey_distance_bfs(INFINITY, v1, b.magnitude) == 1
    assert farey_distance_bfs(v1, b, b.magnitude) == l - 1
    for e in (3, 4, 5):
        for signs in ((1, -1), (1, 1), (-1, 1), (-1, -1)):
            moved = mat_apply(word_matrix([(INFINITY, signs[0] * e), (b, signs[1] * e)]), v1)
            budget = max(v1.magnitude, moved.magnitude)
            assert farey_distance_bfs(v1, moved, budget) == 2 * l


def test_torus_translation_count_short_of_2nl_at_small_power():
    # |e| = 2 can cut a corner, so the ladder threshold is not vacuous
    v1 = farey_geodesic(INFINITY, Slope(3, 5))[1]
    moved = mat_apply(word_matrix([(INFINITY, 2), (Slope(3, 5), -2)]), v1)
    assert farey_distance_bfs(v1, moved, max(v1.magnitude, moved.magnitude)) == 5


def test_verify_main_theorem_experiment_mode():
    # magnitude-1 exponents are data, not an error
    rep = verify_main_theorem(INFINITY, Slope(3, 5), [1, -1], m_max=2)
    assert not rep.all_match


def test_verify_main_theorem_conditions():
    with pytest.raises(ConditionUnmet):
        verify_main_theorem(INFINITY, Slope(1, 2), [201, -201])  # distance 2
    with pytest.raises(ConditionUnmet):
        verify_main_theorem(INFINITY, Slope(3, 5), [201, -201, 300])  # odd length
    with pytest.raises(ConditionUnmet):
        verify_main_theorem(INFINITY, Slope(3, 5), [100, -201], threshold=200)


def test_find_equality_threshold_reports_ladder_exhaustion():
    achieved, rep = find_equality_threshold(
        INFINITY, Slope(3, 5), [1, -1], m_max=2, start=201, cap=402
    )
    assert achieved is None
    assert rep.exponents == (402, -402)


def test_export_curve_system_validates():
    slopes = [INFINITY, Slope(0, 1), Slope(1, 2), Slope(3, 5)]
    sys_ = export_curve_system(slopes)
    assert validate(sys_) == []
    assert sys_.dist("1/0", "3/5") == 3
    assert sys_.dist("1/0", "0/1") == 1
    assert sys_.inter_or_none("1/0", "0/1") == 1
    assert sys_.surface is not None and sys_.surface.sporadic


def test_exported_system_feeds_certificate_engine():
    # exported torus tables drive the hypothesis checkers end to end
    from twistlab.bounds import exact_two_filling
    from twistlab.words import parse_word

    sys_ = export_curve_system([INFINITY, Slope(3, 5)])
    res = exact_two_filling(parse_word("1/0^201 3/5^-201"), sys_)
    assert res.verified and res.exact == 2
    assert res.pseudo_anosov is True


def test_bfs_stabilizes_as_budget_grows():
    rng = random.Random(14)
    grid = slopes_within(12)
    for _ in range(15):
        x, y = rng.choice(grid), rng.choice(grid)
        d_small = farey_distance_bfs(x, y, 20)
        d_big = farey_distance_bfs(x, y, 40)
        assert d_big <= d_small  # richer subgraph can only shorten paths
        assert d_big == farey_distance(x, y)


def test_word_matrix_composition():
    pairs = [(INFINITY, 2), (Slope(0, 1), -3)]
    expected = mat_mul(twist_matrix(INFINITY, 2), twist_matrix(Slope(0, 1), -3))
    assert word_matrix(pairs) == expected


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_distance_translation_invariant(p, n):
    # T_infinity acts as x -> x + 1 and is an isometry
    x = Slope(p, 7)
    moved = mat_apply(twist_matrix(INFINITY, n), x)
    assert farey_distance(INFINITY, x) == farey_distance(INFINITY, moved)


def test_torus_translation_count_at_small_powers_and_large_m():
    # d(v1, f^m v1) = 2mnl already from |e| = 3 on, and stays exact far past
    # the m <= 4 of the acceptance sample; five fixed instances per (l, n)
    rng = random.Random(20261018)
    pools = {l: [s for s in slopes_within(20) if farey_distance(INFINITY, s) == l] for l in (3, 4)}
    for l in (3, 4):
        for n in (1, 2, 3):
            for _ in range(5):
                b = rng.choice(pools[l])
                exps = [rng.choice((1, -1)) * rng.randint(3, 8) for _ in range(2 * n)]
                rep = verify_main_theorem(INFINITY, b, exps, m_max=50)
                assert rep.l == l and rep.n == n
                assert [r.distance for r in rep.rows] == [2 * m * n * l for m in range(1, 51)], (b, exps)
