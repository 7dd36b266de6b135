"""The one-pass continued-fraction distance and geodesic against two oracles.

``_dp_distances`` and ``_dp_geodesic`` are the memo dynamic programme the
package used before: it walks each partial quotient one unit at a time, so it
is exact but its time and memory grow with the size of the quotients.  It
serves here as an oracle on slopes small enough for it.  Past that size the
paths are checked with the adjacency relation and the breadth-first search.
"""

import time
from math import gcd

from hypothesis import given, settings, strategies as st

from twistlab.farey import (
    INFINITY,
    Slope,
    _normalizer_to_infinity,
    farey_distance,
    farey_distance_bfs,
    farey_geodesic,
    intersection,
    mat_apply,
    mat_inv,
    mat_mul,
)


def _dp_distances(num, den):
    """Distance from 1/0 to num/den plus the memo table used to get it."""
    memo = {}
    if den < 0:
        num, den = -num, -den
    if den == 0:
        return 0, memo
    if den == 1:
        return 1, memo
    num %= den
    stack = [(num, den)]
    while stack:
        n, d = stack[-1]
        if (n, d) in memo:
            stack.pop()
            continue
        pending = []
        children = []
        for nd in (n, d - n):
            if nd == 1:
                children.append(1)
            else:
                key = (d % nd, nd)
                if key in memo:
                    children.append(memo[key])
                else:
                    pending.append(key)
        if pending:
            stack.extend(pending)
        else:
            memo[(n, d)] = 1 + min(children)
            stack.pop()
    return memo[(num, den)], memo


def _dp_geodesic(x, y):
    """The geodesic read back from the memo table, floor first on a tie."""
    if x == y:
        return [x]
    v = _normalizer_to_infinity(x)
    a, b, c, d = v
    num = a * y.p + b * y.q
    den = c * y.p + d * y.q
    if den < 0:
        num, den = -num, -den
    _, memo = _dp_distances(num, den)
    path = [x]
    acc = mat_inv(v)
    cur_n, cur_d = num, den
    while True:
        if cur_d == 1:
            step = cur_n
            done = True
        else:
            rem = cur_n % cur_d
            floor = (cur_n - rem) // cur_d
            d_floor = 1 if rem == 1 else memo[(cur_d % rem, rem)]
            up = cur_d - rem
            d_ceil = 1 if up == 1 else memo[(cur_d % up, up)]
            if d_floor <= d_ceil:
                step, nxt = floor, (cur_d, rem)
            else:
                step, nxt = floor + 1, (-cur_d, up)
            done = False
        acc = mat_mul(acc, (step, 1, 1, 0))
        path.append(mat_apply(acc, INFINITY))
        if done:
            break
        cur_n, cur_d = nxt
    assert path[-1] == y
    return path


def _from_quotients(quotients):
    """The slope [a0; a1, ..., am]."""
    p, q = 1, 0
    for a in reversed(quotients):
        p, q = a * p + q, p
    return Slope(p, q)


def _assert_path(path, x, y):
    assert path[0] == x and path[-1] == y
    assert all(intersection(u, v) == 1 for u, v in zip(path, path[1:]))


def test_matches_dp_on_exhaustive_grid():
    count = 0
    for den in range(1, 90):
        for num in range(-den, 2 * den):
            if gcd(num, den) != 1:
                continue
            y = Slope(num, den)
            path = _dp_geodesic(INFINITY, y)
            assert farey_geodesic(INFINITY, y) == path
            assert farey_distance(INFINITY, y) == len(path) - 1 == _dp_distances(num, den)[0]
            count += 1
    assert count == 7368


SMALL_SLOPES = st.builds(Slope, st.integers(-20, 20), st.integers(1, 20)) | st.just(INFINITY)
# one partial quotient up to 10^6 among small ones: the oracle's time and
# memo grow with the sum of the quotients (about 3.5 s and 250 MB at 10^6)
QUOTIENTS_UP_TO_1E6 = st.tuples(
    st.integers(-5, 5),
    st.lists(st.integers(1, 40), max_size=6),
    st.integers(1, 6).flatmap(lambda e: st.integers(10 ** (e - 1), 10**e)),
    st.lists(st.integers(1, 40), max_size=6),
).map(lambda t: [t[0], *t[1], t[2], *t[3], 2])


@settings(max_examples=12, deadline=None)
@given(SMALL_SLOPES, QUOTIENTS_UP_TO_1E6)
def test_matches_dp_on_large_quotients(x, quotients):
    y = _from_quotients(quotients)
    path = _dp_geodesic(x, y)
    assert farey_geodesic(x, y) == path
    assert farey_distance(x, y) == len(path) - 1


HUGE = 10**30
QUOTIENTS_UP_TO_1E30 = st.lists(
    st.sampled_from([1, 2, 3]) | st.integers(HUGE, 2 * HUGE), min_size=1, max_size=5
).map(lambda qs: [0, *qs, 2])


@settings(max_examples=60, deadline=None)
@given(SMALL_SLOPES, QUOTIENTS_UP_TO_1E30)
def test_huge_quotients_against_bfs_and_adjacency(x, quotients):
    y = _from_quotients(quotients)
    path = farey_geodesic(x, y)
    _assert_path(path, x, y)
    assert len(path) - 1 == farey_distance(x, y) == farey_distance(y, x)
    # From 1/0 a quotient of 2 or more costs the same whatever its size, so
    # the breadth-first search measures the slope with each one cut to 2.
    small = _from_quotients([min(q, 2) for q in quotients])
    assert farey_distance(INFINITY, y) == farey_distance_bfs(INFINITY, small, small.magnitude)


def test_huge_slope_is_cheap():
    y = Slope(2, 2 * 10**100 + 1)
    start = time.perf_counter()
    assert farey_distance(INFINITY, y) == 3
    path = farey_geodesic(INFINITY, y)
    assert time.perf_counter() - start < 0.5
    assert len(path) == 4
    _assert_path(path, INFINITY, y)
    start = time.perf_counter()
    assert farey_distance(INFINITY, Slope(2, 2 * 10**9 + 1)) == 3
    assert time.perf_counter() - start < 0.5
