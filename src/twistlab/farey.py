"""Concrete torus model: slopes, twist matrices, Farey-graph distances.

Vertices of the torus curve graph are slopes p/q (with 1/0 for the vertical
curve), and two slopes are joined exactly when they intersect once.  This
module computes distances two independent ways: one pass over the
continued-fraction terms, whose cost grows with their number and not their
size (so slopes like 2/(2*10**100 + 1) stay cheap), and a breadth-first
search restricted to a magnitude budget that serves as its oracle.

The annular projection model sends the core to 1/0 by a determinant-1 map
and measures floor differences, which do not depend on the choice of map.  It reproduces the twist
identity proj(c; x, T_c^n x) = |n| + 2 exactly; against the true annular
curve graph it is only claimed up to a bounded additive error, and reports
built on it say so.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .config import CurveSystem, SurfaceKind
from .errors import BudgetExhausted, ConditionUnmet, CoreDisjoint


@dataclass(frozen=True)
class Slope:
    """A torus curve p/q in canonical form: gcd 1, q > 0, or 1/0 for infinity.

    >>> Slope(2, -4)
    Slope(-1, 2)
    >>> Slope(-3, 0)
    Slope(1, 0)
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if p == 0 and q == 0:
            raise ValueError("0/0 is not a slope")
        g = gcd(abs(p), abs(q))
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        elif q == 0:
            p = 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    def __repr__(self) -> str:
        return f"Slope({self.p}, {self.q})"

    @property
    def magnitude(self) -> int:
        return max(abs(self.p), self.q)


INFINITY = Slope(1, 0)


def parse_slope(text: str) -> Slope:
    """Parse 'p/q' (or a bare integer); '1/0' is the vertical slope."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        return Slope(int(num), int(den))
    return Slope(int(s), 1)


def intersection(x: Slope, y: Slope) -> int:
    """Geometric intersection number |p1 q2 - p2 q1| of two slopes."""
    return abs(x.p * y.q - y.p * x.q)


# ---------------------------------------------------------------------------
# integer 2x2 matrices, flat (a, b, c, d) = [[a, b], [c, d]]

Mat = tuple[int, int, int, int]

MAT_ID: Mat = (1, 0, 0, 1)


def mat_mul(m: Mat, n: Mat) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_det(m: Mat) -> int:
    return m[0] * m[3] - m[1] * m[2]

def mat_inv(m: Mat) -> Mat:
    """Inverse of a determinant-1 matrix."""
    a, b, c, d = m
    assert a * d - b * c == 1
    return (d, -b, -c, a)


def mat_apply(m: Mat, s: Slope) -> Slope:
    a, b, c, d = m
    return Slope(a * s.p + b * s.q, c * s.p + d * s.q)


def twist_matrix(c: Slope, e: int) -> Mat:
    """The e-th power of the twist about c, with 1/0 acting as x -> x + e.

    Closed form I + e * [[-pq, p^2], [-q^2, pq]]; conjugating the 1/0 anchor
    by any unimodular frame with first column (p, q) gives the same matrix.

    >>> twist_matrix(INFINITY, 3)
    (1, 3, 0, 1)
    >>> twist_matrix(Slope(0, 1), 1)
    (1, 0, -1, 1)
    """
    p, q = c.p, c.q
    return (1 - e * p * q, e * p * p, -e * q * q, 1 + e * p * q)


def word_matrix(pairs: Iterable[tuple[Slope, int]]) -> Mat:
    """Matrix of a twist word, leftmost syllable applied last (composition)."""
    out = MAT_ID
    for c, e in pairs:
        out = mat_mul(out, twist_matrix(c, e))
    return out


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_u, u = u, old_u - qt * u
        old_v, v = v, old_v - qt * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def _normalizer_to_infinity(x: Slope) -> Mat:
    """A determinant-1 matrix sending x to 1/0."""
    g, u, v = _egcd(x.p, x.q)
    assert g == 1
    return (u, v, -x.q, x.p)


# ---------------------------------------------------------------------------
# distance: one pass over the continued-fraction terms


def _tail_distances(num: int, den: int) -> tuple[list[int], list[int]]:
    """Partial quotients [a1, ..., am] of num/den = [a0; a1, ..., am] (den > 0)
    and ``dists``: dists[j] is the distance from 1/0 to any slope whose
    continued fraction ends in a_{j+1}, ..., am; past the end is 1/0 itself,
    so dists[m + 1] = 0.

    A Farey step from x moves to floor(x) or ceil(x) and inverts, landing on
    [a1; a2, ...] or on [1; a1 - 1, a2, ...].  Going on down the second
    branch walks a1 one unit at a time, which sums to a1 + min(dists[1],
    dists[2]), so one bottom-up pass over the terms gives every tail
    (geodesic continued fractions: Beardon, Hockman and Short, 2012).

    >>> _tail_distances(3, 5)
    ([1, 1, 2], [3, 2, 2, 1, 0])
    """
    quotients = []
    a, b = den, num % den
    while b:
        q, r = divmod(a, b)
        quotients.append(q)
        a, b = b, r
    dists = [0, 1]
    for q in reversed(quotients):
        dists.append(min(1 + dists[-1], q + min(dists[-1], dists[-2])))
    dists.reverse()
    return quotients, dists


def _from_infinity(x: Slope, y: Slope) -> tuple[Mat, int, int]:
    """A determinant-1 map v with v(x) = 1/0, and v(y) as num/den, den >= 0."""
    v = _normalizer_to_infinity(x)
    a, b, c, d = v
    num, den = a * y.p + b * y.q, c * y.p + d * y.q
    return (v, -num, -den) if den < 0 else (v, num, den)


def farey_distance(x: Slope, y: Slope) -> int:
    """Exact Farey-graph distance between two slopes: one Euclidean division
    per continued-fraction term, whatever the size of the terms.

    >>> farey_distance(INFINITY, Slope(0, 1))
    1
    >>> farey_distance(INFINITY, Slope(3, 5))
    3
    >>> farey_distance(INFINITY, Slope(2, 2 * 10**100 + 1))
    3
    """
    if x == y:
        return 0
    _, num, den = _from_infinity(x, y)
    return _tail_distances(num, den)[1][0]


def farey_geodesic(x: Slope, y: Slope) -> list[Slope]:
    """One geodesic from x to y: step to the floor or the ceil, whichever
    lands nearer, taking the floor on a tie.

    The current slope's continued fraction is quotients[j:] with c taken off
    its first term.  One step lands on quotients[j + 1:]; the other on
    [1; head - 1] + quotients[j + 1:], priced by the tail recurrence (a zero
    term merges its neighbours), so both read the table of _tail_distances.

    >>> farey_geodesic(INFINITY, Slope(3, 5))
    [Slope(1, 0), Slope(0, 1), Slope(1, 2), Slope(3, 5)]
    """
    if x == y:
        return [x]
    v, num, den = _from_infinity(x, y)
    quotients, dists = _tail_distances(num, den)
    path = [x]
    acc = mat_inv(v)
    cur_n, cur_d = num, den
    j = c = 0
    positive = True  # the floor step lands on quotients[j + 1:]
    while cur_d != 1:
        rem = cur_n % cur_d
        head = quotients[j] - c
        regular = dists[j + 1]
        other = min(1 + regular, head - 1 + min(regular, dists[j + 2]))
        take_floor = regular <= other if positive else other <= regular
        if take_floor == positive:
            j, c = j + 1, 0
        elif head > 1:
            c += 1
        else:
            j, c = j + 2, 0
        positive = take_floor
        acc = mat_mul(acc, ((cur_n - rem) // cur_d + (not take_floor), 1, 1, 0))
        path.append(mat_apply(acc, INFINITY))
        cur_n, cur_d = (cur_d, rem) if take_floor else (-cur_d, cur_d - rem)
    acc = mat_mul(acc, (cur_n, 1, 1, 0))
    path.append(mat_apply(acc, INFINITY))
    assert path[-1] == y
    return path


# ---------------------------------------------------------------------------
# distance: breadth-first oracle within a magnitude budget


def _neighbors(s: Slope, budget: int) -> list[Slope]:
    """All Farey neighbors of s with magnitude <= budget.

    Solutions of p*y - q*x = 1 form the line (x0 + t p, y0 + t q); the -1
    family is its pointwise negation, which canonicalizes to the same
    slopes.
    """
    p, q = s.p, s.q
    _, u, v = _egcd(p, q)
    x0, y0 = -v, u
    ts: list[tuple[Fraction, Fraction]] = []
    for coord, base in ((p, x0), (q, y0)):
        if coord != 0:
            lo = Fraction(-budget - base, coord)
            hi = Fraction(budget - base, coord)
            ts.append((min(lo, hi), max(lo, hi)))
        elif abs(base) > budget:
            return []
    t_lo = max(lo for lo, _ in ts)
    t_hi = min(hi for _, hi in ts)
    out = []
    t = -(-t_lo.numerator // t_lo.denominator)  # ceil
    while t <= t_hi:
        cand = Slope(x0 + t * p, y0 + t * q)
        if cand.magnitude <= budget:
            out.append(cand)
        t += 1
    return out


def farey_distance_bfs(x: Slope, y: Slope, budget: int) -> int:
    """Distance certified by bidirectional search inside the budget subgraph.

    The result is the exact distance of the subgraph of slopes with
    magnitude <= budget, hence an upper bound for the Farey distance that
    stabilizes once the budget is large enough to contain a geodesic.
    """
    if x == y:
        return 0
    if x.magnitude > budget or y.magnitude > budget:
        raise BudgetExhausted(f"endpoints exceed magnitude budget {budget}")
    side_a: dict[Slope, int] = {x: 0}
    side_b: dict[Slope, int] = {y: 0}
    frontier_a, frontier_b = [x], [y]
    depth_a = depth_b = 0
    best: int | None = None
    while frontier_a or frontier_b:
        if best is not None and best <= depth_a + depth_b + 1:
            return best
        if frontier_a and (not frontier_b or len(frontier_a) <= len(frontier_b)):
            frontier, seen, other, depth = frontier_a, side_a, side_b, depth_a
            depth_a += 1
        else:
            frontier, seen, other, depth = frontier_b, side_b, side_a, depth_b
            depth_b += 1
        new: list[Slope] = []
        for node in frontier:
            for nb in _neighbors(node, budget):
                if nb in seen:
                    continue
                seen[nb] = depth + 1
                new.append(nb)
                if nb in other:
                    total = depth + 1 + other[nb]
                    if best is None or total < best:
                        best = total
        if frontier is frontier_a:
            frontier_a = new
        else:
            frontier_b = new
    if best is not None:
        return best
    raise BudgetExhausted(f"no path found within magnitude budget {budget}")


def slopes_within(budget: int) -> list[Slope]:
    """All canonical slopes with magnitude <= budget, in a stable order."""
    out = [INFINITY]
    for q in range(1, budget + 1):
        for p in range(-budget, budget + 1):
            if gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    return out


def bfs_distance_table(sources: Sequence[Slope], budget: int) -> dict[Slope, dict[Slope, int]]:
    """Single-source BFS distances from each source over the budget subgraph.

    Bulk companion to :func:`farey_distance_bfs` for exhaustive sweeps; the
    same subgraph, so the numbers agree wherever both are defined.
    """
    nodes = slopes_within(budget)
    adjacency = {s: _neighbors(s, budget) for s in nodes}
    table: dict[Slope, dict[Slope, int]] = {}
    for src in sources:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nb in adjacency[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    queue.append(nb)
        table[src] = dist
    return table


# ---------------------------------------------------------------------------
# annular projection model


def annular_distance(core: Slope, x: Slope, y: Slope) -> int:
    """Projection distance at the core: floor difference of the images + 2.

    Exact for the twist identity (twisting n times about the core moves the
    projection by |n| + 2); within a bounded additive constant of the true
    annular curve-graph distance otherwise.

    >>> annular_distance(INFINITY, Slope(1, 2), Slope(5, 2))
    4
    >>> annular_distance(INFINITY, Slope(1, 3), Slope(2, 3))
    2
    """
    if intersection(core, x) == 0 or intersection(core, y) == 0:
        raise CoreDisjoint(f"both curves must cross the core {core}")
    # any determinant-1 map sending the core to 1/0 will do: two such maps
    # differ by a translation x -> x + k, which keeps floor differences
    a, b, c, d = _normalizer_to_infinity(core)
    xv = Fraction(a * x.p + b * x.q, c * x.p + d * x.q)
    yv = Fraction(a * y.p + b * y.q, c * y.p + d * y.q)
    if xv == yv:
        return 0
    fx = xv.numerator // xv.denominator
    fy = yv.numerator // yv.denominator
    return abs(fx - fy) + 2


# ---------------------------------------------------------------------------
# end-to-end verification experiment


@dataclass(frozen=True)
class VerificationRow:
    power: int
    distance: int
    expected: int
    match: bool
    ratio: Fraction


@dataclass(frozen=True)
class VerificationReport:
    a: Slope
    b: Slope
    l: int
    n: int
    exponents: tuple[int, ...]
    base_point: Slope
    rows: tuple[VerificationRow, ...]

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.rows)


def verify_main_theorem(
    a: Slope,
    b: Slope,
    exponents: Sequence[int],
    m_max: int = 4,
    threshold: int | None = None,
) -> VerificationReport:
    """Measure d(v1, f^m v1) for f = T_a^{e1} T_b^{e2} ... and compare with
    the general-surface count 2mn(l-2), where l = d(a, b) and v1 is the
    geodesic vertex next to a.

    ``expected`` is that general-surface count, and the Farey graph never
    meets it for |e| >= 3: on the torus ``match`` is always False there and
    the distances come out 2mnl.  The count 2mn(l-2) needs the vertex after
    a on a geodesic to be disjoint from a, so that T_a fixes it; on the torus
    no curve is disjoint from a.  For a = 1/0 the neighbours of a are the
    integers k/1, consecutive ones adjacent, and every slope at distance
    >= 2 from a hangs under one edge (k, k+1), which T_a^e shifts by e.  A
    path from a slope to its image crosses the neighbours of a: along them
    it pays at least |e| - 1 edges, through a it pays 2.  So for |e| >= 3
    each twist region costs l edges rather than l - 2; at |e| = 2 it can
    cost one less.

    Small exponents are allowed (mismatches are data, not errors) unless an
    explicit threshold is supplied.
    """
    exps = tuple(int(e) for e in exponents)
    if len(exps) < 2 or len(exps) % 2 != 0 or any(e == 0 for e in exps):
        raise ConditionUnmet("need a nonzero exponent sequence of even length >= 2")
    if threshold is not None and any(abs(e) < threshold for e in exps):
        raise ConditionUnmet(f"all |exponents| must be >= threshold {threshold}")
    l = farey_distance(a, b)
    if l < 3:
        raise ConditionUnmet(f"slopes must fill: farey_distance(a, b) = {l} < 3")
    n = len(exps) // 2
    v1 = farey_geodesic(a, b)[1]
    f = word_matrix((a if i % 2 == 0 else b, e) for i, e in enumerate(exps))
    rows = []
    fm = MAT_ID
    for m in range(1, m_max + 1):
        fm = mat_mul(fm, f)
        d = farey_distance(v1, mat_apply(fm, v1))
        expected = 2 * m * n * (l - 2)
        rows.append(VerificationRow(m, d, expected, d == expected, Fraction(d, m)))
    return VerificationReport(a, b, l, n, exps, v1, tuple(rows))


def find_equality_threshold(
    a: Slope,
    b: Slope,
    signs: Sequence[int],
    m_max: int = 4,
    start: int = 201,
    cap: int = 2**15,
) -> tuple[int | None, VerificationReport]:
    """Smallest doubling-ladder threshold at which the distance equality holds.

    Tries exponents sign * t for t = start, 2*start, ... capped at ``cap``;
    returns (threshold, report) on success and (None, last_report) if the
    ladder is exhausted.  The equality is the general-surface count of
    :func:`verify_main_theorem`, which the Farey graph never meets for
    |e| >= 3, so on the torus with start >= 3 the ladder is exhausted.
    """
    ladder = [start]
    while ladder[-1] < cap:
        ladder.append(min(2 * ladder[-1], cap))
    report = None
    for t in ladder:
        report = verify_main_theorem(a, b, [s * t for s in signs], m_max)
        if report.all_match:
            return t, report
    assert report is not None
    return None, report


@dataclass(frozen=True)
class SampleResult:
    """One sampled instance of the distance-equality experiment."""

    a: Slope
    b: Slope
    l: int
    n: int
    signs: tuple[int, ...]
    base_report: VerificationReport
    achieved_threshold: int | None


def sample_main_equality(
    count: int,
    seed: int = 20260808,
    l_values: Sequence[int] = (3, 4),
    n_values: Sequence[int] = (1, 2, 3),
    m_max: int = 4,
    start: int = 201,
    cap: int = 2**15,
    pool_magnitude: int = 60,
) -> list[SampleResult]:
    """Sample filling slope pairs and run the equality experiment on each.

    Every instance first runs with random exponent magnitudes in
    [start, 2*start); if the predicted distances do not match, the doubling
    ladder looks for the smallest threshold that makes them match (None if
    the ladder tops out at ``cap`` without success).  The prediction is the
    general-surface count of :func:`verify_main_theorem`; the sample is
    always a torus sample, so with start >= 3 every base run misses it and
    ``achieved_threshold`` is None.  The ladder draws no random numbers, so
    ``cap`` changes the run time but not the sample; ``cap=start`` cuts the
    climb to a single rung.
    """
    import random

    rng = random.Random(seed)
    pools: dict[int, list[Slope]] = {l: [] for l in l_values}
    for s in slopes_within(pool_magnitude):
        d = farey_distance(INFINITY, s)
        if d in pools:
            pools[d].append(s)
    out: list[SampleResult] = []
    for _ in range(count):
        l = rng.choice(list(l_values))
        b = rng.choice(pools[l])
        n = rng.choice(list(n_values))
        signs = tuple(rng.choice((1, -1)) for _ in range(2 * n))
        exps = [s * rng.randrange(start, 2 * start) for s in signs]
        base = verify_main_theorem(INFINITY, b, exps, m_max)
        if base.all_match:
            achieved: int | None = start
        else:
            achieved, _ = find_equality_threshold(INFINITY, b, signs, m_max, start, cap)
        out.append(SampleResult(INFINITY, b, l, n, signs, base, achieved))
    return out


def export_curve_system(slopes: Iterable[Slope], M: int = 100) -> CurveSystem:
    """Bridge the torus backend into a validated CurveSystem.

    Distances come from farey_distance, intersections from the determinant
    formula, and projections from the annular model.  Distinct slopes always
    intersect on the torus, so no nontrivial multicurves are exported.
    """
    ordered = sorted(set(slopes), key=lambda s: (s.q != 0, Fraction(s.p, s.q) if s.q else 0))
    names = {s: str(s) for s in ordered}
    dist = []
    inter = []
    proj = []
    for i, x in enumerate(ordered):
        for y in ordered[i + 1 :]:
            dist.append((names[x], names[y], farey_distance(x, y)))
            inter.append((names[x], names[y], intersection(x, y)))
    for core in ordered:
        rest = [s for s in ordered if s != core]
        for i, x in enumerate(rest):
            for y in rest[i + 1 :]:
                proj.append((names[core], names[x], names[y], annular_distance(core, x, y)))
    return CurveSystem(
        [names[s] for s in ordered],
        multicurves={},
        dist=dist,
        proj=proj,
        inter=inter,
        M=M,
        surface=SurfaceKind(1, 0),
    )
