"""End-to-end acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Everything is seeded and deterministic.
"""

import math
import random
from fractions import Fraction

from twistlab.applications import ratio_report, trace_bound, unit_alternating_trace
from twistlab.bounds import (
    best_bound,
    bounds_curve_cycle,
    bounds_two_multicurve,
    exact_two_filling,
)
from twistlab.config import CurveSystem
from twistlab.farey import (
    INFINITY,
    Slope,
    annular_distance,
    bfs_distance_table,
    farey_distance,
    farey_distance_bfs,
    intersection,
    mat_apply,
    sample_main_equality,
    slopes_within,
    twist_matrix,
    verify_main_theorem,
    word_matrix,
)
from twistlab.thurston import IntersectionMatrix, perron_eigenvalue, represent, stretch_factor
from twistlab.words import parse_word, word

SEED = 20260808


def _line(number: int, name: str, ok: bool, detail: str) -> None:
    import conftest

    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def test_acceptance_1_torus_distance_equality():
    """>= 25 sampled instances must reach d(v1, f^m v1) = 2mnl for all m <= 4
    at some doubling-ladder threshold <= 2^15, thresholds logged, and no
    measured row may equal the general-surface count 2mn(l-2).

    The torus is sporadic, and the Farey graph realises 2mnl where a
    non-sporadic surface realises 2mn(l-2); ``verify_main_theorem`` gives the
    argument.
    """
    m_max, start, cap = 4, 201, 2**15
    # cap=start: the sampler's own ladder chases 2mn(l-2), which the Farey
    # graph never meets; the ladder draws no random numbers, so the sample
    # is the same as with the full ladder.
    samples = sample_main_equality(
        25, seed=SEED, l_values=(3, 4), n_values=(1, 2, 3), m_max=m_max, start=start, cap=start
    )
    ladder = [start]
    while ladder[-1] < cap:
        ladder.append(min(2 * ladder[-1], cap))

    def meets_torus_count(rep):
        return all(row.distance == 2 * row.power * rep.n * rep.l for row in rep.rows)

    thresholds: list[int | None] = []
    general_hits = 0
    for s in samples:
        reports = [s.base_report]
        threshold = start if meets_torus_count(s.base_report) else None
        if threshold is None:
            for t in ladder:
                reports.append(verify_main_theorem(s.a, s.b, [sign * t for sign in s.signs], m_max))
                if meets_torus_count(reports[-1]):
                    threshold = t
                    break
        thresholds.append(threshold)
        general_hits += sum(
            1
            for rep in reports
            for row in rep.rows
            if row.distance == 2 * row.power * rep.n * (rep.l - 2)
        )
    matched = sum(1 for t in thresholds if t is not None)
    ok = matched == len(samples) and general_hits == 0
    detail = (
        f"{matched}/{len(samples)} instances reached the 2mnl count; "
        f"thresholds: {thresholds}; rows meeting 2mn(l-2): {general_hits}"
    )
    _line(1, "torus distance equality 2mnl", ok, detail)
    assert matched == len(samples), f"per-instance thresholds: {thresholds}"
    assert general_hits == 0, "a torus row met the general-surface count 2mn(l-2)"


def test_acceptance_2_twist_identity():
    """annular_distance(c, x, T_c^n x) = |n| + 2 for 100 random crossing pairs
    and every nonzero |n| <= 100; n = 0 gives 0. Zero tolerance."""
    rng = random.Random(SEED)
    pairs = []
    while len(pairs) < 100:
        c = Slope(rng.randint(-30, 30), rng.randint(0, 30) or 1)
        x = Slope(rng.randint(-30, 30), rng.randint(0, 30) or 1)
        if intersection(c, x) > 0:
            pairs.append((c, x))
    violations = 0
    for c, x in pairs:
        assert annular_distance(c, x, x) == 0
        for n in range(-100, 101):
            if n == 0:
                continue
            moved = mat_apply(twist_matrix(c, n), x)
            if annular_distance(c, x, moved) != abs(n) + 2:
                violations += 1
    ok = violations == 0
    _line(2, "annular twist identity |n| + 2", ok, f"{len(pairs)} pairs x 200 powers, {violations} violations")
    assert ok


def test_acceptance_3_distance_oracle_equivalence():
    """Continued-fraction distance == breadth-first distance on every slope
    pair with max(|p|, q) <= 30.  The exhaustive sweep uses the bulk BFS
    table over the budget subgraph; the bidirectional certified oracle is
    additionally run on several thousand of the pairs. Zero tolerance."""
    grid = slopes_within(30)
    table = bfs_distance_table(grid, budget=40)
    mismatches = 0
    checked = 0
    for i, x in enumerate(grid):
        row = table[x]
        for y in grid[i + 1 :]:
            checked += 1
            if row.get(y) != farey_distance(x, y):
                mismatches += 1
    rng = random.Random(SEED)
    sampled = 0
    for _ in range(4000):
        x, y = rng.choice(grid), rng.choice(grid)
        sampled += 1
        if farey_distance_bfs(x, y, budget=40) != farey_distance(x, y):
            mismatches += 1
    ok = mismatches == 0
    _line(
        3,
        "distance oracle equivalence",
        ok,
        f"{checked} grid pairs swept + {sampled} pairs through the certified oracle, "
        f"{mismatches} mismatches",
    )
    assert ok


def test_acceptance_4_representation_cross_check():
    """At mu = 1 the evaluated representation must equal the integer matrix
    product entrywise for 100 random words, and the stretch factor must match
    the float dominant eigenvalue within 1e-9; the golden value for the
    standard two-twist word is reproduced."""
    n_one = IntersectionMatrix.of([[1]])
    slopes = {"A": INFINITY, "B": Slope(0, 1)}
    rng = random.Random(SEED)
    hyperbolic_checked = 0
    words_checked = 0
    worst = 0.0
    while hyperbolic_checked < 100:
        items = [
            (rng.choice(["A", "B"]), rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(1, 6))
        ]
        w = word(items)
        rep = represent(w)
        evaluated = rep.eval_at(Fraction(1))
        integer = word_matrix((slopes[c], e) for c, e in w.pairs())
        assert tuple(int(v) for v in evaluated) == integer
        words_checked += 1
        trace = integer[0] + integer[3]
        if abs(trace) <= 2:
            continue
        enc = stretch_factor(rep, perron_eigenvalue(n_one), Fraction(1, 10**12))
        float_lambda = (abs(trace) + math.sqrt(trace * trace - 4)) / 2
        mid = float((enc.lam_lo + enc.lam_hi) / 2)
        worst = max(worst, abs(mid - float_lambda))
        assert abs(mid - float_lambda) <= 1e-9
        hyperbolic_checked += 1
    golden = stretch_factor(represent(parse_word("A B^-1")), perron_eigenvalue(n_one), Fraction(1, 10**12))
    golden_mid = float((golden.lam_lo + golden.lam_hi) / 2)
    golden_err = abs(golden_mid - (3 + math.sqrt(5)) / 2)
    ok = golden_err <= 1e-9
    _line(
        4,
        "representation and stretch cross-check at mu = 1",
        ok,
        f"{words_checked} words entrywise-equal, {hyperbolic_checked} stretch factors "
        f"within 1e-9 (worst {worst:.2e}), golden value error {golden_err:.2e}",
    )
    assert ok


def test_acceptance_5_trace_bound():
    """Trace of 200 random alternating unit-power words stays below (2t)^(2n)
    for every t in 2..10, compared exactly. Zero violations."""
    rng = random.Random(SEED)
    violations = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        signs = [rng.choice([1, -1]) for _ in range(2 * n)]
        for t in range(2, 11):
            if unit_alternating_trace(signs, t) > trace_bound(n, t):
                violations += 1
    ok = violations == 0
    _line(5, "alternating trace bound (2t)^(2n)", ok, f"200 words x 9 values of t, {violations} violations")
    assert ok


def test_acceptance_6_ratio_consistency():
    """tau.upper <= log(2t)/(l-2) + 1e-6 for sampled optimizer-shaped words."""
    rng = random.Random(SEED)
    slack = Fraction(1, 10**6)
    checked = 0
    for l in (3, 4, 5):
        for i_ab in (1, 2, 3):
            for n in (1, 2):
                sys_ = CurveSystem(
                    ["a", "b"], dist=[("a", "b", l)], inter=[("a", "b", i_ab)]
                )
                unit = 2 * sys_.M + 1
                items = [
                    ("a" if j % 2 == 0 else "b", rng.choice([1, -1]) * unit)
                    for j in range(2 * n)
                ]
                rr = ratio_report(word(items), sys_, IntersectionMatrix.of([[i_ab]]))
                assert rr.tau[1] <= rr.optimizer_upper[1] + slack
                checked += 1
    _line(6, "ratio bound tau <= log(2t)/(l-2)", True, f"{checked} optimizer words within tolerance")


def test_acceptance_7_bounds_coherence():
    """On 100 random configurations every result keeps lower <= upper, exact
    implies lower = exact = upper, and the exact two-curve value equals the
    two-multicurve lower bound under the singleton reinterpretation."""
    rng = random.Random(SEED)
    problems = 0
    for _ in range(100):
        l = rng.randint(3, 6)
        n = rng.randint(1, 3)
        sys_ = CurveSystem(
            ["a", "b"],
            multicurves={"A": ["a"], "B": ["b"]},
            dist=[("a", "b", l)],
            inter=[("a", "b", rng.randint(1, 5))],
        )
        w = word(
            [
                ("a" if j % 2 == 0 else "b", rng.choice([1, -1]) * rng.randint(204, 999))
                for j in range(2 * n)
            ]
        )
        exact = exact_two_filling(w, sys_)
        multi = bounds_two_multicurve(w, sys_, "A", "B")
        cycle = bounds_curve_cycle(w, sys_) if n == 1 else None
        best = best_bound(w, sys_)
        for res in (exact, multi, cycle, best):
            if res is None:
                continue
            if res.upper is not None and res.lower > res.upper:
                problems += 1
            if res.exact is not None and not (res.lower == res.exact == res.upper):
                problems += 1
        if not (exact.verified and multi.verified):
            problems += 1
        if exact.exact != multi.lower:
            problems += 1
        if not (multi.lower <= exact.exact <= multi.upper):
            problems += 1
    ok = problems == 0
    _line(7, "bounds-engine coherence", ok, f"100 random configurations, {problems} violations")
    assert ok


def test_acceptance_8_raag_thresholds():
    """With M = 100: required power 204 in two-multicurve mode and
    2M + 3 + maxproj in free-curve mode, over 20 random projection tables."""
    from twistlab.applications import raag_threshold

    rng = random.Random(SEED)
    failures = 0
    for _ in range(20):
        # free-curve mode: pairwise-filling curves with a random projection table
        names = ["c1", "c2", "c3", "c4"]
        dist = [(x, y, rng.randint(3, 6)) for i, x in enumerate(names) for y in names[i + 1 :]]
        inter = [(x, y, rng.randint(1, 9)) for i, x in enumerate(names) for y in names[i + 1 :]]
        proj = []
        maxproj = 0
        for core in names:
            others = [c for c in names if c != core]
            for i, x in enumerate(others):
                for y in others[i + 1 :]:
                    v = rng.randint(0, 12)
                    maxproj = max(maxproj, v)
                    proj.append((core, x, y, v))
        free_sys = CurveSystem(names, dist=dist, inter=inter, proj=proj)
        if raag_threshold(free_sys, "free_curves", names).required_power != 2 * 100 + 3 + maxproj:
            failures += 1
        # two-multicurve mode: disjoint families, all cross distances >= 3
        two_sys = CurveSystem(
            ["a1", "a2", "b1", "b2"],
            multicurves={"A": ["a1", "a2"], "B": ["b1", "b2"]},
            dist=[
                (a, b, rng.randint(3, 6))
                for a in ("a1", "a2")
                for b in ("b1", "b2")
            ],
            inter=[("a1", "a2", 0), ("b1", "b2", 0)],
        )
        if raag_threshold(two_sys, "two_multicurves", ("A", "B")).required_power != 204:
            failures += 1
    ok = failures == 0
    _line(8, "twist power thresholds", ok, f"20 random projection tables, {failures} failures")
    assert ok
