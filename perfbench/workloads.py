"""Seeded generators for the two benchmark workloads.

Each workload is one JSONL file for ``twistlab batch`` (plus, for
mixed-batch, the curve-system file its lines share).  ``deep`` holds the
lines of ``torus_deep`` and ``stretch_precise`` together.  The composition of a
file is fixed; the seed only draws the values inside each slot, so every
seed gives the same mix of line kinds and the same size classes.  There
are no user batch files in the repository, so the everyday traffic of
mixed-batch follows the README examples and the acceptance tests: M = 100,
ratio words use the unit 2M + 1 = 201, torus exponents lie in [201, 402).
"""

from __future__ import annotations

import json
import os
import random
import string

from reference import INFINITY, FareyBFS, magnitude, sl2_apply, slope, slope_str

WORKLOADS = ("mixed-batch", "deep")

M = 100
FAMILIES = 10
FAMILY_SIZE = 3


# ---------------------------------------------------------------------------
# the shared curve system of mixed-batch


def curve_system(rng: random.Random) -> dict:
    """30 curves in 10 disjoint families, tables that pass ``validate``.

    Curves in one family are disjoint (distance 1, intersection 0); curves
    of different families sit at a family distance in {3, 4, 5}, so every
    triangle inequality holds.  Projections are stored at each core for the
    pairs of curves of one other family.
    """
    names = string.ascii_uppercase[:FAMILIES]
    fam = {F: [f"{F.lower()}{i}" for i in range(1, FAMILY_SIZE + 1)] for F in names}
    owner = {c: F for F, cs in fam.items() for c in cs}
    curves = [c for F in names for c in fam[F]]
    fdist = {}
    for i, F in enumerate(names):
        for G in names[i + 1 :]:
            fdist[F, G] = fdist[G, F] = rng.choice((3, 4, 5))
    dist, inter, proj = [], [], []
    for i, x in enumerate(curves):
        for y in curves[i + 1 :]:
            same = owner[x] == owner[y]
            dist.append([x, y, 1 if same else fdist[owner[x], owner[y]]])
            inter.append([x, y, 0 if same else rng.randint(1, 4)])
    for core in curves:
        for F in names:
            if F == owner[core]:
                continue
            cs = fam[F]
            for i, x in enumerate(cs):
                for y in cs[i + 1 :]:
                    proj.append([core, x, y, rng.randint(0, 6)])
    return {
        "curves": curves,
        "multicurves": fam,
        "dist": dist,
        "inter": inter,
        "proj": proj,
        "M": M,
        "surface": {"genus": 3, "punctures": 0},
    }


def _signed(rng, lo, hi):
    return rng.choice((1, -1)) * rng.randrange(lo, hi)


def _two_curve_word(rng, x, y, n, lo, hi):
    return " ".join(f"{x if i % 2 == 0 else y}^{_signed(rng, lo, hi)}" for i in range(2 * n))


def _block_word(rng, cfg, A, B, k):
    """2k alternating blocks on families A, B; one block has >= 2 syllables,
    so no cycle of single curves matches and TwoMulti3.4 is the tightest."""
    fam = cfg["multicurves"]
    while True:
        blocks = []
        for j in range(2 * k):
            members = fam[A if j % 2 == 0 else B]
            size = rng.randint(1, len(members))
            blocks.append(rng.sample(members, size))
        if any(len(b) >= 2 for b in blocks):
            break
    syllables = []
    for b in blocks:
        for i, c in enumerate(b):
            e = rng.randrange(2 * M + 4, 1000) if i == 0 else rng.randrange(2 * M + 1, 1000)
            syllables.append(f"{c}^{rng.choice((1, -1)) * e}")
    return " ".join(syllables)


def _minword_word(rng, cfg, A, B, k):
    """2k blocks covering every curve of A and B, one fixed sign per curve."""
    fam = cfg["multicurves"]
    sign = {c: rng.choice((1, -1)) for c in fam[A] + fam[B]}
    syllables = []
    per_family = {}
    for F in (A, B):
        members = fam[F]
        chunks = [rng.sample(members, rng.randint(1, len(members))) for _ in range(k)]
        missing = [c for c in members if not any(c in ch for ch in chunks)]
        chunks[-1] += missing
        per_family[F] = chunks
    for j in range(k):
        for F in (A, B):
            for c in per_family[F][j]:
                syllables.append(f"{c}^{sign[c] * (2 * M + 4)}")
    return " ".join(syllables)


def _pool(bfs: FareyBFS, distances, max_magnitude):
    table = bfs.distances_from(INFINITY)
    return sorted(s for s, d in table.items() if d in distances and magnitude(s) <= max_magnitude)


def _small_sl2(rng) -> tuple[int, int, int, int]:
    """A product of a few elementary unimodular matrices."""
    g = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 3)):
        t = rng.choice((-2, -1, 1, 2))
        e = (1, t, 0, 1) if rng.random() < 0.5 else (1, 0, t, 1)
        g = (
            g[0] * e[0] + g[1] * e[2],
            g[0] * e[1] + g[1] * e[3],
            g[2] * e[0] + g[3] * e[2],
            g[2] * e[1] + g[3] * e[3],
        )
    return g


def _moved_pair(rng, x, y, max_magnitude=30):
    """(g x, g y) for a small unimodular g keeping both inside the magnitude."""
    while True:
        g = _small_sl2(rng)
        gx, gy = sl2_apply(g, x), sl2_apply(g, y)
        if magnitude(gx) <= max_magnitude and magnitude(gy) <= max_magnitude:
            return gx, gy


def mixed_batch(rng: random.Random, config_path: str, bfs: FareyBFS):
    cfg = curve_system(rng)
    fams = list(cfg["multicurves"])
    lines = []

    def two_families():
        return rng.sample(fams, 2)

    def two_curves():
        A, B = two_families()
        return rng.choice(cfg["multicurves"][A]), rng.choice(cfg["multicurves"][B])

    for i in range(20):
        x, y = two_curves()
        word = _two_curve_word(rng, x, y, 1 + i % 3, 2 * M + 1, 1000)
        lines.append({"mode": "analyze", "config": config_path, "word": word})
    for i in range(12):
        A, B = two_families()
        lines.append({"mode": "analyze", "config": config_path, "word": _block_word(rng, cfg, A, B, 1 + i % 3)})
    for i in range(8):
        A, B = two_families()
        word = _minword_word(rng, cfg, A, B, 1 + i % 2)
        lines.append({"mode": "minword", "config": config_path, "word": word, "A": A, "B": B})
    for i in range(8):
        x, y = two_curves()
        word = " ".join(f"{x if j % 2 == 0 else y}^{rng.choice((1, -1)) * (2 * M + 1)}" for j in range(2 * (1 + i % 3)))
        lines.append({"mode": "ratio", "config": config_path, "word": word})
    for i in range(8):
        size = 1 + i % 2
        matrix = [[rng.randint(1, 3) for _ in range(size)] for _ in range(size)]
        syl = rng.randint(2, 4)
        word = " ".join(f"{'AB'[j % 2]}^{_signed(rng, 1, 5)}" for j in range(syl))
        lines.append({"mode": "thurston", "matrix": matrix, "word": word})
    for _ in range(12):
        x, y = [slope(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(2)]
        lines.append({"mode": "farey_dist", "x": slope_str(x), "y": slope_str(y)})
    pool = _pool(bfs, (3, 4), 30)
    for i in range(8):
        word = _two_curve_word(rng, "a", "b", 1 + i % 3, 2 * M + 1, 4 * M + 2)
        lines.append({"mode": "farey_verify", "a": "1/0", "b": slope_str(rng.choice(pool)), "word": word, "mmax": 4})
    return cfg, lines


# exponent magnitudes of the torus lines of deep: 10^3 .. 10^3.6 in steps of 10^0.1
TORUS_LADDER = (1000, 1259, 1585, 1995, 2512, 3162, 3981)
# k of the deep distances: 10^4 .. 10^5 in steps of 10^(1/3), the top one
# just below 10^5
DEEP_LADDER = (10_000, 21_544, 46_416, 98_500)


def _near(rng, value, permille):
    """An integer within ``permille`` thousandths of ``value``."""
    return rng.randint(value * (1000 - permille) // 1000, value * (1000 + permille) // 1000)


def torus_deep(rng: random.Random, bfs: FareyBFS):
    """Six verifies (every pair of n = 1, 2, 3 and l = 3, 4) and four deep
    distances.

    The time of a verify follows the size of its exponents, and the time of
    a deep distance follows k, so both are pinned: each exponent slot takes
    a fixed magnitude from TORUS_LADDER moved by at most 2%, and each k one
    step of DEEP_LADDER moved by at most 1.5%.  The seed draws the slopes,
    the signs and the values inside those margins.  The deep pairs are the
    only ``farey_dist`` lines with a slope beyond the breadth-first budget,
    which is how the checker knows their distance.
    """
    lines = []
    pools = {l: _pool(bfs, (l,), 12) for l in (3, 4)}
    slot = 0
    for i in range(6):
        n = 1 + i % 3
        a, b = _moved_pair(rng, INFINITY, rng.choice(pools[3 + i % 2]))
        exps = []
        for _ in range(2 * n):
            exps.append(rng.choice((1, -1)) * _near(rng, TORUS_LADDER[slot % len(TORUS_LADDER)], 20))
            slot += 1
        word = " ".join(f"{'ab'[j % 2]}^{e}" for j, e in enumerate(exps))
        lines.append({"mode": "farey_verify", "a": slope_str(a), "b": slope_str(b), "word": word, "mmax": 4})
    # d(1/0, 2/(2k+1)) = 3 through 0/1, 1/k; one quotient of size k.
    for step in DEEP_LADDER:
        k = _near(rng, step, 15)
        x, y = _moved_pair(rng, INFINITY, slope(2, 2 * k + 1), max_magnitude=10 * 2 * 100_000)
        lines.append({"mode": "farey_dist", "x": slope_str(x), "y": slope_str(y)})
    return None, lines


# (digits, N, word): precisions 1e-40 .. 1e-100, N of size 1x1 .. 3x3, Penner
# words (A positive, B negative, so every line is hyperbolic) of 2 .. 6
# syllables, longer words at lower precision.  They take about 1.6 s of a
# deep round, the torus lines about 1.7 s.
STRETCH_PROBLEMS = (
    (100, [[1]], "A^3 B^-1"),
    (80, [[2]], "A^2 B^-2"),
    (80, [[2, 1, 2], [1, 1, 2], [1, 2, 1]], "A^1 B^-2"),
    (60, [[2, 2], [2, 2]], "A^2 B^-1 A^1 B^-2"),
    (60, [[2, 1, 2], [1, 1, 2], [1, 2, 2]], "A^2 B^-1 A^2 B^-1"),
    (40, [[1]], "A^2 B^-2 A^2 B^-1 A^1 B^-1"),
    (40, [[2, 1], [1, 1]], "A^2 B^-2 A^2 B^-2 A^1 B^-1"),
)


def stretch_precise(rng: random.Random):
    """A fixed set of problems in a seeded presentation.

    The cost of one stretch factor at 1e-100 swings by more than ten times
    with the digits of lambda (measured 0.5 s to 18 s for one shape), so
    problems drawn per seed would make the figures depend on the seed.  The
    seed rotates each word cyclically and permutes the rows and columns of
    N.  Both leave the trace polynomial, mu and lambda unchanged, so every
    seed does the same work.
    """
    lines = []
    for digits, matrix, word in STRETCH_PROBLEMS:
        syllables = word.split()
        turn = rng.randrange(len(syllables))
        size = len(matrix)
        rows, cols = rng.sample(range(size), size), rng.sample(range(size), size)
        lines.append(
            {
                "mode": "thurston",
                "matrix": [[matrix[r][c] for c in cols] for r in rows],
                "word": " ".join(syllables[turn:] + syllables[:turn]),
                "precision": f"1e-{digits}",
            }
        )
    return None, lines


def generate(workload: str, seed: int, outdir: str, bfs: FareyBFS) -> dict:
    """Write the workload's files into ``outdir``; returns their paths."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "batch": os.path.join(outdir, "batch.jsonl"),
        "config": os.path.join(outdir, "config.json"),
    }
    if workload == "mixed-batch":
        cfg, lines = mixed_batch(rng, paths["config"], bfs)
    else:
        cfg, torus = torus_deep(rng, bfs)
        _, stretch = stretch_precise(rng)
        lines = torus + stretch
    if cfg is not None:
        with open(paths["config"], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    # Mix the kinds of line with a permutation that does not depend on the
    # seed: which line comes first (its time is not counted) and what ran
    # before the largest line (the peak memory) stay the same for every seed.
    order = list(range(len(lines)))
    random.Random(f"{workload} order").shuffle(order)
    with open(paths["batch"], "w", encoding="utf-8") as fh:
        for i in order:
            fh.write(json.dumps(lines[i]) + "\n")
    return paths
