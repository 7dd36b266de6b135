"""Reference computations made apart from twistlab.

Nothing here imports the package under test.  The Farey-graph helpers are a
plain breadth-first search over slopes of bounded magnitude; the stretch
factor is recomputed in floating point of arbitrary precision (mpmath, which
ships with sympy) and the trace polynomial symbolically with sympy.  Slopes
are canonical ``(p, q)`` pairs: gcd 1, ``q > 0``, or ``(1, 0)`` for 1/0.
"""

from __future__ import annotations

from math import gcd

INFINITY = (1, 0)
BFS_BUDGET = 40  # slopes of magnitude <= 30 have a geodesic inside magnitude 40


def slope(p: int, q: int) -> tuple[int, int]:
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return (p, q)


def parse_slope(text: str) -> tuple[int, int]:
    p, _, q = text.partition("/")
    return slope(int(p), int(q or 1))


def slope_str(s: tuple[int, int]) -> str:
    return f"{s[0]}/{s[1]}"


def magnitude(s: tuple[int, int]) -> int:
    return max(abs(s[0]), s[1])


def adjacent(x: tuple[int, int], y: tuple[int, int]) -> bool:
    return abs(x[0] * y[1] - x[1] * y[0]) == 1


def sl2_apply(g: tuple[int, int, int, int], s: tuple[int, int]) -> tuple[int, int]:
    a, b, c, d = g
    return slope(a * s[0] + b * s[1], c * s[0] + d * s[1])


def _neighbours(s: tuple[int, int], budget: int) -> list[tuple[int, int]]:
    """Slopes r/t of magnitude <= budget with |p t - q r| = 1."""
    p, q = s
    if q == 0:
        return [(r, 1) for r in range(-budget, budget + 1)]
    out = []
    for t in range(budget + 1):
        for sign in (1, -1):
            num = p * t - sign  # q r = p t -+ 1
            if num % q == 0 and abs(num // q) <= budget:
                out.append(slope(num // q, t))
    return list(dict.fromkeys(out))


class FareyBFS:
    """Single-source breadth-first distances inside the magnitude budget."""

    def __init__(self, budget: int = BFS_BUDGET):
        self.budget = budget
        self._adj: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._tables: dict[tuple[int, int], dict[tuple[int, int], int]] = {}

    def _nb(self, s):
        if s not in self._adj:
            self._adj[s] = _neighbours(s, self.budget)
        return self._adj[s]

    def distances_from(self, x: tuple[int, int]) -> dict[tuple[int, int], int]:
        if x not in self._tables:
            dist = {x: 0}
            frontier = [x]
            while frontier:
                nxt = []
                for node in frontier:
                    for nb in self._nb(node):
                        if nb not in dist:
                            dist[nb] = dist[node] + 1
                            nxt.append(nb)
                frontier = nxt
            self._tables[x] = dist
        return self._tables[x]

    def distance(self, x, y) -> int:
        if magnitude(x) > self.budget or magnitude(y) > self.budget:
            raise ValueError(f"{x} or {y} is outside the search budget {self.budget}")
        return self.distances_from(x)[y]


# ---------------------------------------------------------------------------
# words


def parse_word(text: str) -> list[tuple[str, int]]:
    """``a^5 b^-7 a`` -> [("a", 5), ("b", -7), ("a", 1)], adjacent powers merged."""
    out: list[tuple[str, int]] = []
    for token in text.split():
        name, _, exp = token.partition("^")
        e = int(exp) if exp else 1
        if out and out[-1][0] == name:
            e += out.pop()[1]
        if e:
            out.append((name, e))
    return out


def word_str(pairs) -> str:
    return " ".join(c if e == 1 else f"{c}^{e}" for c, e in pairs)


# ---------------------------------------------------------------------------
# Thurston representation, independently


def perron_mu(matrix, dps: int):
    """Largest eigenvalue of N N^T, to ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        n = mpmath.matrix(matrix)
        gram = n * n.T
        return max(mpmath.eigsy(gram)[0])


def trace_polynomial(word_pairs) -> list[int]:
    """Trace of the image of an A/B word as integer coefficients in s,
    constant first, with T_A = [[1, s], [0, 1]] and T_B = [[1, 0], [-s, 1]]."""
    import sympy

    s = sympy.Symbol("s")
    m = sympy.eye(2)
    for letter, e in word_pairs:
        g = sympy.Matrix([[1, e * s], [0, 1]]) if letter == "A" else sympy.Matrix([[1, 0], [-e * s, 1]])
        m = m * g
    coeffs = sympy.Poly(sympy.expand(m.trace()), s).all_coeffs()[::-1]
    out = [int(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def stretch_values(trace_coeffs, mu, dps: int):
    """(trace, lambda, log lambda) at s = sqrt(mu), to ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        s = mpmath.sqrt(mu)
        t = mpmath.fsum(c * s**i for i, c in enumerate(trace_coeffs))
        if abs(t) <= 2:
            return t, None, None
        lam = (abs(t) + mpmath.sqrt(t * t - 4)) / 2
        return t, lam, mpmath.log(lam)


def trace_is_two(matrix, trace_coeffs, mu, dps: int) -> bool:
    """Whether |trace| = 2 exactly at s = sqrt(mu): mu is then a common root
    of the characteristic polynomial of N N^T and of trace(mu) -+ 2."""
    import mpmath
    import sympy

    x = sympy.Symbol("x")
    n = sympy.Matrix(matrix)
    char = (n * n.T).charpoly(x)
    t_mu = sympy.Poly(sum(c * x**i for i, c in enumerate(trace_coeffs[0::2])), x)
    for c in (2, -2):
        g = sympy.gcd(char, t_mu - c)
        if g.degree() >= 1:
            with mpmath.workdps(dps):
                if abs(mpmath.polyval([int(a) for a in g.all_coeffs()], mu)) < mpmath.mpf(10) ** (-dps // 2):
                    return True
    return False


def integer_trace(word_pairs, s: int) -> int:
    """Trace of the image evaluated at an integer s, in exact integers."""
    a, b, c, d = 1, 0, 0, 1
    for letter, e in word_pairs:
        g = (1, e * s, 0, 1) if letter == "A" else (1, 0, -e * s, 1)
        a, b, c, d = (
            a * g[0] + b * g[2],
            a * g[1] + b * g[3],
            c * g[0] + d * g[2],
            c * g[1] + d * g[3],
        )
    return a + d
