"""Exact two-generator representation of twist words on filling multicurves.

The two multicurve twists map to the unipotent matrices

    T_A -> [[1, s], [0, 1]]      T_B -> [[1, 0], [-s, 1]]

where s stands for the square root of the largest eigenvalue mu of N N^T
and N is the intersection matrix of the two families.  Word images are
computed with entries kept as integer polynomials in the formal symbol s
(no reduction by the minimal polynomial), so every evaluation question is
settled exactly: mu is an isolated algebraic root, traces of word images
are even polynomials in s and hence integer polynomials in mu, and the
hyperbolicity comparison |trace| vs 2 is decided by polynomial arithmetic,
never by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DegenerateMatrix, NotHyperbolic, UnknownCurve, WrongAlphabet
from .exact import (
    AlgebraicReal,
    Interval,
    Poly,
    char_poly,
    iv_abs,
    iv_mul,
    log_enclosure,
    p_add,
    p_eval,
    p_eval_interval,
    p_mul,
    p_strip,
    p_sub,
    rightmost_real_root,
    sqrt_enclosure,
)
from .words import TwistWord, normalize


@dataclass(frozen=True)
class IntersectionMatrix:
    """Nonnegative integer matrix N[i][j] = i(alpha_i, beta_j).

    A zero row or column would mean a curve missing the other family
    entirely, which is incompatible with the two families filling.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise DegenerateMatrix("intersection matrix must be nonempty")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise DegenerateMatrix("intersection matrix must be rectangular")
        if not all(isinstance(v, int) and not isinstance(v, bool) for r in self.rows for v in r):
            raise DegenerateMatrix("intersection numbers must be integers")
        if any(v < 0 for r in self.rows for v in r):
            raise DegenerateMatrix("intersection numbers are nonnegative")
        if any(all(v == 0 for v in r) for r in self.rows):
            raise DegenerateMatrix("all-zero row: a curve misses the other family")
        for j in range(width):
            if all(r[j] == 0 for r in self.rows):
                raise DegenerateMatrix("all-zero column: a curve misses the other family")

    @staticmethod
    def of(rows: Iterable[Iterable[int]]) -> "IntersectionMatrix":
        """The matrix of ``rows``.  Entries are taken as given, not converted:
        a float, string or boolean entry raises ``DegenerateMatrix``."""
        return IntersectionMatrix(tuple(tuple(r) for r in rows))

    def gram(self) -> list[list[int]]:
        """N N^T, the square matrix whose top eigenvalue drives the picture."""
        m = len(self.rows)
        return [
            [sum(a * b for a, b in zip(self.rows[i], self.rows[j])) for j in range(m)]
            for i in range(m)
        ]


@dataclass(frozen=True)
class RepMatrix:
    """2x2 matrix with integer-polynomial entries in the formal symbol s."""

    a: Poly
    b: Poly
    c: Poly
    d: Poly

    def __mul__(self, other: "RepMatrix") -> "RepMatrix":
        return RepMatrix(
            p_add(p_mul(self.a, other.a), p_mul(self.b, other.c)),
            p_add(p_mul(self.a, other.b), p_mul(self.b, other.d)),
            p_add(p_mul(self.c, other.a), p_mul(self.d, other.c)),
            p_add(p_mul(self.c, other.b), p_mul(self.d, other.d)),
        )

    def trace_poly(self) -> Poly:
        return p_add(self.a, self.d)

    def det_poly(self) -> Poly:
        return p_sub(p_mul(self.a, self.d), p_mul(self.b, self.c))

    def trace_in_mu(self) -> Poly:
        """The trace as a polynomial in mu = s^2.

        Word images alternate even diagonal / odd off-diagonal degrees, so
        the trace only has even powers of s.
        """
        t = self.trace_poly()
        assert all(c == 0 for i, c in enumerate(t) if i % 2 == 1), "trace must be even in s"
        return p_strip(t[0::2])

    def eval_at(self, s: Fraction) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(p_eval(entry, Fraction(s)) for entry in (self.a, self.b, self.c, self.d))


REP_IDENTITY = RepMatrix((1,), (), (), (1,))


def _gen_power(which: int, k: int) -> RepMatrix:
    """Image of T_A^k (which=0) or T_B^k (which=1); powers stay unipotent."""
    if which == 0:
        return RepMatrix((1,), (0, k), (), (1,))
    return RepMatrix((1,), (), (0, -k), (1,))


def perron_eigenvalue(N: IntersectionMatrix) -> AlgebraicReal:
    """Largest real eigenvalue of N N^T as an isolated algebraic number.

    N N^T is symmetric and nonnegative with positive diagonal, so its
    spectral radius is a real eigenvalue >= 1.
    """
    mu = rightmost_real_root(char_poly(N.gram()))
    assert mu.compare(Fraction(1)) >= 0
    return mu


def represent(word: TwistWord) -> RepMatrix:
    """Image of a word in the two multicurve twists A and B, entries exact in s.

    The image does not depend on the intersection matrix: s stays formal.
    """
    letters = {"A": 0, "B": 1}
    for s in word:
        if s.curve not in letters:
            raise WrongAlphabet(f"syllable {s} is not on the twist alphabet {{A, B}}")
    out = REP_IDENTITY
    for s in word:
        out = out * _gen_power(letters[s.curve], s.exponent)
    return out


HYPERBOLIC = "hyperbolic"
NOT_HYPERBOLIC = "not-hyperbolic"


def classify(rep: RepMatrix, mu: AlgebraicReal) -> str:
    """Hyperbolic iff |trace| > 2 at s = sqrt(mu), decided exactly."""
    t = rep.trace_in_mu()
    if mu.sign_of(p_sub(t, (2,))) > 0:
        return HYPERBOLIC
    if mu.sign_of(p_add(t, (2,))) < 0:
        return HYPERBOLIC
    return NOT_HYPERBOLIC


@dataclass(frozen=True)
class StretchEnclosure:
    """Certified rational enclosures for the stretch factor and its log."""

    lam_lo: Fraction
    lam_hi: Fraction
    log_lo: Fraction
    log_hi: Fraction
    small_lo: Fraction
    small_hi: Fraction

    @property
    def lam(self) -> Interval:
        return (self.lam_lo, self.lam_hi)

    @property
    def log(self) -> Interval:
        return (self.log_lo, self.log_hi)

    @property
    def small_eigenvalue(self) -> Interval:
        return (self.small_lo, self.small_hi)


def lambda_log_enclosure(trace: Interval, precision: Fraction) -> StretchEnclosure | None:
    """Enclose lambda = (t + sqrt(t^2 - 4)) / 2 and its log for t in ``trace``,
    an interval of |trace| values.

    Returns None while the interval does not yet exclude 2 or the lambda
    enclosure is wider than ``precision``; the logarithm enclosure adds at
    most ``precision`` of its own width.
    """
    if trace[0] <= 2:
        return None
    disc = iv_mul(trace, trace)
    if disc[0] == disc[1]:  # an exact trace: one square root gives both ends
        sq_lo, sq_hi = sqrt_enclosure(disc[0] - 4, precision / 8)
    else:
        sq_lo = sqrt_enclosure(disc[0] - 4, precision / 8)[0]
        sq_hi = sqrt_enclosure(disc[1] - 4, precision / 8)[1]
    lam = ((trace[0] + sq_lo) / 2, (trace[1] + sq_hi) / 2)
    if lam[1] - lam[0] > precision:
        return None
    small = ((trace[0] - sq_hi) / 2, (trace[1] - sq_lo) / 2)
    log_lo = log_enclosure(lam[0], precision / 2)[0]
    log_hi = log_enclosure(lam[1], precision / 2)[1]
    return StretchEnclosure(lam[0], lam[1], log_lo, log_hi, small[0], small[1])


def stretch_factor(
    rep: RepMatrix,
    mu: AlgebraicReal,
    precision: Fraction = Fraction(1, 10**9),
) -> StretchEnclosure:
    """Enclose the stretch factor of the word with image ``rep`` at s = sqrt(mu).

    The trace is evaluated on a refined interval for mu until the lambda
    enclosure is narrower than ``precision``.
    """
    precision = Fraction(precision)
    if classify(rep, mu) != HYPERBOLIC:
        raise NotHyperbolic("word image has |trace| <= 2, no stretch factor")
    t_poly = rep.trace_in_mu()
    width = Fraction(1, 4)
    while True:
        mu = mu.refined(width)
        enc = lambda_log_enclosure(iv_abs(p_eval_interval(t_poly, mu.lo, mu.hi)), precision)
        if enc is not None:
            return enc
        width /= 16


def is_penner_word(word: TwistWord, a_curves: Iterable[str], b_curves: Iterable[str]) -> bool:
    """Positive twists on every A-curve, negative on every B-curve, all used.

    Purely a shape check; the pseudo-Anosov conclusion additionally needs
    the two families to fill, which callers certify from the curve system.
    """
    a_set, b_set = set(a_curves), set(b_curves)
    seen: set[str] = set()
    for s in normalize(word):
        if s.curve in a_set:
            if s.exponent < 0:
                return False
        elif s.curve in b_set:
            if s.exponent > 0:
                return False
        else:
            raise UnknownCurve(f"curve {s.curve!r} is in neither twist family")
        seen.add(s.curve)
    return seen == a_set | b_set and bool(a_set) and bool(b_set)
