"""Exact real arithmetic for the representation engine.

Integer polynomials are tuples of coefficients, constant term first.  All
root isolation and sign decisions go through Sturm sequences over
``fractions.Fraction``; enclosures are pairs of rationals.  Nothing in this
module touches floating point, so every comparison it reports is exact and
every interval it returns is a true enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

Poly = tuple[int, ...]
Interval = tuple[Fraction, Fraction]


# ---------------------------------------------------------------------------
# integer / rational polynomial helpers


def p_strip(coeffs) -> tuple:
    """Drop trailing zero coefficients; the zero polynomial becomes ()."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def p_degree(p) -> int:
    return len(p) - 1


def p_add(p, q):
    n = max(len(p), len(q))
    return p_strip((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def p_neg(p):
    return tuple(-c for c in p)


def p_sub(p, q):
    return p_add(p, p_neg(q))


def p_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return p_strip(out)


def p_eval(p, x):
    """Evaluate by Horner's rule; exact for int or Fraction arguments."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def p_derivative(p):
    return p_strip(i * c for i, c in enumerate(p) if i >= 1)


def p_primitive(p) -> Poly:
    """Divide out the integer content, keeping the sign of the lead."""
    p = p_strip(p)
    if not p:
        return ()
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return tuple(c // g for c in p)


def _frac_poly(p):
    return tuple(Fraction(c) for c in p)


def _frac_divmod(f, g):
    """Long division of Fraction polynomials: f = q*g + r with deg r < deg g."""
    f = list(f)
    g = p_strip(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 1)
    lead = g[-1]
    while len(p_strip(f)) >= len(g):
        f = list(p_strip(f))
        shift = len(f) - len(g)
        coef = f[-1] / lead
        q[shift] = coef
        for i, b in enumerate(g):
            f[shift + i] -= coef * b
    return p_strip(q), p_strip(f)


def _int_from_frac(p) -> Poly:
    """Clear denominators and take the primitive part, preserving sign."""
    p = p_strip(p)
    if not p:
        return ()
    denom = 1
    for c in p:
        frac = Fraction(c)
        denom = denom * frac.denominator // gcd(denom, frac.denominator)
    return p_primitive(tuple(int(Fraction(c) * denom) for c in p))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Primitive integer gcd with positive leading coefficient."""
    a, b = _frac_poly(p_strip(p)), _frac_poly(p_strip(q))
    while b:
        _, r = _frac_divmod(a, b)
        a, b = b, r
    g = _int_from_frac(a)
    if g and g[-1] < 0:
        g = p_neg(g)
    return g


def squarefree_part(p: Poly) -> Poly:
    """p with repeated roots collapsed to simple ones (primitive, lead > 0)."""
    p = p_strip(p)
    if p_degree(p) < 1:
        return p
    g = poly_gcd(p, p_derivative(p))
    if p_degree(g) == 0:
        out = p_primitive(p)
    else:
        q, r = _frac_divmod(_frac_poly(p), _frac_poly(g))
        assert not r, "gcd must divide exactly"
        out = _int_from_frac(q)
    if out[-1] < 0:
        out = p_neg(out)
    return out


# ---------------------------------------------------------------------------
# Sturm sequences and root isolation


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence of a square-free integer polynomial."""
    p = p_strip(p)
    chain = [p, p_derivative(p)]
    while chain[-1]:
        f, g = _frac_poly(chain[-2]), _frac_poly(chain[-1])
        _, r = _frac_divmod(f, g)
        if not r:
            break
        chain.append(_int_from_frac(p_neg(r)))
    return [c for c in chain if c]


def sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = p_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b]; endpoints must not be roots."""
    assert a < b
    assert p_eval(chain[0], a) != 0 and p_eval(chain[0], b) != 0
    return sign_variations(chain, a) - sign_variations(chain, b)


def cauchy_bound(p: Poly) -> Fraction:
    """Strict bound B with every real root of p inside (-B, B)."""
    p = p_strip(p)
    lead = abs(p[-1])
    top = max((abs(c) for c in p[:-1]), default=0)
    bound = 1 + Fraction(top, lead)
    while p_eval(p, bound) == 0 or p_eval(p, -bound) == 0:
        bound += 1
    return bound


def _nonroot_point(p: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    """A point strictly inside (lo, hi) that is not a root of p."""
    mid = (lo + hi) / 2
    if p_eval(p, mid) != 0:
        return mid
    step = (hi - mid) / 2
    while True:
        for cand in (mid + step, mid - step):
            if lo < cand < hi and p_eval(p, cand) != 0:
                return cand
        step /= 2


@dataclass(frozen=True)
class AlgebraicReal:
    """A real algebraic number: square-free integer polynomial plus an
    isolating open interval containing exactly one of its roots.

    The endpoints are never roots, so the polynomial changes sign across the
    interval and plain bisection refines it.  Instances are immutable;
    refinement returns a new value.
    """

    poly: Poly
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        assert self.lo < self.hi
        assert p_eval(self.poly, self.lo) * p_eval(self.poly, self.hi) < 0

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def interval(self) -> Interval:
        return (self.lo, self.hi)

    def refined(self, max_width: Fraction) -> "AlgebraicReal":
        lo, hi = self.lo, self.hi
        sign_lo = 1 if p_eval(self.poly, lo) > 0 else -1
        while hi - lo > max_width:
            mid = (lo + hi) / 2
            v = p_eval(self.poly, mid)
            if v == 0:
                # mid is the root itself: shrink symmetrically around it
                w = hi - lo
                lo, hi = mid - w / 8, mid + w / 8
                continue
            if (1 if v > 0 else -1) == sign_lo:
                lo = mid
            else:
                hi = mid
        return AlgebraicReal(self.poly, lo, hi)

    def sign_of(self, value_poly: Poly) -> int:
        """Exact sign of value_poly evaluated at this number."""
        q = p_strip(value_poly)
        if not q:
            return 0
        # zero test: the value vanishes iff this root is shared with q
        g = poly_gcd(self.poly, q)
        if p_degree(g) >= 1 and count_roots(sturm_chain(g), self.lo, self.hi) >= 1:
            return 0
        cur = self
        while True:
            lo, hi = p_eval_interval(q, cur.lo, cur.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            cur = cur.refined(cur.width / 2)

    def compare(self, r: Fraction) -> int:
        """Exact sign of (self - r)."""
        r = Fraction(r)
        return self.sign_of((-r.numerator, r.denominator))

    def __float__(self) -> float:
        mid = self.refined(Fraction(1, 10**15))
        return float((mid.lo + mid.hi) / 2)


def rightmost_real_root(p: Poly) -> AlgebraicReal:
    """Isolate the largest real root of an integer polynomial."""
    d = squarefree_part(p)
    if p_degree(d) < 1:
        raise ValueError("constant polynomial has no roots")
    chain = sturm_chain(d)
    bound = cauchy_bound(d)
    lo, hi = -bound, bound
    if count_roots(chain, lo, hi) == 0:
        raise ValueError("polynomial has no real roots")
    while count_roots(chain, lo, hi) > 1:
        mid = _nonroot_point(d, lo, hi)
        if count_roots(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return AlgebraicReal(d, lo, hi)


# ---------------------------------------------------------------------------
# interval arithmetic on rational endpoints


def iv_add(u: Interval, v: Interval) -> Interval:
    return (u[0] + v[0], u[1] + v[1])


def iv_mul(u: Interval, v: Interval) -> Interval:
    prods = (u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1])
    return (min(prods), max(prods))


def iv_abs(u: Interval) -> Interval:
    if u[0] >= 0:
        return u
    if u[1] <= 0:
        return (-u[1], -u[0])
    return (Fraction(0), max(-u[0], u[1]))


def p_eval_interval(p, lo: Fraction, hi: Fraction) -> Interval:
    """Interval Horner evaluation: encloses p(x) for every x in [lo, hi]."""
    acc: Interval = (Fraction(0), Fraction(0))
    x: Interval = (Fraction(lo), Fraction(hi))
    for c in reversed(p):
        acc = iv_add(iv_mul(acc, x), (Fraction(c), Fraction(c)))
    return acc


# ---------------------------------------------------------------------------
# certified elementary enclosures


def sqrt_enclosure(x: Fraction, max_width: Fraction) -> Interval:
    """Rational enclosure of sqrt(x) for x >= 0, of width <= max_width."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return (Fraction(0), Fraction(0))
    p, q = x.numerator, x.denominator
    # sqrt(p/q) = sqrt(p*q)/q; scale so the final grid is fine enough
    scale = 1
    while Fraction(1, q * scale) > max_width:
        scale *= 2
    root = isqrt(p * q * scale * scale)
    lo = Fraction(root, q * scale)
    if root * root == p * q * scale * scale:
        return (lo, lo)
    return (lo, Fraction(root + 1, q * scale))


def _atanh_log(m: Fraction, max_error: Fraction) -> Interval:
    """Enclosure of ln(m) for 1 <= m <= 2 via the atanh series."""
    z = (m - 1) / (m + 1)  # in [0, 1/3]
    if z == 0:
        return (Fraction(0), Fraction(0))
    z2 = z * z
    term = z
    total = Fraction(0)
    k = 0
    while True:
        total += term / (2 * k + 1)
        term *= z2
        k += 1
        tail = 2 * term / ((2 * k + 1) * (1 - z2))
        if tail <= max_error:
            return (2 * total, 2 * total + tail)


_LN2_CACHE: dict[Fraction, Interval] = {}


def log_enclosure(x: Fraction, max_error: Fraction) -> Interval:
    """Rational enclosure of ln(x) for x > 0 with total error <= max_error."""
    x = Fraction(x)
    max_error = Fraction(max_error)
    if x <= 0:
        raise ValueError("log of nonpositive rational")
    if x == 1:
        return (Fraction(0), Fraction(0))
    if x < 1:
        lo, hi = log_enclosure(1 / x, max_error)
        return (-hi, -lo)
    e = 0
    m = x
    while m >= 2:
        m /= 2
        e += 1
    if e == 0:
        return _atanh_log(m, max_error)
    ln2_err = max_error / (2 * e)
    if ln2_err not in _LN2_CACHE:
        _LN2_CACHE[ln2_err] = _atanh_log(Fraction(2), ln2_err)
    l2lo, l2hi = _LN2_CACHE[ln2_err]
    mlo, mhi = _atanh_log(m, max_error / 2)
    return (e * l2lo + mlo, e * l2hi + mhi)


# ---------------------------------------------------------------------------
# characteristic polynomials


def char_poly(matrix: list[list[int]]) -> Poly:
    """Characteristic polynomial det(xI - A) of an integer matrix.

    Faddeev-LeVerrier recursion; the divisions are exact over the integers.
    Returned constant-first: c0 + c1*x + ... + x^n.
    """
    n = len(matrix)
    assert all(len(row) == n for row in matrix)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    work = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # M_1 = I
    for k in range(1, n + 1):
        prod = [
            [sum(matrix[i][t] * work[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(prod[i][i] for i in range(n))
        assert trace % k == 0
        coeffs[n - k] = -(trace // k)
        if k < n:
            work = [
                [prod[i][j] + (coeffs[n - k] if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
    return tuple(coeffs)
