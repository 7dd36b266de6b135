import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistlab.errors import (
    DegenerateMatrix,
    NotHyperbolic,
    UnknownCurve,
    WrongAlphabet,
)
from twistlab.exact import p_eval
from twistlab.thurston import (
    HYPERBOLIC,
    NOT_HYPERBOLIC,
    IntersectionMatrix,
    classify,
    is_penner_word,
    perron_eigenvalue,
    represent,
    stretch_factor,
)
from twistlab.words import parse_word, word

N_ONE = IntersectionMatrix.of([[1]])
N_ONES = IntersectionMatrix.of([[1, 1], [1, 1]])


def test_degenerate_matrices_rejected():
    with pytest.raises(DegenerateMatrix):
        IntersectionMatrix.of([[0, 0], [1, 1]])
    with pytest.raises(DegenerateMatrix):
        IntersectionMatrix.of([[1, 0], [1, 0]])
    with pytest.raises(DegenerateMatrix):
        IntersectionMatrix.of([[1, -1]])
    with pytest.raises(DegenerateMatrix):
        IntersectionMatrix.of([])


@pytest.mark.parametrize("rows", [[[1.9]], [[True]], [["2"]]])
def test_non_integer_entries_rejected(rows):
    with pytest.raises(DegenerateMatrix):
        IntersectionMatrix.of(rows)


def test_perron_examples():
    assert perron_eigenvalue(N_ONE).compare(1) == 0
    assert perron_eigenvalue(N_ONES).compare(4) == 0
    assert perron_eigenvalue(IntersectionMatrix.of([[2]])).compare(4) == 0


def test_perron_dominates_other_eigenvalues():
    n = IntersectionMatrix.of([[1, 2], [2, 1]])
    mu = perron_eigenvalue(n)
    # gram is [[5, 4], [4, 5]] with eigenvalues 1 and 9
    assert mu.compare(9) == 0


def test_represent_generators():
    t_a = represent(word([("A", 1)]))
    assert (t_a.a, t_a.b, t_a.c, t_a.d) == ((1,), (0, 1), (), (1,))
    t_b = represent(word([("B", 1)]))
    assert (t_b.a, t_b.b, t_b.c, t_b.d) == ((1,), (), (0, -1), (1,))


def test_represent_product_example():
    r = represent(word([("A", 1), ("B", 1)]))
    assert r.a == (1, 0, -1)  # 1 - s^2
    assert r.b == (0, 1)
    assert r.c == (0, -1)
    assert r.d == (1,)


def test_represent_empty_word_is_identity():
    r = represent(word([]))
    assert (r.a, r.b, r.c, r.d) == ((1,), (), (), (1,))


def test_represent_wrong_alphabet():
    with pytest.raises(WrongAlphabet):
        represent(word([("C", 1)]))


def test_determinant_is_one_symbolically():
    rng = random.Random(3)
    for _ in range(30):
        items = [
            (rng.choice(["A", "B"]), rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(0, 8))
        ]
        rep = represent(word(items))
        assert rep.det_poly() == (1,)


def test_trace_is_even_in_s():
    rng = random.Random(4)
    for _ in range(30):
        items = [
            (rng.choice(["A", "B"]), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, 8))
        ]
        rep = represent(word(items))
        rep.trace_in_mu()  # asserts internally


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(st.sampled_from("AB"), st.integers(-3, 3).filter(bool)), max_size=6
    ),
    st.lists(
        st.tuples(st.sampled_from("AB"), st.integers(-3, 3).filter(bool)), max_size=6
    ),
)
def test_represent_is_multiplicative(w1, w2):
    lhs = represent(word(w1 + w2))
    rhs = represent(word(w1)) * represent(word(w2))
    assert (lhs.a, lhs.b, lhs.c, lhs.d) == (rhs.a, rhs.b, rhs.c, rhs.d)


def test_classify_examples():
    mu1 = perron_eigenvalue(N_ONE)
    assert classify(represent(parse_word("A B^-1")), mu1) == HYPERBOLIC
    assert classify(represent(parse_word("A")), mu1) == NOT_HYPERBOLIC
    mu4 = perron_eigenvalue(N_ONES)
    assert classify(represent(parse_word("A B")), mu4) == NOT_HYPERBOLIC


def test_classify_needs_exact_boundary_decision():
    # trace polynomial 2 - mu at mu = 4 sits exactly at -2: parabolic
    rep = represent(parse_word("A B"))
    assert p_eval(rep.trace_in_mu(), 4) == -2


def test_stretch_factor_golden():
    enc = stretch_factor(represent(parse_word("A B^-1")), perron_eigenvalue(N_ONE), Fraction(1, 10**12))
    golden = (3 + math.sqrt(5)) / 2
    assert enc.lam_hi - enc.lam_lo <= Fraction(1, 10**12)
    assert float(enc.lam_lo) <= golden <= float(enc.lam_hi)
    assert abs(float(enc.log_lo) - math.log(golden)) < 1e-9


def test_stretch_factor_cubed():
    enc = stretch_factor(represent(parse_word("A^3 B^-3")), perron_eigenvalue(N_ONE), Fraction(1, 10**9))
    target = (11 + math.sqrt(117)) / 2
    assert float(enc.lam_lo) <= target <= float(enc.lam_hi)


def test_stretch_factor_not_hyperbolic():
    with pytest.raises(NotHyperbolic):
        stretch_factor(represent(parse_word("A B")), perron_eigenvalue(N_ONES))


def test_eigenvalue_product_contains_one():
    rng = random.Random(5)
    found = 0
    while found < 10:
        items = [
            (rng.choice(["A", "B"]), rng.choice([-3, -2, 2, 3]))
            for _ in range(rng.randint(2, 6))
        ]
        try:
            enc = stretch_factor(represent(word(items)), perron_eigenvalue(N_ONE), Fraction(1, 10**9))
        except NotHyperbolic:
            continue
        found += 1
        prod_lo = enc.lam_lo * enc.small_lo
        prod_hi = enc.lam_hi * enc.small_hi
        assert prod_lo <= 1 <= prod_hi


def test_mu_not_one_evaluation():
    # with mu = 4 the trace of (A B^-1) is 2 + mu = 6, lambda = 3 + 2*sqrt(2)
    enc = stretch_factor(represent(parse_word("A B^-1")), perron_eigenvalue(N_ONES), Fraction(1, 10**10))
    target = 3 + 2 * math.sqrt(2)
    assert float(enc.lam_lo) <= target <= float(enc.lam_hi)


def test_trace_bounded_by_power_at_irrational_mu():
    # trace(w) <= (2 sqrt(mu))^(2n) = (4 mu)^n for alternating unit words,
    # compared exactly at the algebraic eigenvalue
    n_mat = IntersectionMatrix.of([[2, 1], [1, 1]])  # gram [[5,3],[3,2]], mu irrational
    mu = perron_eigenvalue(n_mat)
    assert mu.sign_of((1, -7, 1)) == 0  # root of x^2 - 7x + 1
    rng = random.Random(6)
    for _ in range(25):
        n = rng.randint(1, 4)
        items = [
            ("A" if i % 2 == 0 else "B", rng.choice([1, -1])) for i in range(2 * n)
        ]
        trace_in_mu = represent(word(items)).trace_in_mu()
        bound_poly = tuple(0 for _ in range(n)) + (4**n,)  # (4x)^n
        from twistlab.exact import p_sub

        assert mu.sign_of(p_sub(bound_poly, trace_in_mu)) >= 0


def test_is_penner_word_examples():
    assert is_penner_word(
        parse_word("a1^2 b1^-1 a2 b2^-3"), ["a1", "a2"], ["b1", "b2"]
    )
    assert not is_penner_word(parse_word("a1^2 b1"), ["a1"], ["b1"])
    assert not is_penner_word(parse_word("a1^2 b1^-1"), ["a1", "a2"], ["b1"])


def test_is_penner_word_unknown_curve():
    with pytest.raises(UnknownCurve):
        is_penner_word(parse_word("z^2"), ["a"], ["b"])
