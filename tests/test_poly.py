from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from p1homotopy.poly import Poly
from p1homotopy.rings import ExactDivisionError, QQ, RingMismatchError, RingTag, Scalar, ZZ

F7 = RingTag("Fp", 7)


def P(*coeffs):
    return Poly(ZZ, "X", coeffs)


X = Poly.x(ZZ, "X")
ONE = Poly.one(ZZ, "X")
ZERO = Poly.zero(ZZ, "X")


def test_difference_of_squares():
    assert (X + ONE) * (X - ONE) == P(-1, 0, 1)


def test_additive_identity():
    p = P(0, 0, 1)  # X^2
    assert p + ZERO == ZERO + p == p
    assert (p - p).raw == ()


def test_schoolbook_expansion():
    # (X^2 - X + 1)(X - 1) + X = X^3 - 2X^2 + 3X - 1
    got = P(1, -1, 1) * P(-1, 1) + ONE * X
    assert got == P(-1, 3, -2, 1)


def test_mul_degree_is_sum():
    a = P(1, 0)  # the zero leading coefficient is dropped: degree 0
    b = P(1, 1)
    assert a.actual_degree() == 0
    assert (a * b).actual_degree() == 1 and a * b == b


def test_zero_leading_coefficients_are_dropped():
    assert P(1, 0) == ONE and P(1, 0).coeffs == (Scalar(ZZ, 1),)
    assert P(0, 0, 1, 0, 0).raw == (0, 0, 1)
    assert Poly(F7, "X", (1, 7, 14)) == Poly.one(F7, "X")
    assert Poly(QQ, "X", (Fraction(1, 2), Fraction(0))).raw == (Fraction(1, 2),)
    assert P(0, 0, 1).leading() == Scalar(ZZ, 1) and P(0, 0, 1, 0).actual_degree() == 2


def test_zero_polynomial_is_distinguished():
    assert ZERO.actual_degree() == -1 and ZERO.raw == ()
    assert ZERO.is_zero() and ZERO.leading().is_zero()
    zeros = P(0, 0, 0)
    assert zeros == ZERO and zeros.raw == () and hash(zeros) == hash(ZERO)
    assert Poly.constant(ZZ, "X", 0) == ZERO


def test_exact_div_examples():
    assert P(-1, 0, 1).exact_div(P(-1, 1)) == P(1, 1)  # (X^2-1)/(X-1) = X+1
    t = Poly(ZZ, "T", (1, -2, 1))  # T^2 - 2T + 1
    assert t.exact_div(Poly(ZZ, "T", (-1, 1))) == Poly(ZZ, "T", (-1, 1))
    with pytest.raises(ExactDivisionError):
        P(1, 1).exact_div(P(0, 1))  # (X+1)/X
    with pytest.raises(ExactDivisionError):
        P(1).exact_div(ZERO)


def test_var_and_ring_mismatch():
    with pytest.raises(RingMismatchError):
        X + Poly.x(ZZ, "T")


@pytest.mark.parametrize("ring, values", [
    (ZZ, (3, 0, -2)),
    (QQ, (Fraction(1, 2), 0, -3)),
    (F7, (6, 0, 1)),
])
def test_ints_and_scalars_give_one_value(ring, values):
    # coefficients are stored as raw ring values; Scalars are only the
    # boundary, so both spellings must build the same polynomial
    from_raw = Poly(ring, "T", values)
    from_scalars = Poly(ring, "T", [Scalar(ring, v) for v in values])
    assert from_raw == from_scalars and hash(from_raw) == hash(from_scalars)
    for i, c in enumerate(from_raw.coeffs):
        assert isinstance(c, Scalar) and c.ring == ring and c == Scalar(ring, values[i])
    for k in (0, 2, 5, -1):
        c = from_raw.coeff(k)
        assert isinstance(c, Scalar) and c.ring == ring
    assert from_raw.leading() == Scalar(ring, values[-1])
    assert from_raw.eval(Scalar(ring, 1)).ring == ring


def test_scalar_of_another_ring_is_refused():
    with pytest.raises(RingMismatchError):
        Poly(ZZ, "X", (1, Scalar(QQ, 2)))
    with pytest.raises(RingMismatchError):
        Poly(F7, "X", (Scalar(RingTag("Fp", 5), 1),))
    with pytest.raises(RingMismatchError):
        P(1, 1).eval(Scalar(F7, 1))
    with pytest.raises(RingMismatchError):
        P(1, 1).scale(Scalar(QQ, 1))


def test_fp_inputs_are_reduced():
    p = Poly(F7, "X", (-1, 7, 15, Fraction(1, 2)))
    assert p == Poly(F7, "X", (6, 0, 1, 4))
    assert p.coeff(0) == Scalar(F7, 6) and p.coeff(1).is_zero()
    assert Poly(F7, "X", (7, 14)).is_zero()
    # products and sums are reduced as well
    q = Poly(F7, "X", (3, 5)) * Poly(F7, "X", (5, 4))
    assert q == Poly(F7, "X", (1, 2, 6))


coeff_lists = st.lists(st.integers(-9, 9), min_size=0, max_size=7)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a, b, c):
    pa, pb, pc = P(*a), P(*b), P(*c)
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa - pa).is_zero()
    assert (pa * pb) * pc == pa * (pb * pc)


@given(coeff_lists, coeff_lists, st.integers(-5, 5))
def test_eval_is_a_homomorphism(a, b, point):
    pa, pb = P(*a), P(*b)
    s = Scalar(ZZ, point)
    assert (pa * pb).eval(s) == pa.eval(s) * pb.eval(s)
    assert (pa + pb).eval(s) == pa.eval(s) + pb.eval(s)


@given(st.sampled_from((ZZ, QQ, F7)), coeff_lists, st.integers(0, 4), st.integers(-5, 5))
def test_appended_zeros_leave_the_value(ring, coeffs, extra, point):
    p = Poly(ring, "X", coeffs)
    padded = Poly(ring, "X", coeffs + [0] * extra)
    assert padded == p and hash(padded) == hash(p) and padded.raw == p.raw
    assert padded.actual_degree() == p.actual_degree()
    assert padded.eval(point) == p.eval(point)
    assert not p.raw or p.raw[-1]


@given(coeff_lists, coeff_lists)
def test_exact_div_inverts_mul(a, b):
    pa, pb = P(*a), P(*b)
    if pb.is_zero():
        return
    assert (pa * pb).exact_div(pb) == pa
