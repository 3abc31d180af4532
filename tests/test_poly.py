from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from p1homotopy.poly import FormalDegreeError, Poly
from p1homotopy.rings import ExactDivisionError, QQ, RingMismatchError, RingTag, Scalar, ZZ

F7 = RingTag("Fp", 7)


def P(*coeffs):
    return Poly(ZZ, "X", coeffs)


X = Poly.x(ZZ, "X")
ONE = Poly.one(ZZ, "X")
ZERO = Poly.zero(ZZ, "X")


def test_difference_of_squares():
    assert (X + ONE) * (X - ONE) == P(-1, 0, 1)


def test_additive_identity_keeps_formal_degree():
    p = P(0, 0, 1)  # X^2
    assert (p + ZERO) == p
    assert (p + ZERO).formal_degree == 2


def test_schoolbook_expansion():
    # (X^2 - X + 1)(X - 1) + X = X^3 - 2X^2 + 3X - 1
    got = P(1, -1, 1) * P(-1, 1) + ONE * X
    assert got.trim() == P(-1, 3, -2, 1)


def test_mul_formal_degree_is_sum():
    a = P(1, 0)  # formal degree 1, actual 0
    b = P(1, 1)
    assert (a * b).formal_degree == 2


def test_pad_examples():
    assert ONE.pad_to(1).coeffs == (Scalar(ZZ, 1), Scalar(ZZ, 0))
    assert P(-1, 1).pad_to(1) == P(-1, 1)
    assert ZERO.pad_to(2).coeffs == tuple(Scalar(ZZ, 0) for _ in range(3))
    with pytest.raises(FormalDegreeError):
        P(0, 0, 1).pad_to(1)


def test_zero_polynomial_is_distinguished():
    assert ZERO.formal_degree == -1
    assert ZERO.actual_degree() == -1
    assert ZERO.is_zero() and ZERO.is_canonical_zero()
    padded = ZERO.pad_to(2)
    assert padded.is_zero() and not padded.is_canonical_zero()
    assert padded != ZERO  # formal degree is part of the value
    assert padded.trim() == ZERO


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
    assert ((pa + pb) + pc).trim() == (pa + (pb + pc)).trim()
    assert (pa * (pb + pc)).trim() == (pa * pb + pa * pc).trim()
    assert (pa - pa).is_zero()
    assert ((pa * pb) * pc).trim() == (pa * (pb * pc)).trim()


@given(coeff_lists, coeff_lists, st.integers(-5, 5))
def test_eval_is_a_homomorphism(a, b, point):
    pa, pb = P(*a), P(*b)
    s = Scalar(ZZ, point)
    assert (pa * pb).eval(s) == pa.eval(s) * pb.eval(s)
    assert (pa + pb).eval(s) == pa.eval(s) + pb.eval(s)


@given(coeff_lists, st.integers(0, 4), st.integers(-5, 5))
def test_pad_never_changes_value(coeffs, extra, point):
    p = P(*coeffs)
    d = max(p.actual_degree(), 0) + extra
    padded = p.pad_to(d)
    assert padded.actual_degree() == p.actual_degree()
    assert padded.eval(Scalar(ZZ, point)) == p.eval(Scalar(ZZ, point))


@given(coeff_lists, coeff_lists)
def test_exact_div_inverts_mul(a, b):
    pa, pb = P(*a), P(*b)
    if pb.is_zero():
        return
    assert (pa * pb).exact_div(pb) == pa.trim()
