import time
from decimal import Decimal

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from p1homotopy.mpoly import MPoly
from p1homotopy.poly import Poly
from p1homotopy.rings import (
    ExactDivisionError,
    NotPrimeError,
    QQ,
    RingMismatchError,
    RingTag,
    Scalar,
    ZZ,
    _is_prime,
)

F5 = RingTag("Fp", 5)


def test_ring_tags():
    assert ZZ.name() == "Z"
    assert QQ.name() == "Q"
    assert F5.name() == "Fp:5"
    assert RingTag.from_name("z") == ZZ
    assert RingTag.from_name("fp:7").modulus == 7
    with pytest.raises(NotPrimeError):
        RingTag("Fp", 6)
    with pytest.raises(NotPrimeError):
        RingTag("Fp", 1)
    with pytest.raises(ValueError):
        RingTag.from_name("gf:5")


def test_rationals_lowest_terms():
    s = Scalar(QQ, Fraction(2, -4))
    assert s.value.numerator == -1 and s.value.denominator == 2


def test_prime_field_canonical_range():
    assert Scalar(F5, -3).value == 2
    assert Scalar(F5, 13).value == 3


# values that are not exact ring elements: truncating or parsing them would
# change the input silently
INEXACT = [0.5, 1.0, 0.9, "7", "1/2", True, Decimal(1), 1j, None]


@pytest.mark.parametrize("ring", [ZZ, QQ, F5], ids=str)
@pytest.mark.parametrize("value", INEXACT, ids=repr)
def test_inexact_values_are_refused_at_every_boundary(ring, value):
    with pytest.raises(TypeError):
        Scalar(ring, value)
    with pytest.raises(TypeError):
        Poly(ring, "X", [1, value])
    with pytest.raises(TypeError):
        Poly(ring, "X", (1, 1)).eval(value)
    with pytest.raises(TypeError):
        MPoly(ring, ("X", "T"), {(1, 0): value})
    with pytest.raises(TypeError):
        MPoly(ring, ("X",), {(1,): 1}).eval({"X": value})


@pytest.mark.parametrize("ring", [ZZ, QQ, F5], ids=str)
def test_exact_values_are_accepted(ring):
    values = [3, Fraction(6, 2), Scalar(ring, 3)]
    assert {Scalar(ring, v) for v in values} == {Scalar(ring, 3)}
    assert Poly(ring, "X", values).raw == (ring.norm(3),) * 3
    assert Poly(ring, "X", (1, 1)).eval(Fraction(2, 1)) == Scalar(ring, 3)
    assert MPoly(ring, ("X",), {(1,): Scalar(ring, 2)}).eval({"X": 2}) == Scalar(ring, 4)


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        Scalar(ZZ, 1) + Scalar(QQ, 1)


def test_exact_div():
    assert Scalar(ZZ, 6).exact_div(Scalar(ZZ, 3)).value == 2
    with pytest.raises(ExactDivisionError):
        Scalar(ZZ, 7).exact_div(Scalar(ZZ, 3))
    with pytest.raises(ExactDivisionError):
        Scalar(ZZ, 1).exact_div(Scalar(ZZ, 0))
    assert Scalar(QQ, 7).exact_div(Scalar(QQ, 3)).value == Fraction(7, 3)
    assert Scalar(F5, 3).exact_div(Scalar(F5, 2)).value == 4  # 3 * inv(2) = 3*3 = 9 = 4


def test_is_unit():
    assert Scalar(ZZ, -1).is_unit()
    assert not Scalar(ZZ, 2).is_unit()
    assert Scalar(QQ, 2).is_unit()
    assert not Scalar(QQ, 0).is_unit()
    assert Scalar(F5, 4).is_unit()


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_ring_axioms_z(a, b, c):
    sa, sb, sc = (Scalar(ZZ, v) for v in (a, b, c))
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert sa + (-sa) == Scalar(ZZ, 0)
    assert (sa * sb) * sc == sa * (sb * sc)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_ring_axioms_f5(a, b, c):
    sa, sb, sc = (Scalar(F5, v) for v in (a, b, c))
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert sa + (-sa) == Scalar(F5, 0)


@given(
    st.fractions(min_value=-30, max_value=30, max_denominator=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=30),
)
def test_q_field_ops(a, b):
    sa, sb = Scalar(QQ, a), Scalar(QQ, b)
    assert (sa + sb) - sb == sa
    if not sb.is_zero():
        assert (sa * sb).exact_div(sb) == sa


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_primality_matches_trial_division():
    for n in range(-5, 5000):
        assert _is_prime(n) == _trial_division(n), n


def test_large_prime_modulus_is_certified_promptly():
    start = time.perf_counter()
    ring = RingTag.from_name("fp:2305843009213693951")  # 2^61 - 1
    assert ring.modulus == 2**61 - 1
    assert time.perf_counter() - start < 1.0


def test_strong_pseudoprime_is_rejected():
    # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to bases 2, 3, 5, 7
    with pytest.raises(NotPrimeError):
        RingTag("Fp", 3215031751)


def test_modulus_beyond_the_exact_bound_is_refused():
    with pytest.raises(NotPrimeError, match="too large"):
        RingTag("Fp", 2**89 - 1)  # prime, but above 3.3e24
