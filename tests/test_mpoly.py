from fractions import Fraction

import pytest

from p1homotopy import rings
from p1homotopy.exprio import builtin_chain, parse_poly
from p1homotopy.homotopy import endpoint, validate_cert
from p1homotopy.monoid import validate
from p1homotopy.mpoly import MPoly
from p1homotopy.plane import find_membership, verify_membership
from p1homotopy.poly import Poly
from p1homotopy.rings import QQ, RingMismatchError, RingTag, Scalar, ZZ

XT = ("X", "T")


def xt(text):
    return parse_poly(text, XT, ZZ)


def test_subst_kills_t():
    p = xt("T*X + 1")
    assert p.subst("T", Scalar(ZZ, 0)) == MPoly.constant(ZZ, ("X",), 1)
    assert p.subst("T", Scalar(ZZ, 1)).to_poly("X") == parse_poly("X + 1", ("X",), ZZ)


def test_subst_paper_value():
    p = xt("X^2 + 2*T*X + 2*T")
    at1 = p.subst("T", Scalar(ZZ, 1)).to_poly("X")
    assert at1 == parse_poly("X^2 + 2*X + 2", ("X",), ZZ)


def test_square_expansion():
    p = parse_poly("(T0 + T*T1)^2", ("T0", "T1", "T"), ZZ)
    expected = MPoly(
        ZZ,
        ("T0", "T1", "T"),
        {(2, 0, 0): 1, (1, 1, 1): 2, (0, 2, 2): 1},
    )
    assert p == expected


def test_unknown_variable():
    p = xt("X + 1")
    with pytest.raises(ValueError):
        p.subst("T1", Scalar(ZZ, 0))


def test_subst_with_polynomial_value():
    # T -> 1 - T keeps the variable in play
    p = xt("T*X")
    q = p.subst("T", MPoly(ZZ, ("T",), {(0,): 1, (1,): -1}))
    assert q == xt("X - T*X")


def test_to_poly_and_back():
    p = Poly(ZZ, "T", (1, 0, 3))
    m = MPoly.from_poly(p)
    assert m.to_poly("T") == p
    with pytest.raises(ValueError):
        xt("T*X").to_poly("X")


def test_arithmetic_and_vars_check():
    a = xt("X + T")
    b = parse_poly("T0 + T1", ("T0", "T1"), ZZ)
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(TypeError):
        a + Poly.x(ZZ, "X")
    assert (a - a).is_zero()
    assert (a * a) == xt("X^2 + 2*X*T + T^2")


def test_homogeneous():
    assert parse_poly("T0^2 + T0*T1", ("T0", "T1"), ZZ).is_homogeneous()
    assert not parse_poly("T0^2 + T1", ("T0", "T1"), ZZ).is_homogeneous()


def test_eval():
    p = xt("X^2 + 2*T*X + 2*T")
    v = p.eval({"X": Scalar(ZZ, 2), "T": Scalar(ZZ, 3)})
    assert v == Scalar(ZZ, 4 + 12 + 6)


F7 = RingTag("Fp", 7)


class TestRawCoefficients:
    def test_fp_cancels_and_reduces(self):
        assert parse_poly("3*X + 4*X", XT, F7).raw == {}
        p = parse_poly("5*X*T - 9*T + 20 - (X + 6)*(X + 6)", XT, F7)
        assert p.raw == {(1, 1): 5, (0, 1): 5, (2, 0): 6, (1, 0): 2, (0, 0): 5}
        for q in (p, p * p, -p, p.subst("T", 3), p.subst("T", Fraction(1, 2))):
            assert all(type(c) is int and 0 <= c < 7 for c in q.raw.values())

    def test_q_keeps_fractions(self):
        p = parse_poly("1/2*X*T + 3 - 2/3*T", XT, QQ)
        assert p.raw == {(1, 1): Fraction(1, 2), (0, 0): Fraction(3), (0, 1): Fraction(-2, 3)}
        for q in (p, p * p - p, p.subst("T", 5), p.subst("X", Fraction(1, 3))):
            assert all(type(c) is Fraction for c in q.raw.values())
        assert (p + parse_poly("1/3*T", XT, QQ) * MPoly.constant(QQ, XT, 2)).raw[(0, 0)] == 3
        assert p.eval({"X": 2, "T": Fraction(3, 2)}) == Scalar(QQ, Fraction(3, 2) + 3 - 1)

    @pytest.mark.parametrize("ring", [ZZ, QQ, F7], ids=["Z", "Q", "Fp"])
    def test_int_fraction_and_scalar_inputs_agree(self, ring):
        e = (1, 0)
        built = [
            MPoly(ring, XT, {e: 3, (0, 1): -1}),
            MPoly(ring, XT, {e: Fraction(3), (0, 1): Fraction(-1)}),
            MPoly(ring, XT, {e: Scalar(ring, 3), (0, 1): Scalar(ring, -1)}),
        ]
        assert built[0] == built[1] == built[2]
        assert len({hash(p) for p in built}) == 1
        assert built[0].terms == {e: Scalar(ring, 3), (0, 1): Scalar(ring, -1)}
        assert all(c.ring == ring for c in built[0].terms.values())
        other = QQ if ring != QQ else ZZ
        with pytest.raises(RingMismatchError):
            MPoly(ring, XT, {e: Scalar(other, 3)})
        with pytest.raises(RingMismatchError):
            built[0].subst("T", Scalar(other, 1))

    def test_plain_values_substitute_like_scalars(self):
        p = xt("X^2 + 2*T*X + 2*T")
        for t in (0, 1, -3):
            assert p.subst("T", t) == p.subst("T", Scalar(ZZ, t))
        assert p.eval({"X": 2, "T": 3}) == p.eval({"X": Scalar(ZZ, 2), "T": Scalar(ZZ, 3)})
        with pytest.raises(TypeError):
            p.subst("T", "1")


class TestScalarBoundary:
    """MPoly arithmetic runs on raw values: parsing, certificate validation,
    endpoints and membership checks build no Scalar per term operation."""

    @pytest.fixture
    def made(self, monkeypatch):
        made = []
        init = rings.Scalar.__init__

        def counting(self, r, value):
            made.append(1)
            init(self, r, value)

        monkeypatch.setattr(rings.Scalar, "__init__", counting)
        return made

    @pytest.mark.parametrize("ring", [ZZ, QQ, F7], ids=["Z", "Q", "Fp"])
    def test_parse_builds_none(self, made, ring):
        parse_poly("(X + 2*T + 1)^12 - 3*X*T*(X - T)^5", XT, ring)
        parse_poly("(T0 + T*T1)^6 + 2*T0*T1", ("T0", "T1", "T"), ring)
        assert made == []

    def test_certificates_and_endpoints(self, made):
        chain = builtin_chain("homotopy", "prop_3_4_3")
        for link in chain.links:
            made.clear()
            cert = validate_cert(*link.family, ZZ)
            # one Scalar, for the unit test of the resultant
            assert len(made) <= 1, len(made)
            for t in (0, 1):
                made.clear()
                endpoint(cert, t)
                # only the resultant's own boundary: no elimination, and
                # none for the substitution
                assert len(made) == 1, len(made)

    def test_verify_membership_builds_none(self, made):
        for link in builtin_chain("plane", "prop_3_4_5").links:
            fam = link.family
            cert = find_membership(fam)
            made.clear()
            assert verify_membership(fam, cert).ok
            assert made == []


def test_exponents_must_be_natural_ints():
    for bad in ((1.5,), ("2",), (True,), (Fraction(2),)):
        with pytest.raises(TypeError):
            MPoly(ZZ, ("X",), {bad: 1})
    with pytest.raises(ValueError):
        MPoly(ZZ, ("X", "T"), {(2, -1): 1})
    with pytest.raises(ValueError):
        MPoly(ZZ, ("X", "T"), {(2,): 1})
    assert MPoly(ZZ, ("X", "T"), {(2, 0): 1, (0, 0): 0}).raw == {(2, 0): 1}


def test_subst_of_a_polynomial_from_another_ring_is_refused():
    with pytest.raises(RingMismatchError):
        xt("T*X").subst("T", MPoly(QQ, ("T",), {(1,): 1}))
    with pytest.raises(RingMismatchError):
        xt("X + 1").subst("T", Poly(F7, "T", (0, 1)))
