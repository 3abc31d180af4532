import random
from fractions import Fraction

import pytest

from p1homotopy import exprio, rings
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

    @pytest.mark.parametrize("ring", [ZZ, QQ, F7], ids=["Z", "Q", "Fp"])
    def test_hash_ignores_the_insertion_order_of_terms(self, ring):
        terms = [((i, j), 1 + i + 3 * j) for i in range(4) for j in range(3)]
        ahead = MPoly(ring, XT, dict(terms))
        behind = MPoly(ring, XT, dict(reversed(terms)))
        assert list(ahead.raw) != list(behind.raw)
        assert ahead == behind and hash(ahead) == hash(behind)
        assert len({ahead, behind}) == 1

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


def _typed(p):
    """A value with each raw coefficient's type, which a trusted
    construction must reproduce exactly (over Q a zero is Fraction(0))."""
    if isinstance(p, Poly):
        return Poly, p.ring, p.var, [(type(c), c) for c in p.raw]
    return MPoly, p.ring, p.vars, {e: (type(c), c) for e, c in p.raw.items()}


def _raw_terms(rng, ring, nvars, only=None):
    """Up to 8 raw terms as a caller may pass them: zeros, negatives, values
    of p or more, ints and Fractions over Q; exponents only at `only`."""
    terms = {}
    for _ in range(rng.randint(0, 8)):
        e = tuple(rng.randint(0, 4) if only in (None, k) else 0 for k in range(nvars))
        c = rng.choice((0, 1, -1, 7, rng.randint(-10**6, 10**6), rng.randint(-10**20, 10**20)))
        terms[e] = Fraction(c, rng.choice((1, 2, 3))) if ring == QQ and rng.random() < 0.5 else c
    return terms


TRUSTED_RINGS = [ZZ, QQ, RingTag("Fp", 7), RingTag("Fp", 1000003)]
TRUSTED_VARS = [("X",), ("X", "T"), ("T0", "T1", "T")]


class TestTrustedConstructor:
    """Every value built by MPoly._of or Poly._of is the public
    constructor's value, coefficient types included."""

    @pytest.fixture(params=TRUSTED_RINGS, ids=["Z", "Q", "F7", "F1000003"])
    def ring(self, request):
        return request.param

    def draws(self, ring, tag, only=None):
        rng = random.Random(f"trusted {tag}:{ring.name()}")
        for k in range(60):
            vars = TRUSTED_VARS[k % 3]
            yield rng, vars, MPoly(ring, vars, _raw_terms(rng, ring, len(vars), only))

    def test_product(self, ring):
        for rng, vars, a in self.draws(ring, "mul"):
            b = MPoly(ring, vars, _raw_terms(rng, ring, len(vars)))
            terms = {}
            for e1, c1 in a.raw.items():
                for e2, c2 in b.raw.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    terms[e] = terms.get(e, 0) + c1 * c2
            assert _typed(a * b) == _typed(MPoly(ring, vars, terms))

    def test_substitution_of_a_ring_value(self, ring):
        values = [0, 1, -1, 2, 1000004, Scalar(ring, 3)] + [Fraction(-1, 2)] * (ring == QQ)
        for rng, vars, p in self.draws(ring, "subst"):
            i = rng.randrange(len(vars))
            value = rng.choice(values)
            v, terms = ring.norm(value), {}
            for e, c in p.raw.items():
                rest = e[:i] + e[i + 1 :]
                terms[rest] = terms.get(rest, 0) + c * v ** e[i]
            want = MPoly(ring, vars[:i] + vars[i + 1 :], terms)
            assert _typed(p.subst(vars[i], value)) == _typed(want)

    def test_embedding(self, ring):
        for rng, vars, p in self.draws(ring, "embed"):
            wider = tuple(rng.sample(vars + ("Y", "Z"), len(vars) + 2))
            moved = {tuple(dict(zip(vars, e)).get(v, 0) for v in wider): c for e, c in p.raw.items()}
            assert _typed(p._embed(wider)) == _typed(MPoly(ring, wider, moved))

    def test_to_poly(self, ring):
        for rng, vars, p in self.draws(ring, "to_poly", only=0):
            cs = [0] * (p.degree_in(vars[0]) + 1)
            for e, c in p.raw.items():
                cs[e[0]] = c
            assert _typed(p.to_poly(vars[0])) == _typed(Poly(ring, vars[0], cs))

    def parsed(self, text, vars, ring):
        """parse_poly's value built by the public constructors from the
        recursive descent's raw terms."""
        terms = exprio._Parser(text, vars, ring).read()[0]
        if len(vars) > 1:
            return MPoly(ring, vars, terms)
        cs = [0] * (max(terms, default=(-1,))[0] + 1)
        for (k,), c in terms.items():
            cs[k] = c
        return Poly(ring, vars[0], cs)

    def test_parse(self, ring):
        texts = [  # zero coefficients in the middle; then texts for the descent
            ("X^3 + 1", ("X",)), ("X^5 - 2*X", ("X",)), ("7*X^4 + 14", ("X",)),
            ("(X + 1)^2 - X*X", ("X",)), ("(X - 1) - (X - 1)", ("X",)), ("X*(X^2 - 3)", ("X",)),
            ("X + (2*T - 1)", ("X", "T")), ("(X + T)^3 - X^3", ("X", "T")),
            ("(T0 + T*T1)^2", ("T0", "T1", "T")), ("-(T0 - T1)*(T0 + T1) + 0*T", ("T0", "T1", "T")),
        ]
        if ring == QQ:
            texts += [("1/2*X^4 - 3/4", ("X",)), ("(1/2)*X^3 + X", ("X",)),
                      ("(X + 1/2)^2 - X^2", ("X",)), ("2/3*X*T - (1/3)*(X*T + X*T)", ("X", "T"))]
        for _, vars, p in self.draws(ring, "parse"):
            texts += [(str(p), vars), (f"({p})*{vars[-1]} - 1", vars)]
        for text, vars in texts:
            got = parse_poly(text, vars, ring)
            assert _typed(got) == _typed(self.parsed(text, vars, ring)), text
        flat = [exprio._flat_terms(text, vars, ring) is not None for text, vars in texts]
        assert sum(flat) >= 50 and flat.count(False) >= 50  # the reader's and the descent's

    def test_q_zeros_inside_a_dense_tuple_are_fractions(self):
        p = parse_poly("X^3 + 1/2", ("X",), QQ)
        assert _typed(p)[3] == [(Fraction, Fraction(1, 2))] + [(Fraction, Fraction(0))] * 2 + [
            (Fraction, Fraction(1))]
        assert _typed(MPoly(QQ, ("X", "T"), {(3, 0): 1, (0, 0): 2}).to_poly("X"))[3][1] == (
            Fraction, Fraction(0))
