import json
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from p1homotopy import exprio
from p1homotopy.chains import Chain, Link, ORIENTATIONS
from p1homotopy.exprio import ParseError, SchemaError, parse_pair, parse_poly, print_poly
from p1homotopy.monoid import bezout_pair, named, validate
from p1homotopy.mpoly import MPoly
from p1homotopy.poly import Poly
from p1homotopy.rings import QQ, RingTag, Scalar, ZZ

F5 = RingTag("Fp", 5)
X = ("X",)


def zx(text):
    return parse_poly(text, X, ZZ)


class TestGrammar:
    def test_paper_inputs(self):
        assert zx("X^2 - X + 1") == Poly(ZZ, "X", (1, -1, 1))
        m = parse_poly("T*X + 1", ("X", "T"), ZZ)
        assert isinstance(m, MPoly) and m.vars == ("X", "T")
        sq = parse_poly("(T0 + T*T1)^2", ("T0", "T1", "T"), ZZ)
        assert sq.terms == {
            (2, 0, 0): Scalar(ZZ, 1),
            (1, 1, 1): Scalar(ZZ, 2),
            (0, 2, 2): Scalar(ZZ, 1),
        }

    def test_precedence(self):
        assert zx("2*X^2") == Poly(ZZ, "X", (0, 0, 2))
        assert zx("1 + 2 * 3") == Poly(ZZ, "X", (7,))
        assert zx("(1 + 2) * 3") == Poly(ZZ, "X", (9,))
        assert zx("2^3") == Poly(ZZ, "X", (8,))

    def test_leading_minus_negates_the_term(self):
        assert zx("-X^2 + 1") == Poly(ZZ, "X", (1, 0, -1))
        assert zx("-2*X") == Poly(ZZ, "X", (0, -2))
        assert zx("1 - -X") == Poly(ZZ, "X", (1, 1))

    def test_unary_minus_in_atoms(self):
        assert zx("2*-3") == Poly(ZZ, "X", (-6,))
        assert zx("(-3)^2") == Poly(ZZ, "X", (9,))

    def test_whitespace_insignificant(self):
        assert zx("X ^ 2-X+  1") == zx("X^2 - X + 1")

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            zx("2X")
        with pytest.raises(ParseError):
            zx("2 X")
        with pytest.raises(ParseError):
            zx("X X")

    def test_undeclared_variable(self):
        with pytest.raises(ParseError) as err:
            zx("X + T")
        assert "undeclared" in str(err.value)
        assert err.value.pos == 4

    def test_syntax_errors_carry_positions(self):
        for text, pos in (("X +", 3), ("(X", 2), ("X^", 2), ("", 0), ("X*", 2)):
            with pytest.raises(ParseError) as err:
                zx(text)
            assert err.value.pos == pos

    def test_exponent_cap(self):
        with pytest.raises(ParseError):
            zx("X^999999")

    def test_rational_literals_only_over_q(self):
        p = parse_poly("1/2*X + 3/2", X, QQ)
        assert p == Poly(QQ, "X", (Fraction(3, 2), Fraction(1, 2)))
        with pytest.raises(ParseError):
            zx("1/2")
        with pytest.raises(ParseError):
            parse_poly("1/0", X, QQ)

    def test_fp_coefficients(self):
        assert parse_poly("7*X + 6", X, F5) == Poly(F5, "X", (1, 2))


class TestPairs:
    def test_pair_examples(self):
        f, g = parse_pair("X^2/2", X, ZZ)
        assert (f, g) == (zx("X^2"), zx("2"))
        f, g = parse_pair("(X^2 - X + 1)/(X - 1)", X, ZZ)
        assert (f, g) == (zx("X^2 - X + 1"), zx("X - 1"))
        f, g = parse_pair("(X-1)/(-1)", X, ZZ)
        assert (f, g) == (zx("X - 1"), zx("-1"))

    def test_rightmost_split_over_q(self):
        f, g = parse_pair("1/2", X, QQ)
        assert (str(f), str(g)) == ("1", "2")
        f, g = parse_pair("X/(1/2)", X, QQ)
        assert str(g) == "1/2"

    def test_pair_errors(self):
        with pytest.raises(ParseError):
            parse_pair("X^2", X, ZZ)
        with pytest.raises(ParseError):
            parse_pair("X^2/((", X, ZZ)


class TestPrinting:
    def test_canonical_examples(self):
        assert print_poly(Poly(ZZ, "X", (1, -1, 1))) == "X^2 - X + 1"
        assert print_poly(Poly.zero(ZZ, "X")) == "0"
        assert print_poly(Poly(ZZ, "X", (0, 0, 0))) == "0"
        assert print_poly(Poly(ZZ, "X", (1, 0, -1))) == "-X^2 + 1"
        assert print_poly(Poly(ZZ, "X", (0, -2))) == "-2*X"
        assert print_poly(Poly(QQ, "X", (Fraction(1, 2),))) == "1/2"

    def test_mpoly_descending_lex(self):
        p = parse_poly("(T0 + T*T1)^2", ("T0", "T1", "T"), ZZ)
        assert print_poly(p) == "T0^2 + 2*T0*T1*T + T1^2*T^2"

    def test_map_print(self):
        assert exprio.print_map(named("minus_epsilon")) == "(X - 1)/(-1)"
        assert exprio.print_map(named("squaring")) == "X^2/1"


class TestJson:
    def test_map_schema_instance(self):
        u = named("squaring")
        assert exprio.map_to_json(u) == {"ring": "Z", "n": 2, "f": "X^2", "g": "1"}
        assert exprio.map_from_json(exprio.map_to_json(u)) == u

    def test_schema_violations(self):
        with pytest.raises(SchemaError):
            exprio.map_from_json({"ring": "Z", "n": 2, "f": "X^2"})
        with pytest.raises(SchemaError):
            exprio.map_from_json({"ring": "Z", "n": 2, "f": "X^2", "g": "1", "x": 0})
        with pytest.raises(SchemaError):
            exprio.map_from_json({"ring": "Z", "n": 1, "f": "X^2", "g": "1"})
        with pytest.raises(SchemaError):
            exprio.map_from_json({"ring": "K", "n": 2, "f": "X^2", "g": "1"})
        with pytest.raises(SchemaError):
            exprio.loads("{not json")

    def test_chain_roundtrip(self):
        from p1homotopy.homotopy import builtin_chain

        chain = builtin_chain()
        blob = json.dumps(exprio.chain_to_json(chain, "homotopy"))
        assert exprio.chain_from_json(exprio.loads(blob), "homotopy") == chain

    def test_matrix_family_schema(self):
        from p1homotopy.projlinear import builtin_matrix_chain

        chain = builtin_matrix_chain()
        doc = exprio.chain_to_json(chain, "matrix")
        d = doc["links"][0]["family"]
        assert d == {"a": "T", "b": "-1", "c": "1", "d": "0"}
        first = exprio.chain_from_json(doc | {"links": doc["links"][:1]}, "matrix")
        assert first.links[0].family == chain.links[0].family
        blob = json.dumps(doc)
        assert exprio.chain_from_json(exprio.loads(blob), "matrix") == chain

    def test_plane_chain_roundtrip(self):
        from p1homotopy.plane import builtin_plane_chain, find_membership

        chain = builtin_plane_chain()
        blob = json.dumps(exprio.chain_to_json(chain, "plane"))
        assert exprio.chain_from_json(exprio.loads(blob), "plane") == chain
        cert = find_membership(chain.links[0].family, 2, 4)
        back = exprio.membership_from_json(exprio.membership_to_json(cert))
        assert back == cert

    def test_sl2_roundtrip(self):
        w = bezout_pair(named("squaring"))
        assert exprio.sl2_from_json(exprio.sl2_to_json(w)) == w
        bad = exprio.sl2_to_json(w) | {"q": "X"}
        with pytest.raises(SchemaError):
            exprio.sl2_from_json(bad)

    @pytest.mark.parametrize("n, f, g, p, q, bound", [
        (1, "X", "1", "1", "1 - X", "deg p < 0 and deg q < 1"),
        (2, "X^2 - X + 1", "X - 1", "X", "-X^2 - 1", "deg p < 1 and deg q < 2"),
        (0, "1", "0", "1", "X", "(p, q) = (1, 0) at n = 0"),
    ])
    def test_sl2_witness_outside_the_degree_bounds(self, n, f, g, p, q, bound):
        # p*f + q*g = 1 holds, but only the witness inside the bounds is unique
        doc = {"map": {"ring": "Z", "n": n, "f": f, "g": g}, "p": p, "q": q}
        with pytest.raises(SchemaError, match=f"outside the degree bounds, {re.escape(bound)}"):
            exprio.sl2_from_json(doc)
        inside = exprio.sl2_to_json(bezout_pair(exprio.map_from_json(doc["map"])))
        assert exprio.sl2_from_json(inside).map.n == n


def _random_homotopy_chain(rng, ring):
    from test_homotopy import random_cert

    def end(F, t):
        return tuple(p.subst("T", t).to_poly("X") for p in F)

    certs = [random_cert(rng, ring, rng.randint(1, 3))[:2] for _ in range(rng.randint(0, 3))]
    ends = [end(c, rng.randint(0, 1)) for c in certs] or [end(random_cert(rng, ring, 2)[:2], 0)]
    links = tuple(Link(c, rng.choice(ORIENTATIONS)) for c in certs)
    return Chain(links, ends[0], ends[-1])


def _random_zt(rng, vars, degree):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        e = tuple(rng.randint(0, degree) for _ in vars)
        terms[e] = rng.randint(-9, 9)
    return MPoly(ZZ, vars, terms)


def _random_matrix_chain(rng):
    from p1homotopy.projlinear import Mat2, MatrixFamily

    def family():
        return MatrixFamily(*(Poly(ZZ, "T", [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))])
                              for _ in range(4)))

    def end():
        return Mat2(*(rng.randint(-20, 20) for _ in range(4)))

    links = tuple(Link(family(), rng.choice(ORIENTATIONS)) for _ in range(rng.randint(0, 3)))
    return Chain(links, end(), end())


def _random_plane_chain(rng):
    from p1homotopy.plane import MembershipCertificate, PLANE_VARS, POINT_VARS, PlaneFamily

    def proof():
        if rng.random() < 0.3:
            return None
        N = rng.randint(1, 3)
        return MembershipCertificate(N, tuple(
            (_random_zt(rng, PLANE_VARS, 2), _random_zt(rng, PLANE_VARS, 2)) for _ in range(N + 1)))

    def end():
        return (_random_zt(rng, POINT_VARS, 3), _random_zt(rng, POINT_VARS, 3))

    links = tuple(
        Link(PlaneFamily(_random_zt(rng, PLANE_VARS, 3), _random_zt(rng, PLANE_VARS, 3)),
             rng.choice(ORIENTATIONS), proof())
        for _ in range(rng.randint(0, 3)))
    return Chain(links, end(), end())


@pytest.mark.parametrize("kind, ring", [
    ("homotopy", ZZ), ("homotopy", QQ), ("homotopy", RingTag("Fp", 7)),
    ("matrix", ZZ), ("plane", ZZ),
], ids=["homotopy-Z", "homotopy-Q", "homotopy-F7", "matrix", "plane"])
def test_random_chains_roundtrip(kind, ring):
    rng = random.Random(f"chain roundtrip:{kind}:{ring.name()}")
    for _ in range(30):
        if kind == "homotopy":
            chain = _random_homotopy_chain(rng, ring)
        else:
            chain = _random_matrix_chain(rng) if kind == "matrix" else _random_plane_chain(rng)
        doc = exprio.chain_to_json(chain, kind)
        back = exprio.chain_from_json(exprio.loads(json.dumps(doc)), kind)
        assert back == chain
        assert exprio.chain_to_json(back, kind) == doc


coeffs = st.lists(st.integers(-99, 99), min_size=0, max_size=8)


@given(coeffs)
def test_roundtrip_z(cs):
    p = Poly(ZZ, "X", cs)
    assert parse_poly(print_poly(p), X, ZZ) == p


@given(st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=9), min_size=0, max_size=6))
def test_roundtrip_q(cs):
    p = Poly(QQ, "X", cs)
    assert parse_poly(print_poly(p), X, QQ) == p


mpoly_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    st.integers(-99, 99),
    max_size=8,
)


@given(mpoly_terms)
def test_roundtrip_mpoly(terms):
    vars = ("T0", "T1", "T")
    p = MPoly(ZZ, vars, terms)
    assert parse_poly(print_poly(p), vars, ZZ) == p


BASE_TOKENS = ["(", "T0", "+", "2", "*", "T", "*", "T1", ")", "^", "2",
               "-", "3", "*", "T0", "*", "T1", "+", "7"]


@pytest.mark.parametrize("drop", range(len(BASE_TOKENS)))
def test_every_token_deletion_is_rejected_with_a_position(drop):
    mutated = " ".join(BASE_TOKENS[:drop] + BASE_TOKENS[drop + 1 :])
    with pytest.raises(ParseError) as err:
        parse_poly(mutated, ("T0", "T1", "T"), ZZ)
    assert isinstance(err.value.pos, int)
    assert 0 <= err.value.pos <= len(mutated)


@settings(max_examples=200)
@given(st.data())
def test_random_char_deletion_never_crashes(data):
    """Either the mutant still parses or it raises a positioned ParseError;
    nothing else may escape."""
    base = "(T0 + 2*T*T1)^2 - 3*T0*T1 + 7"
    cut = data.draw(st.integers(0, len(base) - 1))
    length = data.draw(st.integers(1, 3))
    mutated = base[:cut] + base[cut + length :]
    try:
        parse_poly(mutated, ("T0", "T1", "T"), ZZ)
    except ParseError as exc:
        assert isinstance(exc.pos, int) and 0 <= exc.pos <= len(mutated)


def test_only_ascii_digits_and_convertible_literals():
    for text, pos in (("X^²", 2), ("１*X", 0), ("X^٣", 2), ("X + ٣", 4)):
        with pytest.raises(ParseError) as err:
            zx(text)
        assert err.value.pos == pos and "unexpected character" in err.value.msg
    with pytest.raises(SchemaError):
        exprio.map_from_json({"ring": "Z", "n": 2, "f": "X^²", "g": "1"})
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integer literals of any length")
    digits = "7" * (limit + 1)
    for text, pos, ring in (("X + " + digits, 4, ZZ), ("X^" + digits, 2, ZZ),
                            ("1/" + digits, 2, QQ)):
        with pytest.raises(ParseError) as err:
            parse_poly(text, X, ring)
        assert err.value.pos == pos and "too long" in err.value.msg


class TestParseWork:
    def test_inputs_below_the_budget_parse(self):
        p = parse_poly("(X+T+1)^50", ("X", "T"), ZZ)
        assert len(p.raw) == 51 * 52 // 2 and p.raw[(25, 25)] == 126410606437752
        assert zx("X^4096") == Poly(ZZ, "X", (0,) * 4096 + (1,))
        f, g = parse_pair("(X+1)^50/(X+2)^49", X, ZZ)
        assert (f.actual_degree(), g.actual_degree()) == (50, 49)

    def test_input_above_the_budget_is_refused_at_its_operator(self):
        with pytest.raises(ParseError) as err:
            parse_poly("(X+T+1)^300", ("X", "T"), ZZ)
        assert err.value.pos == 7 and "coefficient products" in err.value.msg

    @pytest.mark.parametrize("text, ring, pos", [
        ("(2^4096)^2048", ZZ, 8),  # few products, of ever longer ints
        ("(X+T+1)^300", QQ, 7),
        ("(1/2*X + 1/3*T + 1)^300", QQ, 19),  # Fraction products weigh more
        ("(X + 2^4096)^300", ZZ, 12),
    ])
    def test_products_are_charged_by_size(self, text, ring, pos):
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_poly(text, ("X", "T"), ring)
        # 0.04 to 0.4 s on a 2-core VM; charged by count alone, the first ran
        # 3.3 s and the second was refused only after 1.3 s
        assert time.perf_counter() - start < 1.2
        assert err.value.pos == pos and "coefficient products" in err.value.msg

    def test_fraction_products_weigh_more(self):
        # 178,920 coefficient products: under the budget as ints, over it
        # as Fractions
        assert len(parse_poly("(X+T+1)^70", ("X", "T"), QQ).raw) == 71 * 72 // 2
        with pytest.raises(ParseError, match="coefficient products"):
            parse_poly("(1/2*X + 1/3*T + 1)^70", ("X", "T"), QQ)

    def test_sized_inputs_below_the_budget_parse(self):
        assert zx("(2^4096)^64") == Poly(ZZ, "X", (2 ** (4096 * 64),))
        big = "9" * 4000
        assert zx(f"{big}*X^3 + {big}") == Poly(ZZ, "X", (int(big), 0, 0, int(big)))
        p = parse_poly("(1/2*X + 1/3*T + 1)^20", ("X", "T"), QQ)
        assert len(p.raw) == 21 * 22 // 2 and p.raw[(20, 0)] == Fraction(1, 2**20)

    def test_integral_values_over_q_parse_as_over_z(self):
        q = parse_poly("(X+T+1)^50 - (2/2)*X", ("X", "T"), QQ)
        z = parse_poly("(X+T+1)^50 - X", ("X", "T"), ZZ)
        assert {e: Fraction(c) for e, c in z.raw.items()} == q.raw
        assert {type(c) for c in q.raw.values()} == {Fraction}


@pytest.mark.parametrize("text, vars", [
    ("X^2", ("X", "T")), ("T*X + 1", ("X", "T")), ("X^2 + 2*T*X + 2*T", ("X", "T")),
    ("X + 1", ("X", "T")), ("X + (2*T - 1)", ("X", "T")), ("X^2 - T*X + T", ("X", "T")),
    ("X - 1", ("X", "T")), ("X^2", X), ("1", X), ("X^2 - X + 1", X), ("X - 1", X),
    ("(T0 + T*T1)^2", ("T0", "T1", "T")),
    ("X^3 - 3*X^2*T + X^2 + 2*X*T^2 - 2*X*T - T - 1", ("X", "T")),
])
def test_one_mpoly_per_parse(monkeypatch, text, vars):
    made = []
    init = MPoly.__init__

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(MPoly, "__init__", counting_init)
    parse_poly(text, vars, ZZ)
    assert len(made) == 1


def _random_tree(rng, ring, names, depth):
    """A tree of ("lit", text, value), ("var", name), ("neg", t), ("pow", t, k)
    and ("+"|"-"|"*", a, b) nodes; literals over F_p may be p or more."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.4:
            return ("var", rng.choice(names))
        if ring == QQ and rng.random() < 0.5:
            a, b = rng.randint(0, 30), rng.randint(1, 9)
            return ("lit", f"{a}/{b}", Fraction(a, b))
        k = rng.choice((rng.randint(0, 12), rng.randint(0, 3 * (ring.modulus or 10))))
        return ("lit", str(k), k)
    op = rng.choice("+-*^n")
    if op == "n":
        return ("neg", _random_tree(rng, ring, names, depth - 1))
    if op == "^":  # a shallow base keeps the degree small
        return ("pow", _random_tree(rng, ring, names, min(depth - 1, 1)), rng.randint(0, 4))
    return (op, _random_tree(rng, ring, names, depth - 1), _random_tree(rng, ring, names, depth - 1))


def _value(tree, pt):
    kind = tree[0]
    if kind == "lit":
        return tree[2]
    if kind == "var":
        return pt[tree[1]]
    if kind == "neg":
        return -_value(tree[1], pt)
    if kind == "pow":
        return _value(tree[1], pt) ** tree[2]
    a, b = _value(tree[1], pt), _value(tree[2], pt)
    return a + b if kind == "+" else a - b if kind == "-" else a * b


def _render(tree, rng):
    kind = tree[0]
    if kind in ("lit", "var"):
        return tree[1]
    if kind == "neg":
        return "-" + _atom(tree[1], rng)
    if kind == "pow":
        return _atom(tree[1], rng, base=True) + f"^{tree[2]}"
    return f"{_atom(tree[1], rng)} {kind} {_atom(tree[2], rng)}"


def _atom(tree, rng, base=False):
    """Text that parses as one atom.  A negated leaf goes unparenthesised
    except as a base of '^', where a leading '-' would bind more loosely."""
    if tree[0] in ("lit", "var"):
        return tree[1]
    if tree[0] == "neg" and tree[1][0] in ("lit", "var") and not base:
        return "-" + tree[1][1]
    text = f"({_render(tree, rng)})"
    return f"({text})" if rng.random() < 0.2 else text


@pytest.mark.parametrize("ring", [ZZ, QQ, RingTag("Fp", 7), RingTag("Fp", 1000003)],
                         ids=["Z", "Q", "F7", "F1000003"])
def test_parse_agrees_with_plain_evaluation(ring):
    """Random expression trees, parsed and evaluated at random points, against
    the same trees evaluated with int/Fraction arithmetic (reduced mod p)."""
    rng = random.Random(f"parse-oracle:{ring.name()}")
    for k in range(150):
        names = ("X", "T") if k % 2 else ("X",)
        tree = _random_tree(rng, ring, names, 4)
        text = _render(tree, rng)
        parsed = parse_poly(text, names, ring)
        for _ in range(3):
            pt = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if ring == QQ
                  else rng.randint(-5, 5) for v in names}
            got = parsed.eval(pt if len(names) > 1 else pt["X"]).value
            want = _value(tree, pt)
            assert got == (want % ring.modulus if ring.modulus else want), (text, pt)
