import random

import pytest

from p1homotopy.exprio import parse_poly, print_map
from p1homotopy.monoid import (
    DegreeTooHighError,
    NotMonicError,
    ResultantNotUnitError,
    bezout_pair,
    dehomogenize,
    homogenize,
    mat_mul,
    named,
    oplus,
    validate,
)
from p1homotopy.mpoly import MPoly
from p1homotopy.poly import Poly
from p1homotopy.randgen import RandomMapSpec, _gen_valid_map
from p1homotopy.resultants import SYLVESTER_SIZE_LIMIT, resultant_oracle
from p1homotopy.rings import QQ, RingMismatchError, RingTag, Scalar, ZZ

F5 = RingTag("Fp", 5)


def zx(text, ring=ZZ):
    return parse_poly(text, ("X",), ring)


class TestValidate:
    def test_squaring_is_valid(self):
        u = validate(zx("X^2"), zx("1"))
        assert u.n == 2 and u.res == Scalar(ZZ, 1)

    def test_unit_resultant_depends_on_the_ring(self):
        with pytest.raises(ResultantNotUnitError) as err:
            validate(zx("X^2"), zx("2"))
        assert err.value.res == Scalar(ZZ, 4)
        u = validate(zx("X^2", QQ), zx("2", QQ), QQ)
        assert u.res == Scalar(QQ, 4)

    def test_common_factor_rejected_everywhere(self):
        for ring in (ZZ, QQ, F5):
            with pytest.raises(ResultantNotUnitError) as err:
                validate(zx("X^2", ring), zx("X", ring), ring)
            assert err.value.res.is_zero()

    def test_not_monic(self):
        with pytest.raises(NotMonicError):
            validate(zx("2*X"), zx("1"))
        with pytest.raises(NotMonicError):
            validate(Poly.zero(ZZ, "X"), zx("1"))

    def test_degree_too_high(self):
        with pytest.raises(DegreeTooHighError):
            validate(zx("X"), zx("X^2"))
        with pytest.raises(DegreeTooHighError):
            validate(zx("X"), zx("X"))

    @pytest.mark.parametrize("f, g, ring, message", [
        (zx("X"), zx("1", QQ), None, "not in the declared ring"),
        (zx("X"), zx("1"), QQ, "not in the declared ring"),
        (zx("X"), parse_poly("1", ("T",), ZZ), None, "variable X vs T"),
    ], ids=["pair_rings", "declared_ring", "variables"])
    def test_mismatches(self, f, g, ring, message):
        with pytest.raises(RingMismatchError, match=message):
            validate(f, g, ring)

    def test_neutral_element_shape(self):
        e = validate(zx("1"), Poly.zero(ZZ, "X"))
        assert e.n == 0 and e.res == Scalar(ZZ, 1)
        with pytest.raises(DegreeTooHighError):
            validate(zx("1"), zx("1"))


class TestBezoutPair:
    def test_identity_map(self):
        w = bezout_pair(named("identity"))
        assert w.p.is_zero() and w.q == zx("1")
        m = w.matrix()
        assert m[0][0] == zx("X") and m[0][1] == zx("-1")
        assert m[1][0] == zx("1") and m[1][1].is_zero()

    def test_minus_epsilon(self):
        w = bezout_pair(named("minus_epsilon"))
        assert w.p.is_zero() and w.q == zx("-1")
        m = w.matrix()
        assert m[0][1] == zx("1")

    def test_degree_two(self):
        u = validate(zx("X^2 - X + 1"), zx("X - 1"))
        w = bezout_pair(u)
        assert w.p == zx("1") and w.q == zx("-X")

    def test_unit_normalization_over_q(self):
        u = validate(zx("X^2", QQ), zx("2", QQ), QQ)
        w = bezout_pair(u)
        assert w.p * u.f + w.q * u.g == Poly.one(QQ, "X")

    def test_degree_bounds(self):
        rng = random.Random(3)
        for _ in range(30):
            u = _gen_valid_map(rng, RandomMapSpec(ZZ, 1, 4, 3))
            w = bezout_pair(u)
            assert w.p.actual_degree() < u.n - 1
            assert w.q.actual_degree() < u.n
            assert w.p * u.f + w.q * u.g == Poly.one(ZZ, "X")

    def test_witness_outside_the_bounds_raises(self, monkeypatch):
        # an explicit check, not an assert, so it also holds under python -O
        import p1homotopy.monoid as monoid

        u = validate(zx("X^2 - X + 1"), zx("X - 1"))
        monkeypatch.setattr(monoid, "res_bezout", lambda *a: (zx("X"), zx("-X")))
        with pytest.raises(ArithmeticError, match="degree bounds"):
            bezout_pair(u)


class TestOplus:
    def test_headline_sum(self):
        s = oplus(named("identity"), named("minus_epsilon"))
        assert s.f == zx("X^2 - X + 1") and s.g == zx("X - 1")
        assert print_map(s) == "(X^2 - X + 1)/(X - 1)"

    def test_two_sided_identity(self):
        z = named("zero")
        for u in (named("identity"), named("squaring"), named("minus_epsilon")):
            assert oplus(u, z) == u
            assert oplus(z, u) == u

    def test_doubling_the_identity(self):
        s = oplus(named("identity"), named("identity"))
        assert s.f == zx("X^2 - 1") and s.g == zx("X")
        # res value frozen from the cofactor oracle
        assert resultant_oracle(s.f, s.g, 2, 2) == Scalar(ZZ, -1)
        assert s.res == Scalar(ZZ, -1)

    def test_matrix_of_sum_is_product(self):
        rng = random.Random(5)
        for ring in (ZZ, QQ, F5):
            for _ in range(10):
                u = _gen_valid_map(rng, RandomMapSpec(ring, 0, 2, 3))
                v = _gen_valid_map(rng, RandomMapSpec(ring, 0, 2, 3))
                s = oplus(u, v)  # carries the product; validate its pair afresh
                lhs = bezout_pair(validate(s.f, s.g, ring)).matrix()
                rhs = mat_mul(bezout_pair(u).matrix(), bezout_pair(v).matrix())
                assert lhs == rhs

    def test_associativity_and_degrees(self):
        rng = random.Random(7)
        for _ in range(15):
            u, v, w = (_gen_valid_map(rng, RandomMapSpec(ZZ, 0, 2, 3)) for _ in range(3))
            assert oplus(oplus(u, v), w) == oplus(u, oplus(v, w))
            assert oplus(u, v).n == u.n + v.n


class TestCarriedProofs:
    """oplus proves the sum's resultant and witness; validating the sum's
    pair afresh (Bareiss, then res_bezout) must give the same values."""

    RINGS = (ZZ, QQ, RingTag("Fp", 7), RingTag("Fp", 1000003))

    def test_sum_equals_a_fresh_validation(self):
        rng = random.Random(11)
        sums = signs = 0
        for ring in self.RINGS:
            acc = _gen_valid_map(rng, RandomMapSpec(ring, 0, 3, 3))
            for _ in range(80):
                v = _gen_valid_map(rng, RandomMapSpec(ring, 0, 3, 3))
                # every third sum continues a fold, so carried witnesses feed sums
                u = acc if sums % 3 and acc.n < 12 else _gen_valid_map(rng, RandomMapSpec(ring, 0, 3, 3))
                acc = s = oplus(u, v)
                fresh = validate(s.f, s.g, ring)
                assert fresh.witness is None
                assert s == fresh and s.res == fresh.res
                w = bezout_pair(fresh)
                assert s.witness == (w.p, w.q)
                sums += 1
                signs += u.n * v.n % 2
        assert sums >= 300 and signs > 30

    def test_bezout_pair_of_a_sum_runs_no_elimination(self, monkeypatch):
        import p1homotopy.monoid as monoid

        s = oplus(named("identity"), named("minus_epsilon"))

        def refuse(*args):
            raise AssertionError("res_bezout called on a carried witness")

        monkeypatch.setattr(monoid, "res_bezout", refuse)
        w = bezout_pair(s)
        assert (w.p, w.q) == (zx("1"), zx("-X"))
        assert oplus(s, named("zero")) == s

    def test_the_sum_keeps_the_sylvester_size_limit(self):
        half = SYLVESTER_SIZE_LIMIT // 4
        u = validate(zx(f"X^{half}"), zx("1"))
        assert oplus(u, u).n == 2 * half
        big = validate(zx(f"X^{half + 1}"), zx("1"))
        with pytest.raises(ValueError, match="Sylvester matrix of size"):
            oplus(big, big)


class TestNamed:
    def test_registry(self):
        assert print_map(named("identity")) == "X/1"
        assert print_map(named("zero")) == "1/0"
        assert print_map(named("squaring")) == "X^2/1"
        assert print_map(named("minus_epsilon")) == "(X - 1)/(-1)"
        with pytest.raises(ValueError):
            named("cubing")


class TestHomogenize:
    def test_examples(self):
        vars = ("T0", "T1")
        assert homogenize(named("squaring")) == (
            parse_poly("T0^2", vars, ZZ),
            parse_poly("T1^2", vars, ZZ),
        )
        assert homogenize(named("minus_epsilon")) == (
            parse_poly("T0 - T1", vars, ZZ),
            parse_poly("-T1", vars, ZZ),
        )
        assert homogenize(named("identity")) == (
            parse_poly("T0", vars, ZZ),
            parse_poly("T1", vars, ZZ),
        )

    def test_inverse(self):
        rng = random.Random(9)
        for _ in range(20):
            u = _gen_valid_map(rng, RandomMapSpec(ZZ, 0, 3, 3))
            assert dehomogenize(*homogenize(u)) == u

    def test_dehomogenize_rejects_bad_shapes(self):
        vars = ("T0", "T1")
        with pytest.raises(ValueError):
            dehomogenize(parse_poly("T0^2 + T1", vars, ZZ), parse_poly("T1^2", vars, ZZ))
        with pytest.raises(ValueError):
            dehomogenize(parse_poly("2*T0^2", vars, ZZ), parse_poly("T1^2", vars, ZZ))
        with pytest.raises(ValueError):
            dehomogenize(parse_poly("T0^2", vars, ZZ), parse_poly("T0^2", vars, ZZ))


class TestBezoutUniqueness:
    def test_double_solve_agrees(self):
        # the unique pair within the degree bounds, found twice with
        # independent pivot orders, through the registered property
        from p1homotopy.properties import run_property

        result = run_property("bezout_unique", 60, seed=123)
        assert result.passed, result.counterexample
