import random
from fractions import Fraction

import pytest

from p1homotopy.chains import Chain, Link
from p1homotopy.exprio import parse_poly
from p1homotopy.homotopy import (
    CertResultantNotUnitError,
    FORWARD,
    NotMonicInXError,
    REVERSED,
    XDegreeTooHighError,
    builtin_chain,
    endpoint,
    reverse,
    validate_cert,
    verify_chain,
)
from p1homotopy.monoid import validate
from p1homotopy.mpoly import MPoly
from p1homotopy.poly import Poly
from p1homotopy.resultants import resultant_oracle
from p1homotopy.rings import QQ, RingTag, Scalar, ZZ

XT = ("X", "T")


def xt(text):
    return parse_poly(text, XT, ZZ)


def zx(text):
    return parse_poly(text, ("X",), ZZ)


def zmap(f, g):
    return validate(zx(f), zx(g))


class TestValidateCert:
    def test_first_link(self):
        c = validate_cert(xt("X^2"), xt("T*X + 1"))
        assert c.n == 2 and c.res == Poly.one(ZZ, "T")

    def test_nonunit_t_square(self):
        with pytest.raises(CertResultantNotUnitError) as err:
            validate_cert(xt("X^2"), xt("X + T"))
        t2 = parse_poly("T^2", ("T",), ZZ)
        assert err.value.res in (t2, -t2)

    def test_third_link(self):
        c = validate_cert(xt("X^2 + 2*T*X + 2*T"), xt("X + (2*T - 1)"))
        assert c.res == Poly.one(ZZ, "T")
        assert resultant_oracle(c.F, c.G, c.n, c.n) == Poly.one(ZZ, "T")

    def test_shape_errors(self):
        # the X^n coefficient must be the constant 1, read off the raw terms
        for F in ("T*X^2", "2*X^2", "(1 + T)*X^2 + X"):
            with pytest.raises(NotMonicInXError):
                validate_cert(xt(F), xt("1"))
        with pytest.raises(XDegreeTooHighError):
            validate_cert(xt("X"), xt("X^2"))

    def test_unit_rule_depends_on_the_coefficient_ring(self):
        # over a field any nonzero constant of k[T] is a unit; over Z only +-1
        from p1homotopy.rings import QQ

        F = parse_poly("X^2", XT, ZZ)
        G = parse_poly("T*X + 2", XT, ZZ)
        with pytest.raises(CertResultantNotUnitError) as err:
            validate_cert(F, G, ZZ)
        assert str(err.value.res) == "4"
        Fq = parse_poly("X^2", XT, QQ)
        Gq = parse_poly("T*X + 2", XT, QQ)
        c = validate_cert(Fq, Gq, QQ)
        assert str(c.res) == "4"
        assert endpoint(c, 1).g == parse_poly("X + 2", ("X",), QQ)


class TestEndpoints:
    def test_first_link_endpoints(self):
        c = validate_cert(xt("X^2"), xt("T*X + 1"))
        assert endpoint(c, 0) == zmap("X^2", "1")
        assert endpoint(c, 1) == zmap("X^2", "X + 1")

    def test_constant_certificate(self):
        c = validate_cert(xt("X^2"), xt("1"))
        assert endpoint(c, 0) == endpoint(c, 1) == zmap("X^2", "1")

    def test_last_link_endpoint(self):
        c = validate_cert(xt("X^2 - T*X + T"), xt("X - 1"))
        assert endpoint(c, 1) == zmap("X^2 - X + 1", "X - 1")

    def test_resultant_specializes(self):
        chain = builtin_chain()
        for link in chain.links:
            c = validate_cert(*link.family)
            for t in (0, 1):
                u = endpoint(c, t)
                assert u.res == c.res.eval(Scalar(ZZ, t))


def random_cert(rng, ring, k):
    """F/G, the first column of a product of k elementary matrices
    [[X + c(T), -1/u], [u, 0]] (determinant 1) with c a random T-polynomial
    and u a unit, and (-1)^(k(k-1)/2) * prod(u), its resultant."""

    def const(v):
        return MPoly(ring, XT, {(0, 0): v})

    m = (const(1), const(0), const(0), const(1))
    res = Scalar(ring, (-1) ** (k * (k - 1) // 2))
    for _ in range(k):
        if ring == ZZ:
            u, cs = rng.choice((1, -1)), [rng.randint(-3, 3) for _ in range(3)]
        elif ring == QQ:
            u = rng.choice((2, -2, Fraction(1, 2), Fraction(-3, 2), 1))
            cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        else:
            u, cs = rng.randrange(1, ring.modulus), [rng.randrange(ring.modulus) for _ in range(3)]
        u = Scalar(ring, u)
        a = MPoly(ring, XT, {(1, 0): 1, **{(0, j): c for j, c in enumerate(cs)}})
        e = (a, const(-ring.one().exact_div(u)), const(u), const(0))
        m = (m[0] * e[0] + m[1] * e[2], m[0] * e[1] + m[1] * e[3],
             m[2] * e[0] + m[3] * e[2], m[2] * e[1] + m[3] * e[3])
        res = res * u
    return m[0], m[2], res


class TestEndpointsInheritTheResultant:
    """endpoint builds its map from the certificate's resultant with no
    elimination; validating the substituted pair afresh must agree."""

    @pytest.mark.parametrize("ring", [ZZ, QQ, RingTag("Fp", 7), RingTag("Fp", 1000003)],
                             ids=["Z", "Q", "F7", "F1000003"])
    def test_random_certificates(self, ring):
        rng = random.Random(f"endpoints:{ring.name()}")
        non_pm_one = 0
        for _ in range(25):
            F, G, res = random_cert(rng, ring, rng.randint(1, 4))
            cert = validate_cert(F, G, ring)
            assert cert.res == Poly.constant(ring, "T", res)
            non_pm_one += res.value not in (1, -1)
            for t in (0, 1):
                f = F.subst("T", t).to_poly("X")
                g = G.subst("T", t).to_poly("X")
                fresh = validate(f, g, ring)
                got = endpoint(cert, t)
                assert got == fresh and got.res == fresh.res == res
        if ring == QQ:
            assert non_pm_one >= 10

    def test_builtin_chain(self):
        for link in builtin_chain().links:
            F, G = link.family
            cert = validate_cert(F, G)
            for t in (0, 1):
                fresh = validate(F.subst("T", t).to_poly("X"), G.subst("T", t).to_poly("X"))
                got = endpoint(cert, t)
                assert got == fresh and got.res == fresh.res


class TestReverse:
    def test_substitution(self):
        c = validate_cert(xt("X^2"), xt("T*X + 1"))
        r = reverse(c)
        assert r.G == xt("(1 - T)*X + 1")
        assert r.F == xt("X^2")

    def test_involution_and_swap(self):
        for link in builtin_chain().links:
            c = validate_cert(*link.family)
            r = reverse(c)
            assert reverse(r) == c
            assert endpoint(r, 0) == endpoint(c, 1)
            assert endpoint(r, 1) == endpoint(c, 0)


class TestVerifyChain:
    def test_builtin_passes(self):
        report = verify_chain(builtin_chain("prop_3_4_3"))
        assert report.passed
        assert [lr.detail.res for lr in report.links] == [Poly.one(ZZ, "T")] * 4
        assert all(jr.ok for jr in report.junctions)
        assert report.from_ok and report.to_ok

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_chain("prop_0_0_0")

    def test_single_constant_certificate(self):
        chain = Chain(
            links=(Link((xt("X^2"), xt("1")), FORWARD),),
            from_=(zx("X^2"), zx("1")),
            to=(zx("X^2"), zx("1")),
        )
        assert verify_chain(chain).passed

    def test_empty_chain(self):
        chain = Chain(links=(), from_=(zx("X"), zx("1")), to=(zx("X"), zx("1")))
        assert verify_chain(chain).passed
        bad = Chain(links=(), from_=(zx("X"), zx("1")), to=(zx("X^2"), zx("1")))
        assert not verify_chain(bad).passed

    def test_orientation_flip_fails_at_junction_2_3(self):
        base = builtin_chain()
        links = list(base.links)
        links[2] = Link(links[2].family, FORWARD)
        report = verify_chain(Chain(tuple(links), base.from_, base.to))
        assert not report.passed
        assert report.first_failure == "junction 2/3"
        assert report.junctions[0].ok and not report.junctions[1].ok

    def test_invalid_link_reported_not_raised(self):
        chain = Chain(
            links=(Link((xt("X^2"), xt("X + T")), FORWARD),),
            from_=(zx("X^2"), zx("1")),
            to=(zx("X^2"), zx("1")),
        )
        report = verify_chain(chain)
        assert not report.passed
        assert report.links[0].detail.error is not None
        assert report.first_failure.startswith("link 1")

    def test_report_walk_reconstructs_connectivity(self):
        """A PASS report must chain together: walking the reported endpoint
        maps reproduces from -> to."""
        chain = builtin_chain()
        report = verify_chain(chain)
        assert report.passed
        current = validate(*chain.from_)
        for lr in report.links:
            assert lr.start == current
            current = lr.end
        assert current == validate(*chain.to)
