
import pytest

from p1homotopy.exprio import parse_poly
from p1homotopy.homotopy import (
    CertResultantNotUnitError,
    Chain,
    ChainLink,
    FORWARD,
    NotMonicInXError,
    REVERSED,
    XDegreeTooHighError,
    builtin_chain,
    cert_resultant_oracle,
    endpoint,
    reverse,
    validate_cert,
    verify_chain,
)
from p1homotopy.monoid import validate
from p1homotopy.poly import Poly
from p1homotopy.rings import Scalar, ZZ

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
        assert err.value.res.trim() in (t2, -t2)

    def test_third_link(self):
        c = validate_cert(xt("X^2 + 2*T*X + 2*T"), xt("X + (2*T - 1)"))
        assert c.res == Poly.one(ZZ, "T")
        assert cert_resultant_oracle(c) == Poly.one(ZZ, "T")

    def test_shape_errors(self):
        with pytest.raises(NotMonicInXError):
            validate_cert(xt("T*X^2"), xt("1"))
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
            c = validate_cert(link.F, link.G)
            for t in (0, 1):
                u = endpoint(c, t)
                assert u.res == c.res.eval(Scalar(ZZ, t))


class TestReverse:
    def test_substitution(self):
        c = validate_cert(xt("X^2"), xt("T*X + 1"))
        r = reverse(c)
        assert r.G == xt("(1 - T)*X + 1")
        assert r.F == xt("X^2")

    def test_involution_and_swap(self):
        for link in builtin_chain().links:
            c = validate_cert(link.F, link.G)
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
            ring=ZZ,
            links=(ChainLink(xt("X^2"), xt("1"), FORWARD),),
            from_pair=(zx("X^2"), zx("1")),
            to_pair=(zx("X^2"), zx("1")),
        )
        assert verify_chain(chain).passed

    def test_empty_chain(self):
        chain = Chain(ring=ZZ, links=(), from_pair=(zx("X"), zx("1")), to_pair=(zx("X"), zx("1")))
        assert verify_chain(chain).passed
        bad = Chain(ring=ZZ, links=(), from_pair=(zx("X"), zx("1")), to_pair=(zx("X^2"), zx("1")))
        assert not verify_chain(bad).passed

    def test_orientation_flip_fails_at_junction_2_3(self):
        base = builtin_chain()
        links = list(base.links)
        links[2] = ChainLink(links[2].F, links[2].G, FORWARD)
        report = verify_chain(Chain(ZZ, tuple(links), base.from_pair, base.to_pair))
        assert not report.passed
        assert report.first_failure == "junction 2/3"
        assert report.junctions[0].ok and not report.junctions[1].ok

    def test_invalid_link_reported_not_raised(self):
        chain = Chain(
            ring=ZZ,
            links=(ChainLink(xt("X^2"), xt("X + T"), FORWARD),),
            from_pair=(zx("X^2"), zx("1")),
            to_pair=(zx("X^2"), zx("1")),
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
        current = validate(*chain.from_pair)
        for lr in report.links:
            assert lr.start == current
            current = lr.end
        assert current == validate(*chain.to_pair)
