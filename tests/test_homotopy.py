import random
from fractions import Fraction
from functools import partial

import pytest

from p1homotopy import homotopy
from p1homotopy.chains import FORWARD, REVERSED, Chain, Link, exact, walk_chain
from p1homotopy.exprio import builtin_chain, parse_poly
from p1homotopy.homotopy import (
    CertResultantNotUnitError,
    CertValidationError,
    NotMonicInXError,
    XDegreeTooHighError,
    endpoint,
    reverse,
    validate_cert,
    verify_chain,
)
from p1homotopy.monoid import MapValidationError, validate
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

    @pytest.mark.parametrize("F, G, g", [
        (zx("X^2"), zx("1"), "1"),
        (parse_poly("X^2", ("T", "X"), ZZ), parse_poly("T*X + 1", ("T", "X"), ZZ), "T*X + 1"),
    ], ids=["polys_in_x", "mpolys_in_t_x"])
    def test_inputs_are_read_in_x_and_t(self, F, G, g):
        c = validate_cert(F, G)
        assert (c.F, c.G, c.res) == (xt("X^2"), xt(g), Poly.one(ZZ, "T"))

    def test_coefficients_from_another_ring(self):
        with pytest.raises(CertValidationError, match="coefficients in Q, expected Z"):
            validate_cert(xt("X^2"), parse_poly("T*X + 1", XT, QQ))

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
        chain = builtin_chain("homotopy", "prop_3_4_3")
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
        for link in builtin_chain("homotopy", "prop_3_4_3").links:
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
        for link in builtin_chain("homotopy", "prop_3_4_3").links:
            c = validate_cert(*link.family)
            r = reverse(c)
            assert reverse(r) == c
            assert endpoint(r, 0) == endpoint(c, 1)
            assert endpoint(r, 1) == endpoint(c, 0)


class TestVerifyChain:
    def test_builtin_passes(self):
        report = verify_chain(builtin_chain("homotopy", "prop_3_4_3"))
        assert report.passed
        assert [lr.fields["res"] for lr in report.links] == [Poly.one(ZZ, "T")] * 4
        assert all(jr.ok for jr in report.junctions)
        assert report.from_ok and report.to_ok

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin_chain("homotopy", "prop_0_0_0")

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
        base = builtin_chain("homotopy", "prop_3_4_3")
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
        assert report.links[0].fields["error"] is not None
        assert report.first_failure.startswith("link 1")

    def test_report_walk_reconstructs_connectivity(self):
        """A PASS report must chain together: walking the reported endpoint
        maps reproduces from -> to."""
        chain = builtin_chain("homotopy", "prop_3_4_3")
        report = verify_chain(chain)
        assert report.passed
        current = validate(*chain.from_)
        for lr in report.links:
            assert lr.start == current
            current = lr.end
        assert current == validate(*chain.to)


RINGS = [ZZ, QQ, RingTag("Fp", 7), RingTag("Fp", 1000003)]
RING_IDS = ["Z", "Q", "F7", "F1000003"]


class TestEndpointReadOffTheCertificate:
    """endpoint reads f_t and g_t off the raw terms; the substitution route
    gives the same maps, coefficient types included."""

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_random_certificates(self, ring):
        rng = random.Random(f"endpoint types:{ring.name()}")
        for _ in range(25):
            F, G, _ = random_cert(rng, ring, rng.randint(1, 4))
            cert = validate_cert(F, G, ring)
            for t in (0, 1):
                fresh = validate(F.subst("T", t).to_poly("X"), G.subst("T", t).to_poly("X"), ring)
                got = endpoint(cert, t)
                assert got == fresh
                for a, b in ((got.f, fresh.f), (got.g, fresh.g)):
                    assert [(type(c), c) for c in a.raw] == [(type(c), c) for c in b.raw]

    def test_sums_that_vanish_at_t_1(self):
        ring = RingTag("Fp", 7)
        F = MPoly(ring, XT, {(2, 0): 1, (1, 0): 3, (1, 1): 4, (0, 2): 6, (0, 0): 1})
        cert = validate_cert(F, MPoly(ring, XT, {(0, 0): 1}), ring)
        assert endpoint(cert, 1).f == Poly(ring, "X", (0, 0, 1))
        assert endpoint(cert, 0).f == Poly(ring, "X", (1, 3, 1))


def _interpolated_chain(rng, ring, links, factors):
    """A valid chain of `links` certificates: the first column of a product of
    elementary matrices [[X + c_j(T), -1/u_j], [u_j, 0]], each c_j moving
    linearly from a_ij to a_(i+1)j; a reversed link holds the reversed family.
    Its ends are read by substitution, not by `endpoint`."""
    def column(cs):
        one, zero = MPoly(ring, XT, {(0, 0): 1}), MPoly(ring, XT, {})
        m = (one, zero, zero, one)
        for u, c in zip(us, cs):
            e = (MPoly(ring, XT, {(1, 0): 1, **c}), MPoly(ring, XT, {(0, 0): -ring.one().exact_div(u)}),
                 MPoly(ring, XT, {(0, 0): u}), zero)
            m = (m[0] * e[0] + m[1] * e[2], m[0] * e[1] + m[1] * e[3],
                 m[2] * e[0] + m[3] * e[2], m[2] * e[1] + m[3] * e[3])
        return m[0], m[2]

    def draw():
        return rng.randint(-3, 3) if ring.modulus is None else rng.randrange(ring.modulus)

    us = [Scalar(ring, rng.choice((1, -1) if ring == ZZ else (1, 2, -3))) for _ in range(factors)]
    stops = [[draw() for _ in range(factors)] for _ in range(links + 1)]
    chain_links = []
    for a, b in zip(stops, stops[1:]):
        orientation = rng.choice((FORWARD, REVERSED))
        if orientation == REVERSED:
            a, b = b, a
        family = column([{(0, 0): x, (0, 1): y - x} for x, y in zip(a, b)])
        chain_links.append(Link(family, orientation))

    def at(stop):
        F, G = column([{(0, 0): x} for x in stop])
        return F.subst("T", 0).to_poly("X"), G.subst("T", 0).to_poly("X")

    return Chain(tuple(chain_links), at(stops[0]), at(stops[-1]))


def _verify_every_end(chain):
    """verify_chain as it was before ends were reused: both ends validated
    first, every link certified by walk_chain."""
    ring = chain.from_[0].ring
    ends, end_failure = (None, None), None
    try:
        ends = [validate(f, g, ring) for f, g in (chain.from_, chain.to)]
    except MapValidationError as exc:
        end_failure = f"end map invalid: {exc}"
    certified = map(partial(homotopy._certify_link, ring=ring), chain.links)
    return walk_chain("homotopy", chain.links, certified, exact, *ends, end_failure=end_failure)


class TestChainEnds:
    """An end equal to its adjacent link's proven endpoint is that endpoint;
    every other end is validated; each link is certified once."""

    @pytest.fixture
    def spies(self, monkeypatch):
        calls = {"validate": 0, "validate_cert": 0}
        for name in calls:
            def spy(*args, _fn=getattr(homotopy, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(homotopy, name, spy)
        return calls

    def test_builtin_makes_no_end_validation(self, spies):
        chain = builtin_chain("homotopy", "prop_3_4_3")
        report = verify_chain(chain)
        assert report.passed and report.from_ok and report.to_ok
        assert spies == {"validate": 0, "validate_cert": len(chain.links)}

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_random_valid_chains(self, ring, spies):
        rng = random.Random(f"chain ends:{ring.name()}")
        for _ in range(6):
            chain = _interpolated_chain(rng, ring, rng.randint(1, 4), rng.randint(1, 3))
            spies.update(validate=0, validate_cert=0)
            report = verify_chain(chain)
            assert report.passed and report.from_ok and report.to_ok, report.failures
            assert spies == {"validate": 0, "validate_cert": len(chain.links)}
            assert report == _verify_every_end(chain)

    def chain(self):
        return builtin_chain("homotopy", "prop_3_4_3")

    def test_an_end_that_differs_is_validated(self, spies):
        base, other = self.chain(), (zx("X^2"), zx("X + 1"))
        for chain, failure in ((Chain(base.links, other, base.to), "from mismatch"),
                               (Chain(base.links, base.from_, other), "to mismatch")):
            spies.update(validate=0, validate_cert=0)
            report = verify_chain(chain)
            assert report.failures == [failure] and spies["validate"] == 1
            assert report == _verify_every_end(chain)

    def test_an_invalid_end_is_reported_first(self, spies):
        base, bad = self.chain(), (zx("X^2"), zx("2"))
        for chain in (Chain(base.links, bad, base.to), Chain(base.links, base.from_, bad)):
            report = verify_chain(chain)
            assert report.first_failure.startswith("end map invalid: ")
            assert not report.from_ok and not report.to_ok
            assert report == _verify_every_end(chain)

    def test_ends_next_to_an_invalid_link_and_of_an_empty_chain(self, spies):
        base = self.chain()
        broken = Link((xt("X^2"), xt("X + T")), FORWARD)
        one = (Chain((broken,) + base.links[1:], base.from_, base.to), 1)
        both = (Chain((broken,), base.from_, base.to), 2)
        empty = (Chain((), base.from_, base.from_), 2)
        for chain, validated in (one, both, empty):
            spies.update(validate=0, validate_cert=0)
            report = verify_chain(chain)
            assert spies["validate"] == validated
            assert spies["validate_cert"] == len(chain.links)
            assert report == _verify_every_end(chain)
