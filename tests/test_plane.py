import pytest

from p1homotopy.exprio import parse_poly
from p1homotopy.plane import (
    FORWARD,
    MembershipCertificate,
    MembershipNotFound,
    PlaneChain,
    PlaneChainLink,
    PlaneFamily,
    REVERSED,
    builtin_plane_chain,
    find_membership,
    plane_endpoint,
    verify_membership,
    verify_plane_chain,
)
from p1homotopy.rings import Scalar, ZZ

V3 = ("T0", "T1", "T")
V2 = ("T0", "T1")


def p3(text):
    return parse_poly(text, V3, ZZ)


def p2(text):
    return parse_poly(text, V2, ZZ)


def fam(f0, f1):
    return PlaneFamily(p3(f0), p3(f1))


class TestVerifyMembership:
    def test_coordinate_pair(self):
        cert = MembershipCertificate(
            1, ((p3("0"), p3("1")), (p3("1"), p3("0")))
        )
        assert verify_membership(fam("T0", "T1"), cert)

    def test_explicit_square_family(self):
        # T0^2 = F0 - (2T*T0 + T^2*T1)*F1 ; T0*T1 = T0*F1 ; T1^2 = T1*F1
        f = fam("(T0 + T*T1)^2", "T1")
        cert = MembershipCertificate(
            2,
            (
                (p3("0"), p3("T1")),
                (p3("0"), p3("T0")),
                (p3("1"), p3("-2*T*T0 - T^2*T1")),
            ),
        )
        assert verify_membership(f, cert)

    def test_failure_pinpoints_identity(self):
        f = fam("T0*T1", "T1")
        cert = MembershipCertificate(
            1, ((p3("0"), p3("1")), (p3("1"), p3("0")))
        )
        verdict = verify_membership(f, cert)
        assert not verdict
        assert verdict.failing_index == 1


class TestFindMembership:
    def test_square_family(self):
        cert = find_membership(fam("(T0 + T*T1)^2", "T1"), 6, None)
        assert cert.N == 2

    def test_mixed_family(self):
        f = fam("T0 + T*T1^2", "-T0 + (1 - T)*T1^2")
        cert = find_membership(f)
        assert cert.N == 2
        assert verify_membership(f, cert)

    def test_not_found_is_inconclusive_wording(self):
        with pytest.raises(MembershipNotFound) as err:
            find_membership(fam("T0*T1", "T1"), 3, 3)
        msg = str(err.value)
        assert "inconclusive" in msg and "N <= 3" in msg

    def test_minimality(self):
        # T1^2 = F0 + T*F1 makes N=2 reachable at degree 1; N=1 is impossible
        f = fam("T*T0 + T1^2", "-T0")
        cert = find_membership(f)
        assert cert.N == 2 and cert.coefficient_degree() <= 1


class TestEndpoints:
    def test_examples(self):
        assert plane_endpoint(fam("(T0 + T*T1)^2", "T1"), 0) == (p2("T0^2"), p2("T1"))
        assert plane_endpoint(fam("T0", "-T*T0 + T1^2"), 0) == (p2("T0"), p2("T1^2"))
        assert plane_endpoint(fam("T*T0 + T1^2", "-T0"), 1) == (p2("T0 + T1^2"), p2("-T0"))


class TestChain:
    def test_builtin_passes_with_small_certificates(self):
        chain = builtin_plane_chain("prop_3_4_5")
        assert tuple(l.orientation for l in chain.links) == (
            FORWARD, REVERSED, REVERSED, FORWARD, REVERSED, REVERSED,
        )
        report = verify_plane_chain(chain, n_max=2, d_max=4)
        assert report.passed
        for lr in report.links:
            assert lr.detail.cert.N <= 2
            assert lr.detail.cert.coefficient_degree() <= 4

    def test_orientation_flip_fails_at_junction_1_2(self):
        base = builtin_plane_chain()
        links = (base.links[0], PlaneChainLink(base.links[1].family, FORWARD)) + base.links[2:]
        report = verify_plane_chain(
            PlaneChain(links, base.from_pair, base.to_pair), n_max=2, d_max=4
        )
        assert not report.passed
        assert report.first_failure == "junction 1/2"

    def test_empty_chain(self):
        same = PlaneChain((), (p2("T0"), p2("T1")), (p2("T0"), p2("T1")))
        assert verify_plane_chain(same).passed
        diff = PlaneChain((), (p2("T0"), p2("T1")), (p2("T1"), p2("T0")))
        assert not verify_plane_chain(diff).passed

    def test_supplied_certificate_is_used(self):
        f = fam("T0", "T1")
        cert = MembershipCertificate(1, ((p3("0"), p3("1")), (p3("1"), p3("0"))))
        chain = PlaneChain(
            (PlaneChainLink(f, FORWARD, cert),),
            (p2("T0"), p2("T1")),
            (p2("T0"), p2("T1")),
        )
        report = verify_plane_chain(chain)
        assert report.passed
        assert report.links[0].detail.cert == cert

    def test_uncertifiable_link_reported(self):
        f = fam("T0*T1", "T1")
        chain = PlaneChain(
            (PlaneChainLink(f, FORWARD),),
            (p2("T0*T1"), p2("T1")),
            (p2("T0*T1"), p2("T1")),
        )
        report = verify_plane_chain(chain, n_max=2, d_max=3)
        assert not report.passed
        assert "inconclusive" in report.first_failure


class TestCertificateProperties:
    def test_found_certificates_verify(self):
        for link in builtin_plane_chain().links:
            cert = find_membership(link.family, 2, 4)
            assert verify_membership(link.family, cert)

    def test_endpoint_commutes_with_membership(self):
        """Substituting T = t into a verified certificate yields a verified
        certificate for the endpoint pair."""
        for link in builtin_plane_chain().links:
            cert = find_membership(link.family, 2, 4)
            for t in (0, 1):
                s = Scalar(ZZ, t)
                g0, g1 = plane_endpoint(link.family, t)
                for i, (a, b) in enumerate(cert.combos):
                    lhs = a.subst("T", s) * g0 + b.subst("T", s) * g1
                    mono = {(i, cert.N - i): 1}
                    from p1homotopy.mpoly import MPoly

                    assert lhs == MPoly(ZZ, V2, mono)

    def test_certified_families_vanish_only_with_all_monomials(self):
        """At any integer point where F0 = F1 = 0 the identities force every
        monomial T0^i T1^(N-i) to vanish; spot-check points on the built-ins."""
        for link in builtin_plane_chain().links:
            cert = find_membership(link.family, 2, 4)
            for point in [(0, 0, 0), (0, 0, 1), (0, 0, -2)]:
                vals = {k: Scalar(ZZ, v) for k, v in zip(V3, point)}
                if link.family.F0.eval(vals).is_zero() and link.family.F1.eval(vals).is_zero():
                    for i, (a, b) in enumerate(cert.combos):
                        lhs = a.eval(vals) * link.family.F0.eval(vals) + b.eval(vals) * link.family.F1.eval(vals)
                        assert lhs.is_zero()
                        assert (
                            vals["T0"].value ** i * vals["T1"].value ** (cert.N - i) == 0
                        )
