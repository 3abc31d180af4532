import random

import pytest
from test_linsolve import reference_solve

from p1homotopy import plane
from p1homotopy.chains import FORWARD, REVERSED, Chain, Link
from p1homotopy.exprio import builtin_chain, parse_poly
from p1homotopy.mpoly import MPoly
from p1homotopy.plane import (
    MembershipCertificate,
    MembershipNotFound,
    MembershipVerdict,
    PlaneFamily,
    default_degree_cap,
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

    def test_wrong_length_fails_at_index_0(self):
        # N = 1 needs two identities; a certificate with one fails before any
        cert = MembershipCertificate(1, ((p3("0"), p3("1")),))
        assert verify_membership(fam("T0", "T1"), cert) == MembershipVerdict(False, 0)


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


def reference_search(f, n_max, d_cap, least=0, first=1):
    """The exhaustive ascending (N, degree) scan, one dense integer solve per
    target by test_linsolve's dense reference, which shares no code with the
    engine: columns F0*m then F1*m over the sorted multiplier monomials m of
    total degree <= degree, rows the sorted keys of the columns and of the
    targets of N.  N below `first` and degrees below `least` count as
    unsolvable.  None when nothing within the bounds solves."""
    for N in range(first, n_max + 1):
        targets = [(i, N - i, 0) for i in range(N + 1)]
        for degree in range(least, d_cap + 1):
            monos = sorted(
                (e0, e1, et)
                for e0 in range(degree + 1)
                for e1 in range(degree + 1 - e0)
                for et in range(degree + 1 - e0 - e1)
            )
            cols = [
                {(e[0] + m[0], e[1] + m[1], e[2] + m[2]): c.value for e, c in poly.terms.items()}
                for poly in (f.F0, f.F1)
                for m in monos
            ]
            keys = sorted(set(targets).union(*cols))
            rows = [[col.get(k, 0) for col in cols] for k in keys]
            combos = []
            for t in targets:
                x = reference_solve(rows, [int(k == t) for k in keys], len(cols))
                if x is None:
                    break
                half = len(monos)
                combos.append((
                    MPoly(ZZ, V3, {m: x[j] for j, m in enumerate(monos) if x[j]}),
                    MPoly(ZZ, V3, {m: x[half + j] for j, m in enumerate(monos) if x[half + j]}),
                ))
            else:
                return MembershipCertificate(N, tuple(combos))
    return None


def search(f, n_max, d_max):
    try:
        return find_membership(f, n_max, d_max)
    except MembershipNotFound:
        return None


@pytest.mark.parametrize("n_max, d_max", [(0, 0), (1, 0), (0, -1), (1, -1), (2, -5)])
def test_edge_bounds(n_max, d_max):
    # the zero family and (T0, T1) at bounds with no multiplier or no target:
    # the monomial codes stay distinct, and only (T0, T1) at N = 1, degree 0
    # certifies
    for f0, f1 in [("0", "0"), ("T0", "T1")]:
        got = search(fam(f0, f1), n_max, d_max)
        assert got == reference_search(fam(f0, f1), n_max, d_max)
        assert (got is not None) == (f0 == "T0" and (n_max, d_max) == (1, 0))


SHAPES = [
    ("automorphism", "T0 + 2*T1 + (2 - T)*T1^2", "T0 + 3*T1 + (2 - T)*T1^2", 2, 4),
    ("line", "(T0 + T1)*(T0 - T)", "(T0 + T1)*(2*T1 + 1)", 3, 3),
    ("mod q", "2*T0 + 2*T1 + T*T1", "T1^2", 3, 4),
    ("mod q, substituted", "3*(T0 + T1) + 2*T*(T0 + 2*T1)", "(T0 + 2*T1)^2", 2, 3),
    # even coefficients: the pair is (T0, T1) mod 2, so the filter gives N = 1
    # degree 0, and the exact search climbs to the degree over Z (3 and 2)
    ("even ascent", "T0 + 2*T*T1^3", "T1", 1, 4),
    ("even automorphism, substituted", "T0 + T1 + 2*T*(T0 + 2*T1)^2", "T0 + 2*T1", 1, 4),
]


def random_family(rng):
    """A unimodular linear part plus small random terms of degree <= 2."""
    monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b and a + b + c <= 2]
    a, b = rng.choice(((1, 0), (1, 1), (2, 1), (1, -1)))
    polys = []
    for lin in ({(1, 0, 0): a, (0, 1, 0): b}, {(1, 0, 0): a - 1 if a > 1 else 0, (0, 1, 0): 1}):
        terms = dict(lin) if rng.random() < 0.8 else {}
        for m in rng.sample(monos, rng.randint(0, 2)):
            terms[m] = terms.get(m, 0) + rng.choice((-2, -1, 1, 2))
        polys.append(MPoly(ZZ, V3, terms or {(0, 0, 1): 1}))
    return PlaneFamily(*polys)


class TestSearchMatchesReferenceScan:
    def test_builtin_families(self):
        for link in builtin_chain("plane", "prop_3_4_5").links:
            assert find_membership(link.family, 2, 4) == reference_search(link.family, 2, 4)

    @pytest.mark.parametrize("name, f0, f1, n_max, d_max", SHAPES, ids=[s[0] for s in SHAPES])
    def test_shapes(self, name, f0, f1, n_max, d_max):
        f = fam(f0, f1)
        assert search(f, n_max, d_max) == reference_search(f, n_max, d_max)

    def test_random_small_families(self):
        rng = random.Random(5)
        found = 0
        for _ in range(50):
            f = random_family(rng)
            got = search(f, 3, 3)
            assert got == reference_search(f, 3, 3)
            found += got is not None
        assert 0 < found < 50  # both outcomes occur

    def test_default_cap(self):
        f = fam("T*T0 + T1^2", "-T0")
        assert find_membership(f, 3) == reference_search(f, 3, default_degree_cap(f, 3))

    @staticmethod
    def built_degrees(monkeypatch, f, n_max, d_max):
        """The degrees of the integer systems the search builds, in order,
        and its certificate (None when not found)."""
        real, built = plane._exact_solver, []

        def spy(family, degree):
            built.append(degree)
            return real(family, degree)

        monkeypatch.setattr(plane, "_exact_solver", spy)
        return built, search(f, n_max, d_max)

    def test_ascent_from_the_mod_2_degree(self, monkeypatch):
        # T0 + 6*T*T1^3, T1 is (T0, T1) mod 2 and mod 3: N = 1 starts at
        # degree 0, the cap is solvable, and the search climbs to the degree
        # over Z
        built, cert = self.built_degrees(monkeypatch, fam("T0 + 6*T*T1^3", "T1"), 1, 4)
        assert built == [0, 4, 1, 2, 3]
        assert cert.N == 1 and cert.coefficient_degree() == 3

    def test_a_failed_cap_is_asked_first(self, monkeypatch):
        # T0 + 6*T, T1 is (T0, T1) mod 2 and mod 3 but has no certificate
        # over Z: every N passes both filters, N = 1 builds its start degree
        # and the cap, and each later N is ruled out by the cap alone
        built, cert = self.built_degrees(monkeypatch, fam("T0 + 6*T", "T1"), 4, 4)
        assert built == [0, 4] and cert is None

    def test_the_mod_3_degree_is_asked_after_a_failed_start(self, monkeypatch):
        # T0 + 2*T*T1^3, T1 is (T0, T1) mod 2, so degree 0 is built and fails;
        # mod 3 the family is itself, whose least degree is 3, so degree 3 is
        # built next, not the cap
        built, cert = self.built_degrees(monkeypatch, fam("T0 + 2*T*T1^3", "T1"), 1, 4)
        assert built == [0, 3]
        assert cert.N == 1 and cert.coefficient_degree() == 3

    def test_the_filter_mod_3_rules_out_the_cap(self, monkeypatch):
        # T0 + 2*T, T1 vanishes at (T0, T1, T) = (1, 0, 1) mod 3, so after the
        # failed start at degree 0 every N is ruled out with no other system
        built, cert = self.built_degrees(monkeypatch, fam("T0 + 2*T", "T1"), 4, 4)
        assert built == [0] and cert is None

    @pytest.mark.parametrize("f0, f1, n_max, d_max", [
        ("T0 + 6*T*T1^3", "T1", 1, 4),  # the start fails, the cap is asked, then the climb
        ("T0 + 6*T", "T1", 4, 4),
        ("T0 + 2*T*T1^3", "T1", 1, 4),
        ("T*T0 + T1^2", "-T0", 3, 4),
    ])
    def test_each_system_is_asked_once(self, monkeypatch, f0, f1, n_max, d_max):
        real, asked = plane._exact_solver, []

        def spy(family, degree):
            solve = real(family, degree)
            return lambda N: asked.append((N, degree)) or solve(N)

        monkeypatch.setattr(plane, "_exact_solver", spy)
        search(fam(f0, f1), n_max, d_max)
        assert asked and len(asked) == len(set(asked)), asked

    def test_ascent_above_the_mod_p_degree(self, monkeypatch):
        # families with even coefficients climb above their mod-2 degree
        # (the test above); a fake that is monotone in the degree also makes
        # N = 1 unsolvable everywhere, so N = 2 is reached, and N = 2
        # unsolvable below degree 3
        real, built = plane._exact_solver, []

        def fake(family, degree):
            built.append(degree)
            solve = real(family, degree)
            return lambda N: None if N == 1 or degree < 3 else solve(N)

        monkeypatch.setattr(plane, "_exact_solver", fake)
        f = fam("T0", "T1")
        cert = find_membership(f, 3, 5)
        # N = 1: mod-p degree 0 and the cap fail; N = 2 ascends from 0
        assert built == [0, 5, 1, 2, 3]
        assert cert == reference_search(f, 3, 5, least=3, first=2)
        assert cert.N == 2 and cert.coefficient_degree() <= 3


class TestEndpoints:
    def test_examples(self):
        assert plane_endpoint(fam("(T0 + T*T1)^2", "T1"), 0) == (p2("T0^2"), p2("T1"))
        assert plane_endpoint(fam("T0", "-T*T0 + T1^2"), 0) == (p2("T0"), p2("T1^2"))
        assert plane_endpoint(fam("T*T0 + T1^2", "-T0"), 1) == (p2("T0 + T1^2"), p2("-T0"))


class TestChain:
    def test_builtin_passes_with_small_certificates(self):
        chain = builtin_chain("plane", "prop_3_4_5")
        assert tuple(l.orientation for l in chain.links) == (
            FORWARD, REVERSED, REVERSED, FORWARD, REVERSED, REVERSED,
        )
        report = verify_plane_chain(chain, n_max=2, d_max=4)
        assert report.passed
        for lr in report.links:
            assert lr.fields["cert"].N <= 2
            assert lr.fields["cert"].coefficient_degree() <= 4

    def test_orientation_flip_fails_at_junction_1_2(self):
        base = builtin_chain("plane", "prop_3_4_5")
        links = (base.links[0], Link(base.links[1].family, FORWARD)) + base.links[2:]
        report = verify_plane_chain(Chain(links, base.from_, base.to), n_max=2, d_max=4)
        assert not report.passed
        assert report.first_failure == "junction 1/2"

    def test_empty_chain(self):
        same = Chain((), (p2("T0"), p2("T1")), (p2("T0"), p2("T1")))
        assert verify_plane_chain(same).passed
        diff = Chain((), (p2("T0"), p2("T1")), (p2("T1"), p2("T0")))
        assert not verify_plane_chain(diff).passed

    def test_supplied_certificate_is_used(self):
        f = fam("T0", "T1")
        cert = MembershipCertificate(1, ((p3("0"), p3("1")), (p3("1"), p3("0"))))
        chain = Chain(
            (Link(f, FORWARD, cert),),
            (p2("T0"), p2("T1")),
            (p2("T0"), p2("T1")),
        )
        report = verify_plane_chain(chain)
        assert report.passed
        assert report.links[0].fields["cert"] == cert

    def test_uncertifiable_link_reported(self):
        f = fam("T0*T1", "T1")
        chain = Chain(
            (Link(f, FORWARD),),
            (p2("T0*T1"), p2("T1")),
            (p2("T0*T1"), p2("T1")),
        )
        report = verify_plane_chain(chain, n_max=2, d_max=3)
        assert not report.passed
        assert "inconclusive" in report.first_failure


    def test_a_recurring_family_is_searched_once(self, monkeypatch):
        """The search of a family that recurs in a chain is reused, its
        MembershipNotFound included, and each link reads as it does alone."""
        searched, search = [], plane.find_membership

        def spy(family, *bounds):
            searched.append(family)
            return search(family, *bounds)

        monkeypatch.setattr(plane, "find_membership", spy)
        there, stuck = builtin_chain("plane", "prop_3_4_5").links[0].family, fam("T0*T1", "T1")
        links = tuple(Link(f, o) for f, o in (
            (there, FORWARD), (stuck, FORWARD), (there, REVERSED), (stuck, REVERSED)))
        ends = (p2("T0^2"), p2("T1"))
        report = verify_plane_chain(Chain(links, ends, ends), n_max=2, d_max=4)
        assert searched == [there, stuck]
        alone = [verify_plane_chain(Chain((link,), ends, ends), n_max=2, d_max=4).links[0].fields
                 for link in links]
        assert [lr.fields for lr in report.links] == alone
        assert alone[0]["cert"] and "inconclusive" in alone[3]["note"]


class TestCertificateProperties:
    def test_found_certificates_verify(self):
        for link in builtin_chain("plane", "prop_3_4_5").links:
            cert = find_membership(link.family, 2, 4)
            assert verify_membership(link.family, cert)

    def test_endpoint_commutes_with_membership(self):
        """Substituting T = t into a verified certificate yields a verified
        certificate for the endpoint pair."""
        for link in builtin_chain("plane", "prop_3_4_5").links:
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
        for link in builtin_chain("plane", "prop_3_4_5").links:
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
