import random

import pytest

from p1homotopy.chains import FORWARD, Chain, Link
from p1homotopy.exprio import builtin_chain
from p1homotopy.poly import Poly
from p1homotopy.projlinear import (
    Mat2,
    MatrixFamily,
    det_family,
    endpoint_matrix,
    fixes_infinity,
    image_of_infinity_in_open,
    is_valid_family,
    projective_unit,
    projectively_equal,
    verify_matrix_chain,
)
from p1homotopy.rings import Scalar, ZZ

T = Poly.x(ZZ, "T")
ONE = Poly.one(ZZ, "T")
ZERO = Poly.zero(ZZ, "T")

H1 = MatrixFamily(T, -ONE, ONE, ZERO)
H2 = MatrixFamily(ZERO, ONE, -ONE, T)


class TestDeterminants:
    def test_families_of_the_builtin(self):
        assert det_family(H1) == ONE and is_valid_family(H1)
        assert det_family(H2) == ONE and is_valid_family(H2)

    def test_nonconstant_determinant_invalid(self):
        m = MatrixFamily(T, ZERO, ZERO, ONE)
        assert det_family(m) == T
        assert not is_valid_family(m)

    def test_det_commutes_with_endpoints(self):
        for fam in (H1, H2, MatrixFamily(T, ONE, ONE, ONE)):
            d = det_family(fam)
            for t in (0, 1):
                assert endpoint_matrix(fam, t).det() == d.eval(Scalar(ZZ, t)).value


class TestEndpoints:
    def test_h1(self):
        assert endpoint_matrix(H1, 1) == Mat2(1, -1, 1, 0)
        assert endpoint_matrix(H1, 0) == Mat2(0, -1, 1, 0)

    def test_h2(self):
        assert endpoint_matrix(H2, 1) == Mat2(0, 1, -1, 1)
        assert endpoint_matrix(H2, 0) == Mat2(0, 1, -1, 0)


class TestProjectiveEquality:
    def test_sign_flip(self):
        assert projectively_equal(Mat2(0, -1, 1, 0), Mat2(0, 1, -1, 0))
        assert projective_unit(Mat2(0, -1, 1, 0), Mat2(0, 1, -1, 0)) == -1

    def test_reflexive(self):
        m = Mat2(3, 1, 4, 1)
        assert projective_unit(m, m) == 1

    def test_unrelated(self):
        assert not projectively_equal(endpoint_matrix(H1, 1), endpoint_matrix(H2, 1))

    def test_equivalence_relation(self):
        rng = random.Random(31)
        mats = [
            Mat2(*(rng.randint(-3, 3) for _ in range(4)))
            for _ in range(12)
        ]
        for a in mats:
            assert projectively_equal(a, a)
            for b in mats:
                assert projectively_equal(a, b) == projectively_equal(b, a)
                for c in mats:
                    if projectively_equal(a, b) and projectively_equal(b, c):
                        assert projectively_equal(a, c)


class TestBasePoint:
    def test_builtin_families_stay_in_chart(self):
        assert image_of_infinity_in_open(H1)  # c = 1
        assert image_of_infinity_in_open(H2)  # c = -1
        assert not image_of_infinity_in_open(MatrixFamily(ONE, ZERO, T, ONE))

    def test_fixes_infinity(self):
        assert fixes_infinity(MatrixFamily(ONE, ZERO, ZERO, ONE))
        assert not fixes_infinity(H1)


class TestChain:
    def test_builtin_passes(self):
        report = verify_matrix_chain(builtin_chain("matrix", "prop_3_4_2"))
        assert report.passed
        assert report.junctions[0].unit == -1
        assert report.from_ok and report.to_ok

    def test_entry_perturbation_fails_at_the_far_endpoint(self):
        base = builtin_chain("matrix", "prop_3_4_2")
        two_t = T + T
        perturbed = MatrixFamily(ZERO, ONE, -ONE, two_t)
        chain = Chain(
            links=(base.links[0], Link(perturbed, FORWARD)),
            from_=base.from_,
            to=base.to,
        )
        report = verify_matrix_chain(chain)
        assert not report.passed
        assert report.junctions[0].ok  # T=0 endpoint is unchanged
        assert "to mismatch" in report.first_failure

    def test_exact_junctions_reject_the_sign(self):
        report = verify_matrix_chain(builtin_chain("matrix", "prop_3_4_2"), exact_junctions=True)
        assert not report.passed
        assert report.first_failure == "junction 1/2"

    def test_composition_of_valid_families_is_valid(self):
        rng = random.Random(41)
        pool = [H1, H2, MatrixFamily(ONE, T, ZERO, ONE), MatrixFamily(ONE, ZERO, ZERO, -ONE)]
        for _ in range(20):
            a, b = rng.choice(pool), rng.choice(pool)
            prod = MatrixFamily(
                a.a * b.a + a.b * b.c,
                a.a * b.b + a.b * b.d,
                a.c * b.a + a.d * b.c,
                a.c * b.b + a.d * b.d,
            )
            assert is_valid_family(prod)
