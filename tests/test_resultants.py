import random

import pytest

from p1homotopy.exprio import parse_poly
from p1homotopy.poly import Poly
from p1homotopy.randgen import rand_poly, rand_scalar
from p1homotopy.resultants import (
    OracleSizeError,
    bareiss_det,
    cofactor_det,
    is_unit,
    reciprocal,
    res_bezout,
    resultant,
    resultant_oracle,
    resultant_product_oracle,
    resultant_tpoly,
    resultant_tpoly_oracle,
    split_poly,
    sylvester_entries,
)
from p1homotopy.rings import QQ, RingTag, Scalar, ZZ

F5 = RingTag("Fp", 5)


def zx(text):
    return parse_poly(text, ("X",), ZZ)


def columns(rows):
    return [tuple(row[j] for row in rows) for j in range(len(rows))]


def sylvester_rows(f, g):
    return sylvester_entries(list(f.coeffs), list(g.coeffs), Scalar(ZZ, 0))


def xmul(a, b):
    """Product of two X-polynomials given as lists of T-polynomials."""
    out = [Poly.zero(a[0].ring, "T")] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def rand_entry(rng, ring):
    """A sparse random entry: half zeros; Z[T] entries of T-degree <= 2."""
    if rng.random() < 0.5:
        return Poly.zero(ZZ, "T") if ring == "ZT" else ring.zero()
    if ring == "ZT":
        return Poly(ZZ, "T", rand_poly(rng, ZZ, rng.randint(0, 2), 3).coeffs)
    return rand_scalar(rng, ring, 4)


class TestSylvesterLayout:
    def test_degree_one_pair(self):
        rows = sylvester_rows(zx("X"), zx("1").pad_to(1))
        assert rows == [
            [Scalar(ZZ, 1), Scalar(ZZ, 0)],
            [Scalar(ZZ, 0), Scalar(ZZ, 1)],
        ]

    def test_integer_columns(self):
        rows = sylvester_rows(zx("X^2 - X + 1"), zx("X - 1").pad_to(2))
        want = [(1, -1, 1, 0), (0, 1, -1, 1), (0, 1, -1, 0), (0, 0, 1, -1)]
        assert columns(rows) == [tuple(Scalar(ZZ, v) for v in col) for col in want]

    def test_t_coefficient_columns(self):
        # f = X^2, g = T*X + 1 at formal degrees 2, 2 over Z[T]
        F = parse_poly("X^2", ("X", "T"), ZZ)
        G = parse_poly("T*X + 1", ("X", "T"), ZZ)
        fc = F.x_coeff_polys("X", "T")
        gc = G.x_coeff_polys("X", "T") + [Poly.zero(ZZ, "T")]
        rows = sylvester_entries(fc, gc, Poly.zero(ZZ, "T"))
        t = Poly.x(ZZ, "T")
        one = Poly.one(ZZ, "T")
        zero = Poly.zero(ZZ, "T")
        cols = [tuple(row[j] for row in rows) for j in range(4)]
        assert cols[0] == (one, zero, zero, zero)
        assert cols[1] == (zero, one, zero, zero)
        assert cols[2] == (zero, t, one, zero)
        assert cols[3] == (zero, zero, t, one)


class TestResultant:
    @pytest.mark.parametrize(
        "f, g, n, m, expected",
        [
            ("X", "1", 1, 1, 1),
            ("X^2 - X + 1", "X - 1", 2, 2, 1),
            ("X^2", "X", 2, 2, 0),
            ("X^2", "2", 2, 2, 4),
        ],
    )
    def test_known_values(self, f, g, n, m, expected):
        r = resultant(zx(f), zx(g), n, m)
        assert r == Scalar(ZZ, expected)
        assert resultant_oracle(zx(f), zx(g), n, m) == r

    def test_empty_matrix_is_one(self):
        one = Poly.one(ZZ, "X")
        assert resultant(one, one, 0, 0) == Scalar(ZZ, 1)
        assert resultant_oracle(one, one, 0, 0) == Scalar(ZZ, 1)

    def test_over_t_polynomials(self):
        F = parse_poly("X^2", ("X", "T"), ZZ)
        G = parse_poly("T*X + 1", ("X", "T"), ZZ)
        fc = F.x_coeff_polys("X", "T")
        gc = G.x_coeff_polys("X", "T") + [Poly.zero(ZZ, "T")]
        r = resultant_tpoly(fc, gc, ZZ, "T")
        assert r == Poly.one(ZZ, "T")
        assert resultant_tpoly_oracle(fc, gc, ZZ, "T") == Poly.one(ZZ, "T")

    def test_oracle_size_cap(self):
        rows = [[Scalar(ZZ, 1)] * 9 for _ in range(9)]
        with pytest.raises(OracleSizeError):
            cofactor_det(rows, Scalar(ZZ, 1))

    def test_bareiss_row_swap(self):
        # leading zero pivot forces a swap; determinant of [[0,1],[1,0]] is -1
        rows = [[Scalar(ZZ, 0), Scalar(ZZ, 1)], [Scalar(ZZ, 1), Scalar(ZZ, 0)]]
        assert bareiss_det(rows, Scalar(ZZ, 1)) == Scalar(ZZ, -1)

    def test_bareiss_zero_column(self):
        rows = [
            [Scalar(ZZ, 0), Scalar(ZZ, 1), Scalar(ZZ, 2)],
            [Scalar(ZZ, 0), Scalar(ZZ, 3), Scalar(ZZ, 4)],
            [Scalar(ZZ, 0), Scalar(ZZ, 5), Scalar(ZZ, 6)],
        ]
        assert bareiss_det(rows, Scalar(ZZ, 1)).is_zero()

    def test_bareiss_matches_cofactor_on_sparse_matrices(self):
        # not Sylvester-shaped: zero pivots force column swaps, and about a
        # third of the matrices are singular by construction (zero leading
        # row, zero leading column or a repeated row), which exercises the
        # zero-row exit
        rng = random.Random(23)
        singular = 0
        for k in range(300):
            ring = (ZZ, QQ, RingTag("Fp", 7), "ZT")[k % 4]
            one = Poly.one(ZZ, "T") if ring == "ZT" else ring.one()
            size = rng.randint(1, 7)
            rows = [[rand_entry(rng, ring) for _ in range(size)] for _ in range(size)]
            shape = rng.randrange(9)
            if shape == 0:
                rows[0] = [one - one] * size
            elif shape == 1:
                for row in rows:
                    row[0] = one - one
            elif shape == 2 and size > 1:
                i, j = rng.sample(range(size), 2)
                rows[j] = list(rows[i])
            det = bareiss_det(rows, one)
            # a value comparison: Poly == also compares formal degrees
            assert (det - cofactor_det(rows, one)).is_zero(), (k, rows)
            if shape < 2 or (shape == 2 and size > 1):
                singular += 1
                assert det.is_zero()
        assert 80 <= singular <= 120

    def test_tpoly_matches_oracle_over_every_ring(self):
        # Poly keeps raw ints, Fractions and residues, so Z[T], Q[T] and
        # F_p[T] each run their own arithmetic through the elimination.  A
        # third of the pairs share a factor X - c (the resultant is zero) and
        # a quarter of the rest have a zero leading X-coefficient.
        rng = random.Random(29)
        shared = zero_lead = 0
        for k in range(64):
            ring = (ZZ, QQ, RingTag("Fp", 2), RingTag("Fp", 7))[k % 4]

            def xpoly(degree):
                return [
                    Poly(ring, "T", rand_poly(rng, ring, rng.randint(-1, 3), 3).coeffs)
                    for _ in range(degree + 1)
                ]

            n = rng.randint(1, 5)
            m = rng.randint(1, 8 - n)
            if k % 3 == 0:
                c = Poly(ring, "T", (rand_scalar(rng, ring, 3),))
                h = [c, Poly.one(ring, "T")]
                fc, gc = xmul(h, xpoly(n - 1)), xmul(h, xpoly(m - 1))
                shared += 1
            else:
                fc, gc = xpoly(n), xpoly(m)
                if rng.random() < 0.25:
                    fc[-1] = Poly.zero(ring, "T")
                    zero_lead += 1
            got = resultant_tpoly(fc, gc, ring, "T")
            assert got == resultant_tpoly_oracle(fc, gc, ring, "T"), (ring, fc, gc)
            if k % 3 == 0:
                assert got.is_zero()
        assert shared >= 20 and zero_lead >= 5


class TestBezout:
    def test_forced_constant(self):
        p, q = res_bezout(zx("X"), zx("1"), 1, 1)
        assert p.is_zero()
        assert q == zx("1")

    def test_negative_unit(self):
        p, q = res_bezout(zx("X - 1"), zx("-1"), 1, 1)
        r = resultant(zx("X - 1"), zx("-1"), 1, 1)
        assert r == Scalar(ZZ, -1)
        assert p.is_zero() and q == zx("1")
        assert (p * zx("X - 1") + q * zx("-1")).trim() == Poly.constant(ZZ, "X", r)

    def test_paper_pair(self):
        f, g = zx("X^2 - X + 1"), zx("X - 1")
        p, q = res_bezout(f, g, 2, 2)
        assert p == zx("1") and q == zx("-X")
        assert (p * f + q * g).trim() == Poly.one(ZZ, "X")

    def test_identity_when_resultant_zero(self):
        # the leading rows of this Sylvester matrix need a column swap; the
        # last-row cofactors are (0, 1, -1, 0), not zero
        f, g = zx("X^2"), zx("X")
        p, q = res_bezout(f, g, 2, 2)
        assert p == zx("1") and q == zx("-X")
        assert (p * f + q * g).is_zero()

    def test_rank_deficient_sylvester_gives_zero(self):
        # a shared quadratic factor, and g = 0 padded to its formal degree
        f = zx("(X^2 + 1)*(X - 2)")
        g = zx("(X^2 + 1)*(X + 3)")
        assert res_bezout(f, g, 3, 3) == (Poly.zero(ZZ, "X"), Poly.zero(ZZ, "X"))
        zero = Poly.zero(ZZ, "X").pad_to(2)
        assert res_bezout(zx("X^2 + 2*X + 3"), zero, 2, 2) == (
            Poly.zero(ZZ, "X"),
            Poly.zero(ZZ, "X"),
        )


class TestReciprocal:
    def test_examples(self):
        x1 = zx("X")
        assert reciprocal(x1) == Poly(ZZ, "X", (1, 0))
        pal = zx("X^2 - X + 1")
        assert reciprocal(pal) == pal
        one_padded = zx("1").pad_to(1)
        assert reciprocal(one_padded) == zx("X")
        assert reciprocal(Poly.zero(ZZ, "X")).is_canonical_zero()


class TestProductOracle:
    def test_one_term(self):
        r = resultant_product_oracle(
            [Scalar(ZZ, 2)], [Scalar(ZZ, 3)], Scalar(ZZ, 1), Scalar(ZZ, 1)
        )
        assert r == Scalar(ZZ, -1)

    def test_first_product_form(self):
        roots_f = [Scalar(ZZ, 1), Scalar(ZZ, -1)]
        r = resultant_product_oracle(roots_f, [Scalar(ZZ, 0)], Scalar(ZZ, 1), Scalar(ZZ, 1))
        assert r == Scalar(ZZ, -1)

    def test_shared_root_vanishes(self):
        roots = [Scalar(ZZ, 2), Scalar(ZZ, 5)]
        r = resultant_product_oracle(roots, [Scalar(ZZ, 5)], Scalar(ZZ, 1), Scalar(ZZ, 1))
        assert r.is_zero()

    def test_split_poly_matches(self):
        f = split_poly(ZZ, "X", Scalar(ZZ, 2), [Scalar(ZZ, 1), Scalar(ZZ, -3)])
        assert f == zx("2*X^2 + 4*X - 6")


class TestUnits:
    def test_scalar_units(self):
        assert is_unit(Scalar(ZZ, -1))
        assert not is_unit(Scalar(ZZ, 2))
        assert is_unit(Scalar(QQ, 2))

    def test_poly_units(self):
        t = Poly.x(ZZ, "T")
        assert not is_unit(t * t)
        assert is_unit(Poly.constant(ZZ, "T", -1))
        assert not is_unit(Poly.constant(ZZ, "T", 2))
        assert is_unit(Poly.constant(QQ, "T", 2))
        assert not is_unit(Poly.zero(ZZ, "T"))
        assert is_unit(Poly.one(ZZ, "T").pad_to(3))  # value decides, not shape


class TestLawsSmall:
    """Quick seeded spot checks; the full >=1000-trial suites live in the
    acceptance tests."""

    def test_laws_against_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            f = rand_poly(rng, ZZ, n, 4)
            g = rand_poly(rng, ZZ, m, 4)
            r = resultant(f, g, n, m)
            assert r == resultant_oracle(f, g, n, m)
            swap = resultant(g, f, m, n)
            assert r == (swap if (n * m) % 2 == 0 else -swap)
            rec = resultant(reciprocal(f), reciprocal(g), n, m)
            assert rec == (r if (n * m) % 2 == 0 else -r)
            a, b = Scalar(ZZ, rng.randint(-3, 3)), Scalar(ZZ, rng.randint(-3, 3))
            assert resultant(f.scale(a), g.scale(b), n, m) == a**m * b**n * r

    def test_product_law_small(self):
        rng = random.Random(13)
        for _ in range(40):
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            rf = [Scalar(ZZ, rng.randint(-4, 4)) for _ in range(n)]
            rg = [Scalar(ZZ, rng.randint(-4, 4)) for _ in range(m)]
            lf, lg = Scalar(ZZ, rng.randint(-2, 2)), Scalar(ZZ, rng.randint(-2, 2))
            f = split_poly(ZZ, "X", lf, rf).pad_to(n)
            g = split_poly(ZZ, "X", lg, rg).pad_to(m)
            assert resultant(f, g, n, m) == resultant_product_oracle(rf, rg, lf, lg)

    def test_fp_resultants(self):
        rng = random.Random(17)
        for _ in range(40):
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            f = rand_poly(rng, F5, n, 4)
            g = rand_poly(rng, F5, m, 4)
            assert resultant(f, g, n, m) == resultant_oracle(f, g, n, m)
