import random
from fractions import Fraction

import pytest

from p1homotopy import resultants
from p1homotopy.exprio import parse_poly
from p1homotopy.mpoly import MPoly
from p1homotopy.poly import Poly
from p1homotopy.randgen import rand_poly, rand_scalar
from p1homotopy.resultants import (
    FormalDegreeError,
    OracleSizeError,
    _sylvester_rows,
    bareiss_det,
    cofactor_det,
    formal_degrees,
    is_unit,
    reciprocal,
    res_bezout,
    resultant,
    resultant_oracle,
    resultant_product_oracle,
    split_poly,
    sylvester_entries,
)
from p1homotopy.rings import QQ, RingMismatchError, RingTag, Scalar, ZZ
from test_tpoly_bareiss import xt_poly

F5 = RingTag("Fp", 5)
F7 = RingTag("Fp", 7)


def zx(text):
    return parse_poly(text, ("X",), ZZ)


def columns(rows):
    return [tuple(row[j] for row in rows) for j in range(len(rows))]


def sylvester_rows(f, g, n, m):
    fc, gc = ([p.coeff(k) for k in range(d + 1)] for p, d in ((f, n), (g, m)))
    return sylvester_entries(fc, gc, Scalar(ZZ, 0))


def raw_rows(rows):
    """The raw rows the engine takes: each Scalar's value, each T-Poly's
    coefficient tuple."""
    return [[e.raw if isinstance(e, Poly) else e.value for e in row] for row in rows]


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
        return Poly.zero(ZZ, "T") if ring == "ZT" else Scalar(ring, 0)
    if ring == "ZT":
        return Poly(ZZ, "T", rand_poly(rng, ZZ, rng.randint(0, 2), 3).coeffs)
    return rand_scalar(rng, ring, 4)


class TestSylvesterLayout:
    def test_degree_one_pair(self):
        rows = sylvester_rows(zx("X"), zx("1"), 1, 1)
        assert rows == [
            [Scalar(ZZ, 1), Scalar(ZZ, 0)],
            [Scalar(ZZ, 0), Scalar(ZZ, 1)],
        ]

    def test_integer_columns(self):
        rows = sylvester_rows(zx("X^2 - X + 1"), zx("X - 1"), 2, 2)
        want = [(1, -1, 1, 0), (0, 1, -1, 1), (0, 1, -1, 0), (0, 0, 1, -1)]
        assert columns(rows) == [tuple(Scalar(ZZ, v) for v in col) for col in want]

    def test_t_coefficient_columns(self):
        # f = X^2, g = T*X + 1 at formal degrees 2, 2 over Z[T]
        F = parse_poly("X^2", ("X", "T"), ZZ)
        G = parse_poly("T*X + 1", ("X", "T"), ZZ)
        rows, _, _ = _sylvester_rows(F, G, 2, 2)
        t, one, zero = (0, 1), (1,), ()
        cols = [tuple(row[j] for row in rows) for j in range(4)]
        assert cols[0] == (one, zero, zero, zero)
        assert cols[1] == (zero, one, zero, zero)
        assert cols[2] == (zero, t, one, zero)
        assert cols[3] == (zero, zero, t, one)

    def test_stored_formal_degree_above_the_requested_one(self):
        # g = -1 given with two zero leading coefficients is the value -1,
        # and is read at m = 1: res_{1,1}(2X, -1)
        f, g = zx("2*X"), Poly(ZZ, "X", (-1, 0, 0))
        assert g == zx("-1") and g.raw == (-1,)
        assert resultant(f, g, 1, 1) == Scalar(ZZ, -2)
        assert resultant_oracle(f, g, 1, 1) == Scalar(ZZ, -2)
        assert res_bezout(f, g, 1, 1) == (Poly.zero(ZZ, "X"), zx("2"))


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
        r = resultant(F, G, 2, 2)
        assert r == Poly.one(ZZ, "T")
        assert resultant_oracle(F, G, 2, 2) == Poly.one(ZZ, "T")

    def test_oracle_size_cap(self):
        rows = [[1] * 9 for _ in range(9)]
        with pytest.raises(OracleSizeError):
            cofactor_det(rows, Scalar(ZZ, 1))

    def test_bareiss_row_swap(self):
        # leading zero pivot forces a swap; determinant of [[0,1],[1,0]] is -1
        rows = [[0, 1], [1, 0]]
        assert bareiss_det(rows, Scalar(ZZ, 1)) == Scalar(ZZ, -1)

    def test_bareiss_zero_column(self):
        rows = [[0, 1, 2], [0, 3, 4], [0, 5, 6]]
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
            rows = raw_rows(rows)
            det = bareiss_det(rows, one)
            assert det == cofactor_det(rows, one), (k, rows)
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
            F, G, n, m = xt_poly(ring, fc), xt_poly(ring, gc), len(fc) - 1, len(gc) - 1
            got = resultant(F, G, n, m)
            assert got == resultant_oracle(F, G, n, m), (ring, fc, gc)
            if k % 3 == 0:
                assert got.is_zero()
        assert shared >= 20 and zero_lead >= 5


def rand_xt(rng, ring, d, points):
    """An X-polynomial over R[T] (T-degree <= 2) read at formal degree d: its
    X^d coefficient is zero, vanishes at one of the points, or is random."""

    def coeff():
        if ring == QQ:
            return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return rng.randint(-3, 3)

    terms = {(i, j): coeff() for i in range(d) for j in range(3) if rng.random() < 0.6}
    shape = rng.randrange(3)
    if shape == 1:  # c * (T - t0)
        c, t0 = coeff() or 1, rng.choice(points)
        terms[d, 0], terms[d, 1] = -c * t0, c
    elif shape == 2:
        terms.update({(d, j): coeff() for j in range(3)})
    return MPoly(ring, ("X", "T"), terms)


class TestSpecialisation:
    """Setting T = t is a ring map R[T] -> R; applied entrywise to the
    Sylvester matrix at fixed formal degrees it gives
    res(F, G)(t) = res(F|T=t, G|T=t), also where a leading coefficient
    vanishes at t.  homotopy.endpoint's carried resultant rests on this.
    The two sides run different routes: packed ints over Z, Q and F_7 at
    larger sizes, evaluation and interpolation over F_p where p > D, against
    scalars; the cofactor oracle is a third side up to size 8."""

    @pytest.mark.parametrize("ring", [ZZ, QQ, RingTag("Fp", 7), RingTag("Fp", 1000003)], ids=str)
    def test_resultant_commutes_with_setting_t(self, ring):
        rng = random.Random(f"specialise:{ring.name()}")
        points = [0, 1, -1, 2] + ([Fraction(1, 2)] if ring == QQ else [])
        vanishing = 0
        for size in [*range(1, 25), *range(1, 9)]:
            n = rng.randint(0, size)
            m = size - n
            F, G = rand_xt(rng, ring, n, points), rand_xt(rng, ring, m, points)
            r = resultant(F, G, n, m)
            if size <= 8:
                assert r == resultant_oracle(F, G, n, m), (F, G, n, m)
            for t in points:
                f, g = (p.subst("T", t).to_poly("X") for p in (F, G))
                vanishing += f.actual_degree() < n or g.actual_degree() < m
                rt = resultant(f, g, n, m)
                assert r.eval(t) == rt, (F, G, n, m, t)
                if size <= 8:
                    assert rt == resultant_oracle(f, g, n, m)
        assert vanishing >= 40


class TestFormalDegrees:
    def test_default_is_the_degree_and_zero_for_zero(self):
        zero, g = Poly.zero(ZZ, "X"), zx("X - 1")
        assert formal_degrees(zero, g) == (0, 1)
        assert resultant(zero, g) == resultant(zero, g, 0, 1) == Scalar(ZZ, 0)
        assert resultant(zero, zx("3")) == Scalar(ZZ, 1)  # the empty matrix
        assert formal_degrees(zx("X^2 + 1"), zero) == (2, 0)

    def test_negative_is_a_value_error(self):
        for n, m in ((-1, None), (None, -1), (-2, 3)):
            with pytest.raises(ValueError, match="must not be negative"):
                resultant(Poly.zero(ZZ, "X"), zx("X"), n, m)

    def test_below_the_degree(self):
        with pytest.raises(FormalDegreeError):
            resultant(zx("X^2"), zx("X"), 1, 1)

    def test_a_pair_of_two_rings_or_variables_is_refused(self):
        # the raw rows carry no ring, so the pair is checked before layout
        F, t = parse_poly("X + T", ("X", "T"), ZZ), Poly.x(ZZ, "T")
        pairs = [
            (zx("X"), Poly.x(QQ, "X")),
            (zx("X"), t),
            (F, parse_poly("X + T", ("X", "T"), RingTag("Fp", 5))),
            (F, parse_poly("X + S", ("X", "S"), ZZ)),
            (F, zx("X")),
        ]
        for f, g in pairs:
            for route in (resultant, resultant_oracle):
                with pytest.raises(RingMismatchError):
                    route(f, g)


class TestSizeLimit:
    def test_checked_before_padding(self):
        # a formal degree of 10**12 would pad to 10**12 coefficients
        x, one = zx("X"), zx("1")
        message = "Sylvester matrix of size 1000000000000 exceeds the limit 100"
        for route in (resultant, resultant_oracle, res_bezout):
            with pytest.raises(ValueError, match=message):
                route(x, one, 10**12, 0)

    def test_checked_over_r_t(self):
        F = parse_poly("X + T", ("X", "T"), ZZ)
        with pytest.raises(ValueError, match="size 1000000000001 exceeds"):
            resultant(F, F, 10**12, 1)


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
        assert p * zx("X - 1") + q * zx("-1") == Poly.constant(ZZ, "X", r)

    def test_paper_pair(self):
        f, g = zx("X^2 - X + 1"), zx("X - 1")
        p, q = res_bezout(f, g, 2, 2)
        assert p == zx("1") and q == zx("-X")
        assert p * f + q * g == Poly.one(ZZ, "X")

    def test_identity_when_resultant_zero(self):
        # the leading rows of this Sylvester matrix need a column swap; the
        # last-row cofactors are (0, 1, -1, 0), not zero
        f, g = zx("X^2"), zx("X")
        p, q = res_bezout(f, g, 2, 2)
        assert p == zx("1") and q == zx("-X")
        assert (p * f + q * g).is_zero()

    def test_rank_deficient_sylvester_gives_zero(self):
        # a shared quadratic factor, and g = 0 read at formal degree 2
        f = zx("(X^2 + 1)*(X - 2)")
        g = zx("(X^2 + 1)*(X + 3)")
        assert res_bezout(f, g, 3, 3) == (Poly.zero(ZZ, "X"), Poly.zero(ZZ, "X"))
        zero = Poly.zero(ZZ, "X")
        assert res_bezout(zx("X^2 + 2*X + 3"), zero, 2, 2) == (
            Poly.zero(ZZ, "X"),
            Poly.zero(ZZ, "X"),
        )

    def test_polynomials_over_r_t_are_a_type_error(self, monkeypatch):
        # res_bezout is defined over Z, Q and F_p only; an MPoly pair, which
        # formal_degrees accepts, is refused before the layout
        F = parse_poly("X^2 + T", ("X", "T"), ZZ)
        G = parse_poly("X + 1", ("X", "T"), ZZ)
        monkeypatch.setattr(resultants, "_sylvester_rows", None)
        for f, g in ((F, G), (F, zx("X + 1")), (zx("X + 1"), G)):
            with pytest.raises(TypeError, match="two Polys over Z, Q or F_p"):
                res_bezout(f, g)


class TestReciprocal:
    def test_examples(self):
        assert reciprocal(zx("X"), 1) == zx("1")
        pal = zx("X^2 - X + 1")
        assert reciprocal(pal, 2) == pal
        assert reciprocal(zx("1"), 1) == zx("X")
        assert reciprocal(zx("X + 2"), 3) == zx("2*X^3 + X^2")
        assert reciprocal(Poly.zero(ZZ, "X"), 2).raw == ()

    def test_below_the_degree(self):
        with pytest.raises(FormalDegreeError):
            reciprocal(zx("X^2"), 1)


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
        assert is_unit(Poly(ZZ, "T", (1, 0, 0, 0)))  # zero leading coefficients are dropped


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
            rec = resultant(reciprocal(f, n), reciprocal(g, m), n, m)
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
            f = split_poly(ZZ, "X", lf, rf)
            g = split_poly(ZZ, "X", lg, rg)
            assert resultant(f, g, n, m) == resultant_product_oracle(rf, rg, lf, lg)

    def test_fp_resultants(self):
        rng = random.Random(17)
        for _ in range(40):
            n, m = rng.randint(0, 3), rng.randint(0, 3)
            f = rand_poly(rng, F5, n, 4)
            g = rand_poly(rng, F5, m, 4)
            assert resultant(f, g, n, m) == resultant_oracle(f, g, n, m)


# every degree pair with 9 <= 2nm <= 72: composite Sylvester sizes 10 to 72
COMPOSITION_DEGREES = [(n, m) for n in range(1, 7) for m in range(1, 7) if 9 <= 2 * n * m <= 72]


def rand_map_pair(rng, ring, n, zeros):
    """f monic of degree n and g of degree < n, each lower coefficient zero
    with probability `zeros`."""
    def coeff():
        return 0 if rng.random() < zeros else rand_scalar(rng, ring, 3)

    return Poly(ring, "X", [coeff() for _ in range(n)] + [1]), Poly(ring, "X", [coeff() for _ in range(n)])


def compose(u, v):
    """(f, g) of the composite (f/g)∘(f'/g') by Poly arithmetic: the sums
    over i of f_i f'^i g'^(n-i) and of g_i f'^i g'^(n-i), n = deg f."""
    (f, g), (f2, g2) = u, v
    n = f.actual_degree()
    terms = [f2**i * g2 ** (n - i) for i in range(n + 1)]

    def substitute(p):
        out = Poly.zero(p.ring, "X")
        for i, t in enumerate(terms):
            out = out + t.scale(p.coeff(i))
        return out

    return substitute(f), substitute(g)


@pytest.mark.parametrize(
    "ring, zeros, degrees",
    [
        (ZZ, 0.0, COMPOSITION_DEGREES),
        (QQ, 0.0, COMPOSITION_DEGREES[:-1:3]),  # fractions grow: a third, to size 60
        # half the lower coefficients zero: pivots vanish and columns swap, above size 24 too
        (F7, 0.5, COMPOSITION_DEGREES * 2),
    ],
    ids=["Z", "Q", "F7"],
)
def test_composition_law(ring, zeros, degrees):
    # u = f/g of degree n and v of degree m: res(u∘v) = res(u)^m * res(v)^(n^2)
    rng = random.Random(23)
    for n, m in degrees:
        u, v = rand_map_pair(rng, ring, n, zeros), rand_map_pair(rng, ring, m, zeros)
        composite = compose(u, v)
        assert composite[0].actual_degree() == n * m
        expected = resultant(*u, n, n) ** m * resultant(*v, m, m) ** (n * n)
        assert resultant(*composite, n * m, n * m) == expected
