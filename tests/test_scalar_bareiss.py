"""Scalar Bareiss on raw ring values: the F_p reduction hazard, resultants
and Bezout witnesses above the cofactor oracle's cap, the boundary of the
elimination (the Sylvester matrix is raw from layout to result), the
row-packed engine against the per-entry loop, with the rule between them,
and both engines' equal-pivot steps against a plain Bareiss."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from p1homotopy import resultants, rings
from p1homotopy.exprio import parse_poly
from p1homotopy.homotopy import CertResultantNotUnitError, validate_cert
from p1homotopy.mpoly import MPoly
from p1homotopy.poly import Poly
from p1homotopy.randgen import RandomMapSpec, gen_valid_map, rand_poly
from p1homotopy.resultants import (
    PACKED_WIDTH_LIMIT,
    _last_row_cofactors,
    _packed_cofactors,
    _raw_rows,
    _row_width,
    _scalar_cofactors,
    _sylvester_rows,
    bareiss_det,
    cofactor_det,
    res_bezout,
    resultant,
    resultant_oracle,
    resultant_product_oracle,
    split_poly,
)
from p1homotopy.rings import QQ, ExactDivisionError, RingTag, Scalar, ZZ

F3, F5, F7, F101 = RingTag("Fp", 3), RingTag("Fp", 5), RingTag("Fp", 7), RingTag("Fp", 101)
F1000003 = RingTag("Fp", 1000003)


def sylvester(f, g, n, m):
    """The raw Sylvester rows of f and g read at formal degrees n and m."""
    return _sylvester_rows(f, g, n, m)[0]


def first_step_hazard(rows, p):
    """The second pivot's entry after one Bareiss step, on the raw residues,
    is a nonzero multiple of p: left unreduced, the per-entry loop over F_p
    would take it as a pivot where it must swap columns.  Over Z, on the
    lifts, the packed engine may pivot on it: its result is reduced mod p
    only at the end."""
    (a00, a01, *_), (a10, a11, *_) = rows[:2]
    e11 = a00 * a11 - a10 * a01
    return a00 != 0 and e11 != 0 and e11 % p == 0


def oracle_witness(f, g, n, m):
    """(p, q) from the last-row cofactors by expansion by minors."""
    ring = f.ring
    top = sylvester(f, g, n, m)[:-1]
    units = [[int(c == j) for c in range(n + m)] for j in range(n + m)]
    y = [cofactor_det(top + [e], ring.one()) for e in units]
    return Poly(ring, "X", y[:m][::-1]), Poly(ring, "X", y[m:][::-1])


def fp(ring, *coeffs):
    """Polynomial over `ring` from coefficients listed highest first."""
    return Poly(ring, "X", coeffs[::-1])


class TestFpReduction:
    @pytest.fixture(autouse=True)
    def route(self, monkeypatch):
        # every elimination packed; TestFpReductionPerEntry takes the other side
        monkeypatch.setattr(resultants, "PACKED_WIDTH_LIMIT", 10**9)

    # f = X^2 + 4X + c, g = 2X + 3 over F_5: the rows start [1, 2, 0] and
    # [4, 3, 2], so the first step leaves 1*3 - 4*2 = -5 where the next pivot
    # would be, and column 2 must be swapped in.  g has the root 1 and
    # f(1) = c, so c = 0 makes the determinant 0.
    @pytest.mark.parametrize("c, zero", [(1, False), (0, True)])
    def test_sylvester_needing_a_swap(self, c, zero):
        f, g = fp(F5, 1, 4, c), fp(F5, 2, 3)
        rows = sylvester(f, g, 2, 1)
        assert first_step_hazard(rows, 5)
        det = bareiss_det(rows, F5.one())
        assert det == cofactor_det(rows, F5.one())
        assert det.is_zero() == zero
        assert res_bezout(f, g) == oracle_witness(f, g, 2, 1)

    def test_square_matrix_needing_a_swap(self):
        vals = [[1, 2, 0, 1], [4, 3, 2, 0], [2, 1, 1, 3], [3, 0, 1, 4]]
        rows = [list(row) for row in vals]
        assert first_step_hazard(rows, 5)
        det = bareiss_det(rows, F5.one())
        assert det == cofactor_det(rows, F5.one()) and not det.is_zero()
        rows[3] = [(a + b) % 5 for a, b in zip(rows[0], rows[2])]
        assert bareiss_det(rows, F5.one()).is_zero()
        assert cofactor_det(rows, F5.one()).is_zero()

    def test_random_hazards_over_f3(self):
        # Sylvester pairs up to 8x8 over F_3, kept only when the first step
        # leaves a nonzero multiple of 3 at the next pivot
        rng = random.Random(41)
        seen = zeros = 0
        while seen < 40:
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            f = Poly(F3, "X", [rng.randrange(3) for _ in range(n)] + [1])
            g = Poly(F3, "X", [rng.randrange(3) for _ in range(m + 1)])
            rows = sylvester(f, g, n, m)
            if not first_step_hazard(rows, 3):
                continue
            seen += 1
            det = bareiss_det(rows, F3.one())
            assert det == cofactor_det(rows, F3.one()), (f, g)
            assert res_bezout(f, g, n, m) == oracle_witness(f, g, n, m), (f, g)
            zeros += det.is_zero()
        assert zeros >= 5


class TestFpReductionPerEntry(TestFpReduction):
    """The same hazards on the per-entry loop, which reduces every entry."""

    @pytest.fixture(autouse=True)
    def route(self, monkeypatch):
        monkeypatch.setattr(resultants, "PACKED_WIDTH_LIMIT", 0)


def split_pair(rng, ring, n, m, shared):
    """Split f, g of degrees n, m with their roots and leading coefficients;
    g takes one root of f when `shared`, and none otherwise."""

    def root():
        if ring is QQ:  # mixed denominators
            return Scalar(QQ, Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 7))))
        if ring is ZZ:
            return Scalar(ZZ, rng.randint(-9, 9))
        return Scalar(ring, rng.randrange(ring.modulus))

    def lead():
        if ring is QQ:
            return Scalar(QQ, Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 3, 4))))
        return Scalar(ring, rng.choice((-2, -1, 1, 3)))

    rf, rg = [root() for _ in range(n)], []
    while len(rg) < m:
        r = root()
        rg += [] if r in rf else [r]
    if shared:
        rg[0] = rf[0]
    lf, lg = lead(), lead()
    return split_poly(ring, "X", lf, rf), split_poly(ring, "X", lg, rg), rf, rg, lf, lg


class TestAboveTheOracleCap:
    # Sylvester sizes up to 24, the largest the maps workload builds; the
    # product formula and the identity p*f + q*g = res share no code with the
    # elimination
    @pytest.mark.parametrize("ring", [ZZ, QQ, F101], ids=["Z", "Q", "Fp"])
    def test_resultant_against_product_formula(self, ring):
        rng = random.Random(53)
        for n, m in ((12, 12), (11, 12), (12, 9), (10, 10)):
            f, g, rf, rg, lf, lg = split_pair(rng, ring, n, m, shared=False)
            assert resultant(f, g) == resultant_product_oracle(rf, rg, lf, lg)
            f, g, rf, rg, lf, lg = split_pair(rng, ring, n, m, shared=True)
            assert resultant(f, g).is_zero()

    @pytest.mark.parametrize("ring", [ZZ, QQ, F101], ids=["Z", "Q", "Fp"])
    def test_bezout_identity(self, ring):
        rng = random.Random(59)
        nonzero_witness = 0
        for n, m, shared in ((12, 12, False), (12, 11, False), (12, 12, True), (9, 12, True)):
            f, g, *_ = split_pair(rng, ring, n, m, shared)
            res = resultant(f, g)
            p, q = res_bezout(f, g)
            assert p.actual_degree() < m and q.actual_degree() < n
            assert p * f + q * g == Poly.constant(ring, "X", res)
            assert res.is_zero() == shared
            nonzero_witness += shared and not (p.is_zero() and q.is_zero())
        assert nonzero_witness >= 1


class TestScalarBoundary:
    """The elimination runs on raw values: Scalars are built only to read the
    input and write the output, never per entry operation."""

    @pytest.mark.parametrize("ring", [ZZ, QQ, F101], ids=["Z", "Q", "Fp"])
    def test_scalar_constructions_grow_with_size_only(self, ring, monkeypatch):
        rng = random.Random(61)
        f, g, *_ = split_pair(rng, ring, 12, 12, shared=False)
        made = []
        init = rings.Scalar.__init__

        def counting(self, r, value):
            made.append(1)
            init(self, r, value)

        monkeypatch.setattr(rings.Scalar, "__init__", counting)
        size = 24
        for run in (lambda: resultant(f, g), lambda: res_bezout(f, g)):
            made.clear()
            run()
            # the full 24x24 elimination makes about 4,300 entry operations
            assert len(made) <= 2 * size, len(made)

    @pytest.mark.parametrize("ring", [ZZ, QQ, RingTag("Fp", 1000003)], ids=["Z", "Q", "Fp"])
    def test_no_entry_is_normalised_or_boxed_at_degree_12(self, ring, monkeypatch):
        # laying out Scalars and unboxing them again took one norm per
        # entry: 605 calls per resultant and 628 per res_bezout at n = 12
        n = 12
        u = gen_valid_map(RandomMapSpec(ring, n, n, seed=3))
        made = counting(monkeypatch, (rings.RingTag, "norm"), (rings.Scalar, "__init__"))
        for run in (lambda: resultant(u.f, u.g, n, n), lambda: res_bezout(u.f, u.g, n, n)):
            made.clear()
            run()
            # res_bezout normalises the 2n coefficients of its two Polys
            assert made["RingTag.norm"] <= 2 * n + 4 and made["Scalar.__init__"] <= 4, made

    def test_no_poly_per_entry_over_z_t(self, monkeypatch):
        # a Z[T] certificate of X-degree 6; laying out each X-coefficient as
        # an MPoly and then a T-Poly made 14 MPolys and 17 Polys
        F = parse_poly("X^6 + (2*T - 1)*X^5 + 3*T*X^3 + X + T", ("X", "T"), ZZ)
        G = parse_poly("(T + 1)*X^5 - X^2 + 2*T", ("X", "T"), ZZ)
        made = counting(monkeypatch, (Poly, "__init__"), (MPoly, "__init__"))
        resultant(F, G, 6, 6)
        assert made["Poly.__init__"] <= 2 and made["MPoly.__init__"] == 0, made
        made.clear()
        with pytest.raises(CertResultantNotUnitError):
            validate_cert(F, G)
        assert made["Poly.__init__"] <= 2 and made["MPoly.__init__"] == 0, made


def zero_heavy(rng, size, bound):
    """A size x size int matrix, each entry 0 with probability 0.2 to 0.8."""
    zeros = rng.choice((0.2, 0.5, 0.8))
    return [[0 if rng.random() < zeros else rng.randint(-bound, bound) for _ in range(size)]
            for _ in range(size)]


def routed(ring, n, bound, seed):
    """The int rows (residues over F_p) above the last row's forms of a random
    Sylvester matrix at formal degrees n, n, as bareiss_det hands them to the
    route rule."""
    rng = random.Random(seed)
    f, g = rand_poly(rng, ring, n, bound), rand_poly(rng, ring, n, bound)
    raw = _raw_rows(sylvester(f, g, n, n), ring)[0]
    return raw[:-1], [{0: e} for e in raw[-1]]


class TestRowPackedEngine:
    """The row-packed engine against the per-entry loop, and the route rule
    that picks between them."""

    @pytest.mark.parametrize("bound", [1, 5, 1000])
    def test_packed_matches_the_per_entry_loop(self, bound):
        # the last row as itself (one symbol) and as the column-scaled
        # symbols d_j * z_j of res_bezout; zero-heavy rows make zero pivots,
        # so columns swap, and rows that vanish from the pivot on
        rng = random.Random(67 + bound)
        for size in list(range(1, 15)) * 12:
            rows = zero_heavy(rng, size, bound)
            for forms in ([{0: e} for e in rows[-1]], [{j: rng.randint(1, 7)} for j in range(size)]):
                width = _row_width(rows[:-1], forms)
                assert width <= PACKED_WIDTH_LIMIT  # small entries always pack
                want = _last_row_cofactors(rows[:-1], forms, ZZ.divider)
                assert _packed_cofactors(rows[:-1], forms, width) == {s: v for s, v in want.items() if v}

    def test_a_row_zero_from_the_pivot_on(self):
        # row 1 is twice row 0, so it vanishes after the first step
        rows = [[1, 2, 3], [2, 4, 6], [0, 5, 7]]
        for forms in ([{0: e} for e in rows[-1]], [{j: 1} for j in range(3)]):
            assert _packed_cofactors(rows[:-1], forms, _row_width(rows[:-1], forms)) == {}
            assert _last_row_cofactors(rows[:-1], forms, ZZ.divider) == {}
        assert bareiss_det(rows, ZZ.one()).is_zero()

    def test_size_one(self):
        assert _packed_cofactors([], [{0: -7}], _row_width([], [{0: -7}])) == {0: -7}
        assert bareiss_det([[-7]], ZZ.one()) == Scalar(ZZ, -7)
        assert bareiss_det([[5]], RingTag("Fp", 7).one()) == Scalar(RingTag("Fp", 7), 5)

    def test_an_inexact_division_raises(self):
        # a slot width too narrow for the entries misreads -9 as 7; the
        # division by the misread pivot leaves a remainder in this row, which
        # raises (a check, not an assert: it holds under python -O too).  The
        # check sees whole rows, so it catches a misread slot only by chance:
        # exactness rests on the width
        rows = [[3, -3, 4], [-9, 7, -2], [5, 6, 8]]
        with pytest.raises(ExactDivisionError):
            _packed_cofactors(rows[:-1], [{0: e} for e in rows[-1]], 4)

    @pytest.mark.parametrize("ring, n, bound, packs", [
        (ZZ, 8, 5, True),  # size 16, small coefficients
        (RingTag("Fp", 7), 12, 0, True),  # size 24 over F_7, bounded on the residues
        (ZZ, 48, 9999, False),  # size 96, 4-digit coefficients
        (RingTag("Fp", 1000003), 12, 0, False),  # size 24, large p
    ], ids=["Z-16", "F7-24", "Z-wide-96", "F1000003-24"])
    def test_route_rule(self, ring, n, bound, packs):
        for seed in range(5):
            top, forms = routed(ring, n, bound, seed)
            assert (_row_width(top, forms, ring.modulus) <= PACKED_WIDTH_LIMIT) == packs

    def test_the_width_bounds_the_lifts_over_fp(self):
        # over F_p the rule reads the residues: its W is at least the one of
        # the balanced lifts' own norms, which the packed engine runs on
        p = 1000003
        for seed in range(20):
            top, forms = routed(RingTag("Fp", p), random.Random(seed).randint(1, 12), 0, seed)
            lift = [[c - p if 2 * c > p else c for c in r] for r in top]
            lifted = [{s: c - p if 2 * c > p else c for s, c in f.items()} for f in forms]
            assert _row_width(top, forms, p) >= _row_width(lift, lifted)

    @pytest.mark.parametrize("ring", [ZZ, QQ, F3, F101], ids=["Z", "Q", "F3", "F101"])
    def test_both_routes_agree_through_the_public_api(self, ring, monkeypatch):
        # the same determinants and witnesses, forced packed and per entry
        rng = random.Random(71)
        pairs = [(rand_poly(rng, ring, n, 9), rand_poly(rng, ring, m, 9), n, m)
                 for n, m in ((3, 4), (6, 6), (9, 7), (12, 12))]
        results = []
        for limit in (10**9, 0):
            monkeypatch.setattr(resultants, "PACKED_WIDTH_LIMIT", limit)
            results.append([(resultant(f, g, n, m), res_bezout(f, g, n, m)) for f, g, n, m in pairs])
        assert results[0] == results[1]


def plain_det(rows):
    """(det, pivots) of an int matrix by Bareiss with column swaps and no
    skip: every entry is updated at every step and every division checked."""
    m, sign, prev, pivots = [list(r) for r in rows], 1, 1, []
    for k in range(len(m)):
        c = next((c for c in range(k, len(m)) if m[k][c]), None)
        if c is None:
            return 0, pivots
        if c != k:
            for row in m:
                row[k], row[c] = row[c], row[k]
            sign = -sign
        pivots.append(m[k][k])
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j], r = divmod(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
                if r:
                    raise ArithmeticError(f"{prev} does not divide entry ({i}, {j}) at step {k}")
        prev = m[k][k]
    return sign * prev, pivots


def plain_cofactors(top, forms, p=None):
    """The engines' result by plain_det, one determinant per symbol: its last
    row holds the symbol's coefficient in each column (reduced mod p)."""
    out = {}
    for s in {s for f in forms for s in f}:
        v = plain_det([*top, [f.get(s, 0) for f in forms]])[0]
        out[s] = v % p if p else v
    return {s: v for s, v in out.items() if v}


def equal_steps(rows):
    """How many Bareiss steps of rows have the pivot of the step before (1
    before the first)."""
    pivots = plain_det(rows)[1]
    return sum(a == b for a, b in zip([1, *pivots], pivots))


def certificate(consts_a, consts_b, units):
    """F, G in Z[T][X] from the SL2 product of [[X + c, -u], [u, 0]], c moving
    from a to b along T and u = +-1: F is monic and res(F, G) is +-1."""
    vars_ = ("X", "T")

    def mp(terms):
        return MPoly(ZZ, vars_, terms)

    m = ((mp({(0, 0): 1}), mp({})), (mp({}), mp({(0, 0): 1})))
    for a, b, u in zip(consts_a, consts_b, units):
        e = ((mp({(1, 0): 1, (0, 0): a, (0, 1): b - a}), mp({(0, 0): -u})), (mp({(0, 0): u}), mp({})))
        m = tuple(tuple(r[0] * e[0][j] + r[1] * e[1][j] for j in range(2)) for r in m)
    return m[0][0], m[1][0]


class TestEqualPivotSteps:
    """A step whose pivot equals the one before leaves a row with 0 in the
    pivot column, and a column with 0 in the pivot row, as they are, and a
    pivot of 1 leaves the next step nothing to divide: both engines against
    plain_det, which skips nothing."""

    def check(self, top, forms, ring=ZZ, monkeypatch=None):
        p = ring.modulus
        want = plain_cofactors(top, forms, p)
        if monkeypatch is None:  # over Z, each engine called directly
            assert _last_row_cofactors(top, forms, ZZ.divider) == want
            assert _packed_cofactors(top, forms, _row_width(top, forms)) == want
            return
        for limit in (0, 10**9):  # per entry on the residues, packed on the lifts
            monkeypatch.setattr(resultants, "PACKED_WIDTH_LIMIT", limit)
            got = _scalar_cofactors(top, forms, ring.divider, ring)
            got = {s: v % p if p else v for s, v in got.items()}
            assert {s: v for s, v in got.items() if v} == want, limit

    @pytest.mark.parametrize("ring, bound", [(ZZ, 9), (F7, 0), (F1000003, 0)], ids=["Z", "F7", "F1000003"])
    def test_sylvester_of_monic_f(self, ring, bound, monkeypatch):
        # f monic, so the first pivots are 1; g with zero coefficients, so
        # pivot rows and columns hold zeros; the last row as one symbol and as
        # the symbols z_j of res_bezout
        rng = random.Random(73)
        equal = 0
        for _ in range(60):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            f = Poly(ring, "X", [*rand_poly(rng, ring, n - 1, bound).raw, *[0] * n][:n] + [1])
            g = Poly(ring, "X", [0 if rng.random() < 0.4 else c for c in rand_poly(rng, ring, m, bound).raw])
            rows = _raw_rows(sylvester(f, g, n, m), ring)[0]
            equal += equal_steps(rows)
            for forms in ([{0: e} for e in rows[-1]], [{j: 1} for j in range(n + m)]):
                self.check(rows[:-1], forms, ring, monkeypatch)
        assert equal >= 60

    def test_certificates_over_z_t(self):
        # the chain workload's shape: below the oracle's cap against it, above
        # it against plain_det at T = 0..D, D the sum of the rows' T-degrees;
        # a doubled G makes the resultant +-2^n, not a unit
        rng = random.Random(79)
        for n in range(1, 8):
            for doubled in (False, True):
                a, b = ([rng.randint(-2, 2) for _ in range(n)] for _ in range(2))
                F, G = certificate(a, b, [rng.choice((1, -1)) for _ in range(n)])
                G = G * MPoly(ZZ, G.vars, {(0, 0): 2}) if doubled else G
                res = resultant(F, G)
                assert res.actual_degree() <= 0 and abs(res.coeff(0).value) == 2 ** (n * doubled)
                if n <= 4:
                    assert res == resultant_oracle(F, G)
                    continue
                rows = _sylvester_rows(F, G, None, None)[0]
                for t in range(sum(max(len(e) for e in r) - 1 for r in rows) + 1):
                    at = [[sum(c * t**j for j, c in enumerate(e)) for e in r] for r in rows]
                    assert sum(c * t**j for j, c in enumerate(res.raw)) == plain_det(at)[0], (n, t)

    def test_equal_pivots_that_are_not_1(self):
        # pivots 3, 3, 3, -2: after a pivot of 3 equal to the one before,
        # the next step still divides by 3; row 3 has 0 in column 1 at the
        # second step, and the second pivot row 0 in column 2
        rows = [[3, 0, 1, 2, 0], [0, 1, 0, 1, 1], [3, 1, 2, 0, 1], [1, 0, 0, 1, 2], [2, 1, 1, 1, 1]]
        assert plain_det(rows)[1][:3] == [3, 3, 3]
        for forms in ([{0: e} for e in rows[-1]], [{j: 1} for j in range(5)]):
            self.check(rows[:-1], forms)
        assert bareiss_det(rows, ZZ.one()) == Scalar(ZZ, 2) == cofactor_det(rows, ZZ.one())

    def test_a_unit_pivot_then_a_column_swap(self, monkeypatch):
        # the first step leaves 0 at (1, 1), so column 2 swaps in, and its
        # pivot, 1 again, equals the one before
        rows = [[1, 2, 0, 1], [1, 2, 1, 0], [0, 1, 1, 1], [2, 1, 0, 3]]
        assert plain_det(rows) == (-7, [1, 1, 1, 7])
        for forms in ([{0: e} for e in rows[-1]], [{j: 1} for j in range(4)]):
            self.check(rows[:-1], forms)
            self.check(rows[:-1], forms, F7, monkeypatch)
        assert bareiss_det(rows, ZZ.one()) == Scalar(ZZ, -7)

    @pytest.mark.parametrize("ring", [ZZ, QQ, F7], ids=["Z", "Q", "F7"])
    def test_bezout_with_zero_last_row_entries(self, ring, monkeypatch):
        # f(0) = 0 or g(0) = 0, so the Sylvester matrix's last row has one
        # nonzero entry or none; the carried forms also leave columns empty
        rng = random.Random(83)
        for _ in range(20):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            f = Poly(ring, "X", [0, *rand_poly(rng, ring, n - 2, 5).raw, *[0] * n][:n] + [1])
            g = Poly(ring, "X", [rng.choice((0, 1)) * 3, *rand_poly(rng, ring, m - 1, 5).raw][: m + 1])
            p, q = res_bezout(f, g, n, m)
            if n + m <= 8:
                assert (p, q) == oracle_witness(f, g, n, m)
            assert p * f + q * g == Poly.constant(ring, "X", resultant(f, g, n, m))
            rows = _raw_rows(sylvester(f, g, n, m), ring)[0]  # over Q the scaled ints
            forms = [{j: 1} if rng.random() < 0.7 else {} for j in range(n + m)]
            self.check(rows[:-1], forms, ZZ if ring is QQ else ring, monkeypatch)


def counting(monkeypatch, *targets):
    """Count the calls of each (class, method name), keyed "Class.method"."""
    made = Counter()
    for owner, name in targets:

        def wrapper(*args, _original=getattr(owner, name), _key=f"{owner.__name__}.{name}", **kwargs):
            made[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return made
