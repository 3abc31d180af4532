"""Scalar Bareiss on raw ring values: the F_p reduction hazard, resultants
and Bezout witnesses above the cofactor oracle's cap, and the boundary of
the elimination: the Sylvester matrix is raw from layout to result."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from p1homotopy import rings
from p1homotopy.exprio import parse_poly
from p1homotopy.homotopy import CertResultantNotUnitError, validate_cert
from p1homotopy.mpoly import MPoly
from p1homotopy.poly import Poly
from p1homotopy.randgen import RandomMapSpec, gen_valid_map
from p1homotopy.resultants import (
    _sylvester_rows,
    bareiss_det,
    cofactor_det,
    res_bezout,
    resultant,
    resultant_product_oracle,
    split_poly,
)
from p1homotopy.rings import QQ, RingTag, Scalar, ZZ

F3, F5, F101 = RingTag("Fp", 3), RingTag("Fp", 5), RingTag("Fp", 101)


def sylvester(f, g, n, m):
    """The raw Sylvester rows of f and g read at formal degrees n and m."""
    return _sylvester_rows(f, g, n, m)[0]


def first_step_hazard(rows, p):
    """The second pivot's entry after one Bareiss step, on the raw residues,
    is a nonzero multiple of p: left unreduced it would be taken as a pivot
    where the elimination over F_p must swap columns."""
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


def counting(monkeypatch, *targets):
    """Count the calls of each (class, method name), keyed "Class.method"."""
    made = Counter()
    for owner, name in targets:

        def wrapper(*args, _original=getattr(owner, name), _key=f"{owner.__name__}.{name}", **kwargs):
            made[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return made
