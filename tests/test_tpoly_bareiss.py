"""Bareiss over Z[T] and Q[T] on Kronecker-packed ints: the split product
formula at every Sylvester size up to 24, the Poly elimination as reference
on random and extreme matrices, and the digit width at Hadamard's bound."""

import random
from fractions import Fraction

import pytest

from p1homotopy.mpoly import MPoly
from p1homotopy.poly import Poly
from p1homotopy.resultants import (
    _last_row_cofactors,
    _poly_divider,
    bareiss_det,
    resultant,
)
from p1homotopy.rings import QQ, RingMismatchError, RingTag, ZZ


def tpoly(ring, *coeffs):
    """T-polynomial from coefficients listed lowest first."""
    return Poly(ring, "T", coeffs)


def xt_poly(ring, coeffs):
    """The MPoly in (X, T) whose X-coefficients are the T-Polys coeffs."""
    terms = {(i, j): c for i, p in enumerate(coeffs) for j, c in enumerate(p.raw)}
    return MPoly(ring, ("X", "T"), terms)


def coeffs_resultant(fc, gc, ring):
    """resultant() of two coefficient lists, at the formal degrees their
    lengths fix."""
    return resultant(xt_poly(ring, fc), xt_poly(ring, gc), len(fc) - 1, len(gc) - 1)


def split_xpoly(lead, roots):
    """Dense X-coefficients of lead * prod (X - r), by Poly multiplication."""
    zero = lead - lead
    out = [lead]
    for r in roots:
        out = [a - r * b for a, b in zip([zero] + out, out + [zero])]
    return out


def split_resultant(lead, roots_f, roots_g):
    """res(prod (X - a_i), lead * prod (X - b_j)) = lead^n * prod (a_i - b_j)."""
    acc = lead ** len(roots_f)
    for a in roots_f:
        for b in roots_g:
            acc = acc * (a - b)
    return acc.trim()


def rand_tpoly(rng, ring, degree, bits=3):
    def coeff():
        c = rng.randint(-(2**bits), 2**bits)
        return c if ring == ZZ else Fraction(c, rng.randint(1, 6))

    return Poly(ring, "T", [coeff() for _ in range(degree + 1)])


def rand_root(rng, ring, parity):
    """A root of T-degree 1 whose constant term has the given parity, so that
    roots of f (even) and of g (odd) never meet."""
    slope = rng.randint(-2, 2)
    if ring == QQ:
        slope = Fraction(slope, rng.randint(1, 3))
    return tpoly(ring, 2 * rng.randint(-2, 2) + parity, slope)


def poly_elimination(rows, one):
    """The determinant by Bareiss on Poly entries, as F_p[T] runs it."""
    forms = [{0: e} for e in rows[-1]]
    det = _last_row_cofactors(rows[:-1], forms, _poly_divider, Poly.is_zero)
    return det.get(0, one - one).trim()


class TestSplitOracle:
    # f = prod (X - a_i) and g = lead * prod (X - b_j) with roots in R[T]: the
    # product formula shares no code with the elimination, at every size
    @pytest.mark.parametrize(
        "ring, n, m",
        [(ZZ, 1, 1), (ZZ, 2, 5), (ZZ, 6, 6), (ZZ, 12, 12), (ZZ, 23, 1)]
        + [(QQ, 1, 1), (QQ, 3, 4), (QQ, 4, 12), (QQ, 20, 4)],
        ids=str,
    )
    def test_resultant_matches_the_product_formula(self, ring, n, m):
        rng = random.Random(f"{ring.name()}:{n}:{m}")
        roots_f = [rand_root(rng, ring, 0) for _ in range(n)]
        roots_g = [rand_root(rng, ring, 1) for _ in range(m)]
        lead = tpoly(ring, rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-2, 2))
        fc = split_xpoly(Poly.one(ring, "T"), roots_f)
        gc = split_xpoly(lead, roots_g)
        expected = split_resultant(lead, roots_f, roots_g)
        assert coeffs_resultant(fc, gc, ring) == expected

    @pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
    def test_a_shared_root_gives_zero(self, ring):
        rng = random.Random(7)
        roots = [rand_root(rng, ring, k % 2) for k in range(14)]
        fc = split_xpoly(Poly.one(ring, "T"), roots[:8])
        gc = split_xpoly(tpoly(ring, 2, 1), roots[7:])
        assert coeffs_resultant(fc, gc, ring).is_canonical_zero()


class TestAgainstPolyElimination:
    @pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
    def test_random_matrices(self, ring):
        # dense and sparse entries, negative coefficients, coefficients near
        # +-2^62, zero columns and rows, and zero first entries (column swaps)
        rng = random.Random(f"packed:{ring.name()}")
        one = Poly.one(ring, "T")
        zero = one - one
        sizes = [1, 2, 3, 5, 8, 12, 16]
        for k in range(28):
            size = sizes[k % len(sizes)]
            small = size <= 8
            bits = 62 if k % 3 == 0 and small else 3
            # the Poly reference takes about 1 s on a dense 16x16 over Q[T]
            density = rng.choice([0.3, 0.7, 1.0]) if small or ring == ZZ else 0.3

            def entry():
                if rng.random() > density:
                    return zero
                return rand_tpoly(rng, ring, rng.randint(0, 2 if small else 1), bits)

            rows = [[entry() for _ in range(size)] for _ in range(size)]
            shape = k % 5
            if shape == 1:
                rows[0][0] = zero
            elif shape == 2:
                j = rng.randrange(size)
                for row in rows:
                    row[j] = zero
            elif shape == 3:
                rows[rng.randrange(size)] = [zero] * size
            got = bareiss_det(rows, one).trim()
            assert got == poly_elimination(rows, one), (ring, k)
            if shape in (2, 3):
                assert got.is_canonical_zero()

    @pytest.mark.parametrize(
        "ring, diagonal",
        [
            # negative products: |det| equals Hadamard's bound
            (ZZ, [(-3,), (0, 5), (0, 0, 7), (2**61 - 1,)]),
            (ZZ, [(-(2**62),), (0, 2**62 - 1), (-1,)]),
            (QQ, [(Fraction(-3, 2),), (0, Fraction(5, 7)), (Fraction(11, 3),)]),
            # a power of two: the bound is a digit's half range exactly
            (ZZ, [(2,), (0, 4), (8,), (0, 0, -16), (-1,)]),
        ],
        ids=["Z-negative", "Z-near-2^62", "Q-negative", "Z-power-of-two"],
    )
    def test_diagonal_at_hadamards_bound(self, ring, diagonal):
        one = Poly.one(ring, "T")
        size = len(diagonal)
        rows = [[one - one] * size for _ in range(size)]
        expected = one
        for i, coeffs in enumerate(diagonal):
            rows[i][i] = tpoly(ring, *coeffs)
            expected = expected * rows[i][i]
        got = bareiss_det(rows, one).trim()
        assert got == expected.trim() == poly_elimination(rows, one)


def test_only_fp_eliminates_polys(monkeypatch):
    # Z[T] and Q[T] run on packed ints, so no Poly division happens there
    calls = []
    divide = Poly.exact_div
    monkeypatch.setattr(Poly, "exact_div", lambda a, b: calls.append(a.ring) or divide(a, b))
    fp = RingTag("Fp", 7)
    for ring in (ZZ, QQ, fp):
        fc = [tpoly(ring, 1, 2), tpoly(ring, 3), tpoly(ring, 0, 1)]
        gc = [tpoly(ring, 2), tpoly(ring, 1, 1), tpoly(ring, 5)]
        coeffs_resultant(fc, gc, ring)
    assert calls and set(calls) == {fp}


@pytest.mark.parametrize("ring", [ZZ, QQ, RingTag("Fp", 7)], ids=str)
def test_entries_of_another_ring_or_variable_are_refused(ring):
    one = Poly.one(ring, "T")
    for stranger in (Poly.one(RingTag("Fp", 5), "T"), Poly.one(ring, "S")):
        with pytest.raises(RingMismatchError):
            bareiss_det([[one, one], [stranger, one]], one)
