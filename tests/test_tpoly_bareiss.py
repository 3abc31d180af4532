"""Determinants over R[T]: Kronecker-packed ints over Z[T], Q[T] and F_p[T],
or evaluation and interpolation over F_p[T] with p > D (D the T-degree
bound) when that route's work count is the smaller share of its limit.  The split product formula at every Sylvester size up to 24,
the values at T = 0..D by scalar Bareiss on random and extreme matrices, the
digit width at Hadamard's bound, and the route chosen from p, D and the
two routes' work counts."""

import json
import random
from fractions import Fraction
from importlib.resources import files

import pytest

from p1homotopy import resultants
from p1homotopy.exprio import parse_poly
from p1homotopy.mpoly import MPoly
from p1homotopy.poly import Poly
from p1homotopy.resultants import bareiss_det, resultant
from p1homotopy.rings import QQ, RingTag, ZZ

F7, F1000003 = RingTag("Fp", 7), RingTag("Fp", 1000003)
GOLDEN_INPUTS = files("p1homotopy") / "contract" / "inputs"


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
    return acc


def rand_tpoly(rng, ring, degree, bits=3):
    def coeff():
        c = rng.randint(-(2**bits), 2**bits)
        return c if ring == ZZ else Fraction(c, rng.randint(1, 6))

    return Poly(ring, "T", [coeff() for _ in range(degree + 1)])


def rand_root(rng, ring, parity):
    """A root of T-degree 1 whose constant term has the given parity, so that
    roots of f (even) and of g (odd) never meet; over F_p (p >= 7) the
    constant term lies in [0, 6), so the two stay apart mod p."""
    slope = rng.randint(-2, 2)
    if ring == QQ:
        slope = Fraction(slope, rng.randint(1, 3))
    return tpoly(ring, 2 * rng.randint(0 if ring.kind == "Fp" else -2, 2) + parity, slope)


def raw_rows(rows):
    """The raw rows the engine takes: each T-Poly's coefficient tuple."""
    return [[e.raw for e in row] for row in rows]


def assert_values_at_points(got, rows):
    """got has T-degree at most D, the sum over the rows of the largest entry
    T-degree, and its value at T = t is the scalar determinant of the rows at
    T = t, for t = 0..D: D + 1 values fix the polynomial."""
    bound = sum(max(0, *(e.actual_degree() for e in row)) for row in rows)
    assert got.actual_degree() <= bound
    one = got.ring.one()
    for t in range(bound + 1):
        at_t = [[e.eval(t).value for e in row] for row in rows]
        assert got.eval(t) == bareiss_det(at_t, one), t


class TestSplitOracle:
    # f = prod (X - a_i) and g = lead * prod (X - b_j) with roots in R[T]: the
    # product formula shares no code with the elimination, at every size;
    # over F_7 the first two cases are evaluated (p > D) and the rest packed
    @pytest.mark.parametrize(
        "ring, n, m",
        [(ZZ, 1, 1), (ZZ, 2, 5), (ZZ, 6, 6), (ZZ, 12, 12), (ZZ, 23, 1)]
        + [(QQ, 1, 1), (QQ, 3, 4), (QQ, 4, 12), (QQ, 20, 4)]
        + [(F7, 1, 1), (F7, 1, 2), (F7, 3, 4), (F7, 6, 6), (F7, 12, 12), (F7, 20, 4)]
        + [(F1000003, 1, 1), (F1000003, 2, 5), (F1000003, 6, 6), (F1000003, 12, 12), (F1000003, 23, 1)],
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
        assert coeffs_resultant(fc, gc, ring).raw == ()


class TestAgainstPolyElimination:
    """The packed determinant of Z[T] and Q[T] matrices against its values at
    T = 0..D, each by scalar Bareiss on the matrix at that point."""

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
            got = bareiss_det(raw_rows(rows), one)
            assert_values_at_points(got, rows)
            if shape in (2, 3):
                assert got.raw == ()

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
        got = bareiss_det(raw_rows(rows), one)
        assert got == expected
        assert_values_at_points(got, rows)


def test_the_route_is_chosen_from_p_and_the_degree_bound(monkeypatch):
    # Z[T] and Q[T] always pack; F_p[T] evaluates only when p > D and the
    # evaluation count takes a smaller share of EVALUATED_WORK_LIMIT than the
    # packed estimate takes of PACKED_WORK_LIMIT
    packed = []
    pack = resultants._pack
    monkeypatch.setattr(resultants, "_pack", lambda raw, width: packed.append(width) or pack(raw, width))
    low = ("T*X^2 + 3*X + 2*T + 1", "5*X^2 + (T + 1)*X + 2")  # D = 4
    high = ("(X+T)^4+1", "(X-T)^3")  # D = 18; the resultant has T-degree 12
    # a certificate of the chains generator: its resultant is a constant,
    # while D = 63
    doc = json.loads((GOLDEN_INPUTS / "homotopy_fp_links.json").read_text(encoding="utf-8"))
    cert = (doc["links"][0]["cert"]["f"], doc["links"][0]["cert"]["g"])
    for ring, pair, packs in [
        (ZZ, low, True),
        (QQ, low, True),
        (F7, high, True),
        (F7, low, True),
        (F1000003, high, True),
        (F1000003, low, True),
        (F1000003, cert, True),
    ]:
        F, G = (parse_poly(p, ("X", "T"), ring) for p in pair)
        packed.clear()
        resultant(F, G)
        assert len(packed) == packs, (ring, pair)
    # a dense F_p[T] matrix of size 24 and T-degree 2 evaluates
    rng = random.Random(5)
    rows = [[tuple(rng.randrange(1, 1000003) for _ in range(3)) for _ in range(24)] for _ in range(24)]
    packed.clear()
    got = bareiss_det(rows, Poly.one(F1000003, "T"))
    assert packed == [] and got.actual_degree() <= 48
