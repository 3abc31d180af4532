"""Sylvester matrices and resultants over exact domains.

The determinant routines are generic over any integral-domain element type
supporting +, -, *, .exact_div and .is_zero (Scalar and Poly both qualify),
so the same code computes resultants over Z, Q, F_p and over R[T].

Two independent determinant routes are shipped: fraction-free Bareiss
elimination (the engine) and expansion by minors (the oracle, capped at 8x8).
They share no code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Poly
from .rings import RingMismatchError, Scalar

ORACLE_SIZE_CAP = 8


class OracleSizeError(ValueError):
    """Cofactor oracle invoked beyond its size cap."""


# ---------------------------------------------------------------------------
# Sylvester matrix


@dataclass(frozen=True)
class SylvesterMatrix:
    """The (n+m) x (n+m) matrix whose determinant is res_{n,m}(f, g).

    Column layout: m columns of down-shifted f coefficients (leading
    coefficient topmost), then n columns of down-shifted g coefficients.
    """

    n: int
    m: int
    entries: tuple

    @property
    def size(self) -> int:
        return self.n + self.m

    def rows(self) -> list:
        return [list(r) for r in self.entries]


def sylvester_entries(fcoeffs, gcoeffs, zero):
    """Entry grid from dense coefficient lists (index = exponent)."""
    n = len(fcoeffs) - 1
    m = len(gcoeffs) - 1
    size = n + m
    rows = []
    for r in range(size):
        row = []
        for j in range(m):
            i = r - j
            row.append(fcoeffs[n - i] if 0 <= i <= n else zero)
        for j in range(n):
            i = r - j
            row.append(gcoeffs[m - i] if 0 <= i <= m else zero)
        rows.append(row)
    return rows


def sylvester_matrix(f: Poly, g: Poly) -> SylvesterMatrix:
    """Sylvester matrix at the operands' formal degrees."""
    if f.ring != g.ring or f.var != g.var:
        raise RingMismatchError("sylvester_matrix needs a common ring and variable")
    n, m = f.formal_degree, g.formal_degree
    if n < 0 or m < 0:
        raise ValueError("pad the zero polynomial to a formal degree first")
    rows = sylvester_entries(list(f.coeffs), list(g.coeffs), f.ring.zero())
    return SylvesterMatrix(n, m, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# Determinants


def bareiss_det(rows, one):
    """Fraction-free determinant with row swaps and sign tracking.

    Every division is exact in the domain (Bareiss invariant); an inexact
    one raises and signals a bug.  An all-zero pivot column short-circuits
    to zero.
    """
    size = len(rows)
    if size == 0:
        return one
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(size - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, size):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return one - one
        pivot = m[k][k]
        for i in range(k + 1, size):
            row_i = m[i]
            head = row_i[k]
            row_k = m[k]
            for j in range(k + 1, size):
                e = pivot * row_i[j] - head * row_k[j]
                if prev is not None:
                    e = e.exact_div(prev)
                row_i[j] = e
        prev = pivot
    d = m[size - 1][size - 1]
    return d if sign == 1 else -d


def cofactor_det(rows, one, cap: int = ORACLE_SIZE_CAP):
    """Determinant by expansion by minors (memoized); independent of Bareiss."""
    size = len(rows)
    if size > cap:
        raise OracleSizeError(f"cofactor oracle capped at {cap}x{cap}, got {size}")
    if size == 0:
        return one
    memo = {}

    def minor(r, cols):
        if not cols:
            return one
        key = (r, cols)
        got = memo.get(key)
        if got is not None:
            return got
        acc = None
        for idx, c in enumerate(cols):
            a = rows[r][c]
            if a.is_zero():
                continue
            term = a * minor(r + 1, cols[:idx] + cols[idx + 1 :])
            if idx % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            acc = one - one
        memo[key] = acc
        return acc

    return minor(0, tuple(range(size)))


# ---------------------------------------------------------------------------
# Resultants over the scalar rings


def _padded_pair(f: Poly, g: Poly, n, m):
    if f.ring != g.ring or f.var != g.var:
        raise RingMismatchError("resultant needs a common ring and variable")
    n = f.formal_degree if n is None else n
    m = g.formal_degree if m is None else m
    if n < 0 or m < 0:
        raise ValueError("formal degrees must be supplied for the zero polynomial")
    return f.pad_to(n), g.pad_to(m), n, m


def resultant(f: Poly, g: Poly, n: int | None = None, m: int | None = None) -> Scalar:
    """res_{n,m}(f, g) by Bareiss elimination (n, m default to formal degrees)."""
    f, g, n, m = _padded_pair(f, g, n, m)
    rows = sylvester_entries(list(f.coeffs), list(g.coeffs), f.ring.zero())
    return bareiss_det(rows, f.ring.one())


def resultant_oracle(f: Poly, g: Poly, n: int | None = None, m: int | None = None) -> Scalar:
    """Same value as resultant(), by the cofactor route (sizes <= 8)."""
    f, g, n, m = _padded_pair(f, g, n, m)
    rows = sylvester_entries(list(f.coeffs), list(g.coeffs), f.ring.zero())
    return cofactor_det(rows, f.ring.one())


def resultant_tpoly(fcoeffs: list, gcoeffs: list, ring, tvar: str) -> Poly:
    """Resultant for X-polynomials whose coefficients live in ring[T].

    fcoeffs/gcoeffs are dense X-coefficient lists of T-polynomials; their
    lengths fix the formal degrees.  Returns a trimmed T-polynomial.
    """
    zero = Poly.zero(ring, tvar)
    one = Poly.one(ring, tvar)
    rows = sylvester_entries(list(fcoeffs), list(gcoeffs), zero)
    return bareiss_det(rows, one).trim()


def resultant_tpoly_oracle(fcoeffs: list, gcoeffs: list, ring, tvar: str) -> Poly:
    zero = Poly.zero(ring, tvar)
    one = Poly.one(ring, tvar)
    rows = sylvester_entries(list(fcoeffs), list(gcoeffs), zero)
    return cofactor_det(rows, one).trim()


# ---------------------------------------------------------------------------
# Bezout certificates (the linear-combination witness for the resultant)


def res_bezout(f: Poly, g: Poly, n: int | None = None, m: int | None = None):
    """Polynomials (p, q) with deg p < m, deg q < n and p*f + q*g = res_{n,m}(f,g).

    Coefficients are the last-row cofactors of the Sylvester matrix (Cramer
    on the linear system whose matrix is Sylvester's), all found in one
    fraction-free elimination, so everything stays in the base ring; works
    even when the resultant is zero.
    """
    f, g, n, m = _padded_pair(f, g, n, m)
    if n + m < 1:
        raise ValueError("res_bezout needs n + m >= 1")
    ring, var = f.ring, f.var
    rows = sylvester_entries(list(f.coeffs), list(g.coeffs), ring.zero())
    y = _last_row_cofactors(rows, ring.one())
    p = Poly(ring, var, tuple(reversed(y[:m]))).trim()
    q = Poly(ring, var, tuple(reversed(y[m:]))).trim()
    return p, q


def _last_row_cofactors(rows, one):
    """Cofactors C[last][j] of a square matrix, from one Bareiss pass.

    The last row holds formal symbols z_j as sparse linear forms {j: coeff}
    and never pivots, so the final entry is sum_j C[last][j] z_j; each form
    coefficient is a Bareiss entry, so every division stays exact.  A zero
    pivot is swapped for a later nonzero entry of its row (columns swap,
    symbols included); a zero row makes every cofactor zero.
    """
    size, last, zero = len(rows), len(rows) - 1, one - one
    m = [list(r) for r in rows[:last]] + [[{j: one} for j in range(size)]]
    sign, prev = 1, None
    for k in range(last):
        c = next((c for c in range(k, size) if not m[k][c].is_zero()), None)
        if c is None:
            return [zero] * size
        if c != k:
            for row in m[k:]:
                row[k], row[c] = row[c], row[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for row_i in m[k + 1 : last]:
            for j in range(k + 1, size):
                e = pivot * row_i[j] - row_i[k] * row_k[j]
                row_i[j] = e if prev is None else e.exact_div(prev)
        forms = m[last]
        for j in range(k + 1, size):
            e = {s: pivot * a for s, a in forms[j].items()}
            if not row_k[j].is_zero():
                for s, b in forms[k].items():
                    e[s] = e.get(s, zero) - row_k[j] * b
            e = {s: a for s, a in e.items() if not a.is_zero()}
            forms[j] = e if prev is None else {s: a.exact_div(prev) for s, a in e.items()}
        prev = pivot
    y = [m[last][last].get(j, zero) for j in range(size)]
    return y if sign == 1 else [-a for a in y]


# ---------------------------------------------------------------------------
# Reciprocals, the split product formula, units


def reciprocal(f: Poly) -> Poly:
    """Coefficient reversal at the formal degree (X^n * f(1/X))."""
    return Poly(f.ring, f.var, tuple(reversed(f.coeffs)))


def resultant_product_oracle(roots_f, roots_g, lead_f: Scalar, lead_g: Scalar) -> Scalar:
    """lead_f^m * lead_g^n * prod (alpha_i - beta_j) over all root pairs.

    Independent resultant route for split polynomials built from known roots.
    """
    n, m = len(roots_f), len(roots_g)
    acc = lead_f**m * lead_g**n
    for a in roots_f:
        for b in roots_g:
            acc = acc * (a - b)
    return acc


def split_poly(ring, var: str, lead, roots) -> Poly:
    """lead * prod (X - r): the split polynomial with the given roots."""
    out = Poly.constant(ring, var, lead).pad_to(0)
    for r in roots:
        s = r if isinstance(r, Scalar) else Scalar(ring, r)
        out = out * Poly(ring, var, (-s, ring.one()))
    return out


def is_unit(x) -> bool:
    """Units of the supported domains: +-1 in Z and Z[T]; nonzero elements of
    a field; nonzero constants of k[T]."""
    if isinstance(x, Scalar):
        return x.is_unit()
    if isinstance(x, Poly):
        return x.actual_degree() <= 0 and x.coeff(0).is_unit()
    raise TypeError(f"no unit notion for {type(x).__name__}")
