"""Sylvester matrices and resultants over exact domains.

The elimination is generic over any integral-domain element type supporting
+, -, *, .exact_div and .is_zero (Scalar and Poly both qualify), so the same
code computes resultants over Z, Q, F_p and over R[T].

One fraction-free engine, Bareiss elimination with column swaps, serves both
determinants and the last-row cofactors behind Bezout certificates.  The
oracle is expansion by minors (capped at 8x8); the two share no code.
"""

from __future__ import annotations

from .poly import Poly
from .rings import RingMismatchError, Scalar

ORACLE_SIZE_CAP = 8


class OracleSizeError(ValueError):
    """Cofactor oracle invoked beyond its size cap."""


# ---------------------------------------------------------------------------
# Sylvester matrix


def sylvester_entries(fcoeffs, gcoeffs, zero):
    """Rows of the Sylvester matrix whose determinant is res_{n,m}(f, g).

    fcoeffs/gcoeffs are dense coefficient lists (index = exponent) whose
    lengths fix the formal degrees n, m.  Column layout: m columns of
    down-shifted f coefficients (leading coefficient topmost), then n
    columns of down-shifted g coefficients.
    """
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


def _sylvester_rows(f: Poly, g: Poly, n, m):
    """Sylvester rows of f, g padded to formal degrees n, m (default: their
    own), and m, the number of f columns."""
    if f.ring != g.ring or f.var != g.var:
        raise RingMismatchError("resultant needs a common ring and variable")
    n = f.formal_degree if n is None else n
    m = g.formal_degree if m is None else m
    if n < 0 or m < 0:
        raise ValueError("formal degrees must be supplied for the zero polynomial")
    rows = sylvester_entries(f.pad_to(n).coeffs, g.pad_to(m).coeffs, f.ring.zero())
    return rows, m


# ---------------------------------------------------------------------------
# Determinants


def _last_row_cofactors(top, forms, one):
    """Eliminate the rows `top` above a last row of sparse linear forms.

    forms[j] is {symbol: coefficient} in column j.  The last row never
    pivots, so the final entry is the form sum_j C[last][j] * forms[j], with
    C[last][j] the last-row cofactors; each form coefficient is a Bareiss
    entry, so every division is exact (an inexact one raises and signals a
    bug).  A zero pivot is swapped for a later nonzero entry of its row
    (columns swap, forms included, and the sign flips); a row that is zero
    from the pivot on makes the result zero.
    """
    size, last, zero = len(forms), len(top), one - one
    m = [list(r) for r in top] + [list(forms)]
    forms, sign, prev = m[last], 1, None
    for k in range(last):
        c = next((c for c in range(k, size) if not m[k][c].is_zero()), None)
        if c is None:
            return {}
        if c != k:
            for row in m[k:]:
                row[k], row[c] = row[c], row[k]
            sign = -sign
        pivot, row_k = m[k][k], m[k]
        for row_i in m[k + 1 : last]:
            for j in range(k + 1, size):
                e = pivot * row_i[j] - row_i[k] * row_k[j]
                row_i[j] = e if prev is None else e.exact_div(prev)
        for j in range(k + 1, size):
            e = {s: pivot * a for s, a in forms[j].items()}
            if not row_k[j].is_zero():
                for s, b in forms[k].items():
                    e[s] = e.get(s, zero) - row_k[j] * b
            e = {s: a for s, a in e.items() if not a.is_zero()}
            forms[j] = e if prev is None else {s: a.exact_div(prev) for s, a in e.items()}
        prev = pivot
    y = forms[last]
    return y if sign == 1 else {s: -a for s, a in y.items()}


def bareiss_det(rows, one):
    """Fraction-free determinant by the one elimination engine.

    _last_row_cofactors (Bareiss with column swaps, which also yields the
    last-row cofactors for res_bezout) runs with the last row as one-symbol
    forms {0: entry}; the determinant is the coefficient of symbol 0.
    cofactor_det is the independent oracle.
    """
    if not rows:
        return one
    forms = [{0: e} for e in rows[-1]]
    return _last_row_cofactors(rows[:-1], forms, one).get(0, one - one)


def cofactor_det(rows, one):
    """Determinant by expansion by minors (memoized); independent of Bareiss."""
    size = len(rows)
    if size > ORACLE_SIZE_CAP:
        raise OracleSizeError(
            f"cofactor oracle capped at {ORACLE_SIZE_CAP}x{ORACLE_SIZE_CAP}, got {size}"
        )
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


def resultant(f: Poly, g: Poly, n: int | None = None, m: int | None = None) -> Scalar:
    """res_{n,m}(f, g) by Bareiss elimination (n, m default to formal degrees)."""
    rows, _ = _sylvester_rows(f, g, n, m)
    return bareiss_det(rows, f.ring.one())


def resultant_oracle(f: Poly, g: Poly, n: int | None = None, m: int | None = None) -> Scalar:
    """Same value as resultant(), by the cofactor route (sizes <= 8)."""
    rows, _ = _sylvester_rows(f, g, n, m)
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
    fraction-free elimination with the last row replaced by symbols z_j, so
    everything stays in the base ring; works even when the resultant is zero.
    """
    rows, m = _sylvester_rows(f, g, n, m)
    size = len(rows)
    if size < 1:
        raise ValueError("res_bezout needs n + m >= 1")
    ring, one = f.ring, f.ring.one()
    cof = _last_row_cofactors(rows[:-1], [{j: one} for j in range(size)], one)
    y = [cof.get(j, ring.zero()) for j in range(size)]
    p = Poly(ring, f.var, tuple(reversed(y[:m]))).trim()
    q = Poly(ring, f.var, tuple(reversed(y[m:]))).trim()
    return p, q


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
