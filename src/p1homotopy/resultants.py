"""Sylvester matrices and resultants over exact domains.

One fraction-free engine, Bareiss elimination with column swaps, serves both
determinants and the last-row cofactors behind Bezout certificates.  Scalar
entries run as raw values, with Scalars only at the boundary: ints over Z,
residues over F_p (reduced before any zero test), and over Q the integers of
A*D, D the diagonal of column denominator lcms d_j: det A = det(A*D) / det D,
and last-row cofactor j is that of A*D times d_j / det D.  Poly entries give
resultants over R[T]: over Z[T] and Q[T] (scaled the same way) each entry is
packed into one int by Kronecker substitution T = 2^B, with B from Hadamard's
bound, and the determinant is read back as balanced base-2^B digits; F_p[T]
eliminates the Polys (packing loses at large p; see the README).  The
oracle, expansion by minors (capped at 8x8), shares no code with it.
"""

from __future__ import annotations

from functools import partial
from math import lcm, prod
from operator import not_

from .mpoly import MPoly
from .poly import FormalDegreeError, Poly, _top
from .rings import QQ, ZZ, RingMismatchError, Scalar

ORACLE_SIZE_CAP = 8

# Largest Sylvester matrix (n + m rows) built: at it `res X 1 --nf 100` over
# Z[T], the slowest CLI case, takes seconds, and the cost grows cubically
SYLVESTER_SIZE_LIMIT = 100
# Largest estimated work of an R[T] determinant (_check_work), in squared bits
# of packed entries over Z[T] and Q[T] and squared coefficient counts over
# F_p[T]: on random dense Sylvester matrices, the slowest measured per unit,
# either limit is about 3 s of elimination
PACKED_WORK_LIMIT = 2 * 10**12
POLY_WORK_LIMIT = 2 * 10**7


class OracleSizeError(ValueError):
    """Cofactor oracle invoked beyond its size cap."""


# ---------------------------------------------------------------------------
# Sylvester matrix


def check_sylvester_size(n: int, m: int):
    """ValueError when res_{n,m} needs a matrix above SYLVESTER_SIZE_LIMIT."""
    if n + m > SYLVESTER_SIZE_LIMIT:
        raise ValueError(f"Sylvester matrix of size {n + m} exceeds the limit {SYLVESTER_SIZE_LIMIT}")


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


def formal_degrees(f, g, n: int | None = None, m: int | None = None) -> tuple:
    """The formal degrees (n, m) at which resultant() reads f and g, checked
    before any coefficient is laid out.  A Poly over Z, Q or F_p defaults to
    its formal degree; an MPoly in (X, T), read over R[T], to its X-degree
    (0 for zero)."""
    tpoly = isinstance(f, MPoly)
    if tpoly:
        common = isinstance(g, MPoly) and len(f.vars) == 2 and g.vars == f.vars
    else:
        common = isinstance(g, Poly) and g.var == f.var
    if not common or f.ring != g.ring:
        raise RingMismatchError("resultant needs a common ring and variable")
    degrees = []
    for p, d in ((f, n), (g, m)):
        actual = p.degree_in(p.vars[0]) if tpoly else p.actual_degree()
        if d is None:
            d = max(actual, 0) if tpoly else p.formal_degree
        if d < 0:
            raise ValueError("formal degrees must be supplied for the zero polynomial")
        if d < actual:
            raise FormalDegreeError("formal degree below the actual degree")
        degrees.append(d)
    check_sylvester_size(*degrees)
    return tuple(degrees)


def _sylvester_rows(f, g, n, m):
    """The Sylvester rows of res_{n,m}(f, g) at formal_degrees(f, g, n, m),
    the one of their ring, and m, the number of f columns.  Each polynomial
    is laid out at exactly its formal degree, never at a larger stored one;
    over R[T] each entry is the T-Poly of one X-coefficient."""
    n, m = formal_degrees(f, g, n, m)
    if isinstance(f, MPoly):
        x, t = f.vars
        fc, gc = ([p.coeff_of(x, k).to_poly(t) for k in range(d + 1)] for p, d in ((f, n), (g, m)))
        zero, one = Poly.zero(f.ring, t), Poly.one(f.ring, t)
    else:
        fc, gc = f.pad_to(n).coeffs[: n + 1], g.pad_to(m).coeffs[: m + 1]
        zero, one = f.ring.zero(), f.ring.one()
    return sylvester_entries(fc, gc, zero), one, m


# ---------------------------------------------------------------------------
# Determinants


def _last_row_cofactors(top, forms, divider, is_zero):
    """Eliminate the rows `top` above a last row of sparse linear forms.

    forms[j] is {symbol: coefficient} in column j.  The last row never
    pivots, so the final entry is the form sum_j C[last][j] * forms[j], with
    C[last][j] the last-row cofactors.  divider(prev) divides a new entry by
    the previous pivot and reduces it (prev None: reduction alone), is_zero
    tests a reduced entry; every division is exact (an inexact one raises and
    signals a bug).  A zero pivot is swapped for a later nonzero entry of its
    row (columns swap, forms included, and the sign flips); a row that is
    zero from the pivot on makes the result zero.
    """
    size, last = len(forms), len(top)
    m = [list(r) for r in top] + [list(forms)]
    forms, sign, div = m[last], 1, divider(None)
    for k in range(last):
        c = next((c for c in range(k, size) if not is_zero(m[k][c])), None)
        if c is None:
            return {}
        if c != k:
            for row in m[k:]:
                row[k], row[c] = row[c], row[k]
            sign = -sign
        pivot, tail = m[k][k], m[k][k + 1 :]
        for row_i in m[k + 1 : last]:
            a = row_i[k]
            row_i[k + 1 :] = [div(pivot * x - a * y) for x, y in zip(row_i[k + 1 :], tail)]
        for j, b in enumerate(tail, k + 1):
            e = {s: pivot * a for s, a in forms[j].items()}
            if not is_zero(b):
                for s, a in forms[k].items():
                    e[s] = e[s] - b * a if s in e else -(b * a)
            forms[j] = {s: a for s, a in zip(e, map(div, e.values())) if not is_zero(a)}
        div = divider(pivot)
    y = forms[last]
    return y if sign == 1 else {s: -a for s, a in y.items()}


def _poly_divider(prev):
    """The divider of _last_row_cofactors for Poly entries (F_p[T] only)."""
    return (lambda e: e) if prev is None else (lambda e: e.exact_div(prev))


def _raw_rows(rows, ring, tpoly=False):
    """Raw rows, their divider, and over Q the column scales d (rows of A*D).

    tpoly: the entries are Polys, kept as tuples of raw coefficients, and
    d_j clears every coefficient in column j.
    """
    raw = [[e.raw for e in r] if tpoly else list(map(ring.norm, r)) for r in rows]
    if ring.kind != "Q":
        return raw, ring.divider, None
    if tpoly:
        d = [lcm(*(c.denominator for e in col for c in e)) for col in zip(*raw)]
        raw = [[tuple(c.numerator * (dj // c.denominator) for c in e) for e, dj in zip(r, d)] for r in raw]
    else:
        d = [lcm(*(v.denominator for v in col)) for col in zip(*raw)]
        raw = [[v.numerator * (dj // v.denominator) for v, dj in zip(r, d)] for r in raw]
    return raw, ZZ.divider, d


def _pack(raw, where):
    """Kronecker substitution T = 2^B: each tuple of integer coefficients
    becomes one int, and B the digit width.  The work is checked before
    packing (_check_work, on each packed entry's bit length within one).

    The elimination of the packed ints is integer Bareiss on A(2^B), exact
    whatever B, so it yields det A(2^B).  By Hadamard's inequality on
    |T| = 1, no coefficient of det A(T) exceeds
    H = prod_j (sum_i |a_ij|_1^2)^(1/2), nor the same product over the rows;
    with 2^(B-1) > H the balanced base-2^B digits of det A(2^B) are those
    coefficients.
    """
    sq = [[sum(map(abs, e)) ** 2 for e in r] for r in raw]
    h2 = min(prod(map(sum, lines)) for lines in (sq, zip(*sq)))
    width = (h2.bit_length() + 1) // 2 + 1  # least B with 4^(B-1) > H^2

    def bits(e):
        top = _top(e)
        return top * width + e[top].bit_length() if top >= 0 else 0

    _check_work([max(map(bits, r)) for r in raw], PACKED_WORK_LIMIT, where)

    def pack(e):
        acc = 0
        for c in reversed(e):
            acc = (acc << width) + c
        return acc

    return [list(map(pack, r)) for r in raw], width


def _unpack(v, width):
    """The balanced base-2^width digits of v, lowest first."""
    mask, half, out = (1 << width) - 1, 1 << (width - 1), []
    while v:
        c = v & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        v = (v - c) >> width
    return out


def _check_work(sizes, limit, where):
    """ValueError when eliminating rows whose largest entries have the given
    sizes may cost more than limit.  After pivot k the entries are minors of
    rows 0..k+1, so no larger than s, the sum of those rows' sizes; the step
    updates (len - 1 - k)^2 of them, each at a cost taken as s^2."""
    n, s, work = len(sizes), 0, 0
    for k, size in enumerate(sizes):
        s += size
        work += (n - 1 - k) ** 2 * s * s
    if work > limit:
        raise ValueError(f"determinant of size {n} over {where} exceeds the work budget ({work} > {limit})")


def bareiss_det(rows, one):
    """Fraction-free determinant by the one elimination engine.

    _last_row_cofactors (Bareiss with column swaps, which also yields the
    last-row cofactors for res_bezout) runs with the last row as one-symbol
    forms {0: entry}; the determinant is the coefficient of symbol 0.  Over
    Z[T] and Q[T] the entries are packed into ints (_pack) and the digits of
    the result read back; F_p[T] eliminates Polys, as packed lifts of large
    residues lose beyond size about 20.  cofactor_det is the independent
    oracle.  Over R[T] the estimated work is checked first (_check_work).
    """
    if not rows:
        return one
    ring, tpoly = one.ring, isinstance(one, Poly)
    where = f"{ring.name()}[{one.var}]" if tpoly else None
    if tpoly and any(e.ring != ring or e.var != one.var for r in rows for e in r):
        raise RingMismatchError(f"entries outside {where}")
    if tpoly and ring.kind == "Fp":
        _check_work([max(e.actual_degree() + 1 for e in r) for r in rows], POLY_WORK_LIMIT, where)
        forms = [{0: e} for e in rows[-1]]
        return _last_row_cofactors(rows[:-1], forms, _poly_divider, Poly.is_zero).get(0, one - one)
    raw, divider, d = _raw_rows(rows, ring, tpoly)
    if tpoly:
        raw, width = _pack(raw, where)
    det = _last_row_cofactors(raw[:-1], [{0: e} for e in raw[-1]], divider, not_).get(0, 0)
    value = (lambda c: c) if d is None else partial(QQ.exact_div, b=prod(d))
    if tpoly:
        return Poly(ring, one.var, [value(c) for c in _unpack(det, width)])
    return Scalar(ring, value(det))


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
# Resultants over R and R[T]


def resultant(f: Poly | MPoly, g: Poly | MPoly, n: int | None = None, m: int | None = None):
    """res_{n,m}(f, g) by Bareiss elimination (formal_degrees gives the
    defaults): a Scalar for Polys, a trimmed T-Poly for MPolys in (X, T)."""
    rows, one, _ = _sylvester_rows(f, g, n, m)
    if isinstance(one, Poly):
        return resultant_tpoly(rows, one)
    return bareiss_det(rows, one)


def resultant_oracle(f: Poly | MPoly, g: Poly | MPoly, n: int | None = None, m: int | None = None):
    """Same value as resultant(), by the cofactor route (sizes <= 8)."""
    rows, one, _ = _sylvester_rows(f, g, n, m)
    det = cofactor_det(rows, one)
    return det.trim() if isinstance(one, Poly) else det


# a function of its own because perfbench/tracing.py wraps it by name (resultants.tpoly)
def resultant_tpoly(rows, one: Poly) -> Poly:
    """The R[T] step of resultant(): the determinant of rows, trimmed."""
    return bareiss_det(rows, one).trim()


# ---------------------------------------------------------------------------
# Bezout certificates (the linear-combination witness for the resultant)


def res_bezout(f: Poly, g: Poly, n: int | None = None, m: int | None = None):
    """Polynomials (p, q) with deg p < m, deg q < n and p*f + q*g = res_{n,m}(f,g).

    Coefficients are the last-row cofactors of the Sylvester matrix (Cramer
    on the linear system whose matrix is Sylvester's), all found in one
    fraction-free elimination with the last row replaced by symbols z_j, so
    everything stays in the base ring; works even when the resultant is zero.
    """
    rows, _, m = _sylvester_rows(f, g, n, m)
    size = len(rows)
    if size < 1:
        raise ValueError("res_bezout needs n + m >= 1")
    raw, divider, d = _raw_rows(rows, f.ring)
    cof = _last_row_cofactors(raw[:-1], [{j: 1} for j in range(size)], divider, not_)
    y = [cof.get(j, 0) for j in range(size)]
    if d is not None:  # cofactor j of A is that of A*D times d_j / det D
        den = prod(d)
        y = [QQ.exact_div(c * dj, den) for c, dj in zip(y, d)]
    return tuple(Poly(f.ring, f.var, c[::-1]).trim() for c in (y[:m], y[m:]))


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
