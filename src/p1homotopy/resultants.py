"""Sylvester matrices and resultants over exact domains.

One fraction-free engine, Bareiss elimination with column swaps, serves both
determinants and the last-row cofactors behind Bezout certificates.  The
Sylvester matrix is raw from layout to result: ints over Z, Fractions over
Q, residues in [0, p) over F_p, and over R[T] tuples of raw T-coefficients;
only the result becomes a Scalar or a T-Poly.  Over Q the engine runs on the
integers of A*D, D the diagonal of column denominator lcms d_j, with the
last row's entry or symbol in column j scaled by d_j like its column and
every coefficient of the result divided by det D: det A = det(A*D) / det D,
and last-row cofactor j is that of A*D times d_j / det D.  Each symbol of
the last row is a carried row: eliminated like the others, never a pivot.
A step updates x to (piv*x - a*y) / prev, a in the pivot column, y in the
pivot row, prev the last pivot (1 at first).  At piv == prev a row with
a = 0, and a column with y = 0 (carried rows included), stays as it is; a
pivot of 1 leaves the next step no division; every other one is checked.
Over Z, Q and F_p (on balanced lifts, the result reduced mod p) each row is
one int of balanced base-2^W slots, column k lowest at step k, so the step
on row i is one big-int update R_i = ((piv*R_i - a*R_k) >> W) / prev, piv
and a the lowest slots, and a zero pivot swaps two slots in every row.  Each
slot is a minor of the pivot rows and one carried row, so with Hadamard's
bound H < 2^(W-1) it is read exactly and prev divides it (Bareiss, Math.
Comp. 22, 1968); W above PACKED_WIDTH_LIMIT runs entry by entry.  Over Z[T]
and Q[T] (scaled the same way) each entry is packed into one int by
Kronecker substitution T = 2^B, with B from Hadamard's bound, and the
determinant is read back as balanced base-2^B digits.  F_p[T] packs the
residues' balanced lifts, or, when p > D (a bound on the T-degree) and that
route's work count takes the smaller share of its limit, interpolates the
engine's values over F_p at T = 0..D; both eliminate entry by entry.  The
oracle, expansion by minors (capped at 8x8), boxes its entries and shares no
code with the engine.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate
from math import lcm, prod
from operator import mul

from .mpoly import MPoly
from .poly import Poly
from .rings import QQ, ZZ, ExactDivisionError, RingMismatchError, Scalar

ORACLE_SIZE_CAP = 8

# Largest Sylvester matrix (n + m rows) built: at it `res X 1 --nf 100` over
# Z[T], the slowest CLI case, takes seconds, and the cost grows cubically
SYLVESTER_SIZE_LIMIT = 100
# Largest work of an R[T] determinant, each limit about 3 s: the estimate of
# _packed_work in squared bits, refused above it (random dense Sylvester
# matrices are the slowest per unit), and the exact operation count of
# _evaluated_det (at most 3.3e-7 s per unit measured).  Over F_p[T] the route
# whose work takes the smaller share of its limit runs
PACKED_WORK_LIMIT = 2 * 10**12
EVALUATED_WORK_LIMIT = 10**7
# Widest slot of the row-packed scalar engine, in bits: summed over the
# benchmark's and the law suites' scalar calls, packing is faster up to here
# and the per-entry loop above (F_1000003 from size 20, wide Z compositions)
PACKED_WIDTH_LIMIT = 400


class FormalDegreeError(ValueError):
    """Requested formal degree is below the actual degree."""


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
    n, m = len(fcoeffs) - 1, len(gcoeffs) - 1
    # column j of a block holds the coefficients, leading first, j rows down
    columns = [
        [zero] * j + list(c[::-1]) + [zero] * (k - 1 - j)
        for c, k in ((fcoeffs, m), (gcoeffs, n))
        for j in range(k)
    ]
    return [list(row) for row in zip(*columns)]


def formal_degrees(f, g, n: int | None = None, m: int | None = None) -> tuple:
    """The formal degrees (n, m) at which resultant() reads f and g, checked
    before any coefficient is laid out.  Each defaults to the degree (the
    X-degree of an MPoly in (X, T), read over R[T]), 0 for zero; a negative
    degree is a ValueError, one below the degree a FormalDegreeError."""
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
        d = max(actual, 0) if d is None else d
        if d < 0:
            raise ValueError("formal degrees must not be negative")
        if d < actual:
            raise FormalDegreeError("formal degree below the actual degree")
        degrees.append(d)
    check_sylvester_size(*degrees)
    return tuple(degrees)


def _t_coeffs(p, d):
    """The raw T-coefficient tuples (lowest first, no trailing zero) of
    X^0..X^d in an MPoly in (X, T)."""
    cols = [{} for _ in range(d + 1)]
    for (i, j), c in p.raw.items():
        cols[i][j] = c
    return [tuple(col.get(j, 0) for j in range(max(col, default=-1) + 1)) for col in cols]


def _sylvester_rows(f, g, n, m):
    """The raw Sylvester rows of res_{n,m}(f, g) at formal_degrees(f, g, n,
    m), the one of their ring (a Scalar, or a T-Poly over R[T]), and m, the
    number of f columns.  Each polynomial is laid out by its raw coefficients
    of X^0..X^d, 0-padded to its formal degree d, or over R[T] by _t_coeffs."""
    n, m = formal_degrees(f, g, n, m)
    if isinstance(f, MPoly):
        fc, gc = (_t_coeffs(p, d) for p, d in ((f, n), (g, m)))
        zero, one = (), Poly.one(f.ring, f.vars[1])
    else:
        fc, gc = (p.raw + (0,) * (d + 1 - len(p.raw)) for p, d in ((f, n), (g, m)))
        zero, one = 0, f.ring.one()
    return sylvester_entries(fc, gc, zero), one, m


# ---------------------------------------------------------------------------
# Determinants


def _last_row_cofactors(top, forms, divider):
    """Eliminate the int rows `top` above a last row of sparse linear forms.

    forms[j] is {symbol: coefficient} in column j.  Each symbol is a carried
    row that never pivots (_packed_cofactors packs them, and top), so the
    final entry is the form sum_j C[last][j] * forms[j], C[last][j] the
    last-row cofactors.  divider(prev) divides a new entry by the previous
    pivot and reduces it (prev None, after a pivot of 1: reduction alone), so
    a reduced entry is zero exactly when it is 0; every division is exact (an
    inexact one raises and signals a bug).  An equal pivot updates only the
    entries with a != 0 and y != 0, forms included (module docstring).  A
    zero pivot is swapped for a later nonzero entry of its row (columns swap,
    forms included, and the sign flips); a row that is zero from the pivot on
    makes the result zero.
    """
    size, last = len(forms), len(top)
    m = [list(r) for r in top] + [list(forms)]
    forms, sign, prev, div = m[last], 1, 1, divider(None)
    for k in range(last):
        c = next((c for c in range(k, size) if m[k][c]), None)
        if c is None:
            return {}
        if c != k:
            for row in m[k:]:
                row[k], row[c] = row[c], row[k]
            sign = -sign
        pivot, tail = m[k][k], m[k][k + 1 :]
        live = [(j, y) for j, y in enumerate(tail, k + 1) if y or pivot != prev]
        for row_i in m[k + 1 : last]:
            a = row_i[k]
            if pivot != prev:
                row_i[k + 1 :] = [div(pivot * x - a * y) for x, y in zip(row_i[k + 1 :], tail)]
            elif a:
                for j, y in live:
                    row_i[j] = div(pivot * row_i[j] - a * y)
        for j, b in live:
            e = {s: pivot * a for s, a in forms[j].items()}
            if b:
                for s, a in forms[k].items():
                    e[s] = e[s] - b * a if s in e else -(b * a)
            forms[j] = {s: a for s, a in zip(e, map(div, e.values())) if a}
        prev, div = pivot, divider(None if pivot == 1 else pivot)
    y = forms[last]
    return y if sign == 1 else {s: -a for s, a in y.items()}


def _row_width(top, forms, p=None):
    """W, least with Hadamard's bound H < 2^(W-1) on the minors of top and
    one carried row of forms, H from the row norms; over F_p (p given) the
    norms are bounded on the residues, each nonzero's lift at most p // 2."""
    rows = [*top, [c for f in forms for c in f.values()]]  # pooled: no carried row is longer
    sq = [(len(r) - r.count(0)) * (p // 2) ** 2 if p else sum(map(mul, r, r)) for r in rows]
    return (prod(max(1, s) for s in sq).bit_length() + 1) // 2 + 1


def _packed_cofactors(top, forms, width):
    """_last_row_cofactors on packed rows (module docstring), slot j of carried
    row s holding forms[j][s].  At piv == prev a row whose lowest slot is 0
    becomes R_i >> W, and at piv == prev == 1 a row becomes (R_i - a*R_k) >> W,
    with no product and no divmod; every other row is divided by prev, and
    the remainder check sees whole rows, not slots."""
    m, mask, half, sign, prev = _pack([top], width)[0], (1 << width) - 1, 1 << (width - 1), 1, 1
    carried = {}
    for j, f in enumerate(forms):
        for s, c in f.items():
            carried[s] = carried.get(s, 0) + (c << j * width)
    m += carried.values()
    for k in range(len(top)):
        piv = ((m[k] + half) & mask) - half
        if not piv:
            if not m[k]:
                return {}
            # swap slot 0 with the lowest nonzero slot; offset by half, no slot borrows
            shift = ((m[k] & -m[k]).bit_length() - 1) // width * width
            offset = half * ((1 << shift) - 1) // mask
            for i in range(k, len(m)):
                a, c = m[i] + half & mask, (m[i] + offset >> shift) + half & mask
                m[i] += c - a + ((a - c) << shift)
            sign, piv = -sign, ((m[k] + half) & mask) - half
        for i in range(k + 1, len(m)):
            a = ((m[i] + half) & mask) - half
            if piv == prev and not a:
                m[i] >>= width
            elif piv == prev == 1:
                m[i] = (m[i] - a * m[k]) >> width
            else:
                m[i], r = divmod((piv * m[i] - a * m[k]) >> width, prev)
                if r:
                    raise ExactDivisionError(f"row {i} not divisible by {prev} at pivot {k}")
        prev = piv
    return {s: sign * v for s, v in zip(carried, m[len(top):]) if v}


def _scalar_cofactors(top, forms, divider, ring):
    """_last_row_cofactors, packed (over F_p on the balanced lifts) where W is
    at most PACKED_WIDTH_LIMIT."""
    p, width = ring.modulus, _row_width(top, forms, ring.modulus)
    if width > PACKED_WIDTH_LIMIT:
        return _last_row_cofactors(top, forms, divider)
    if p:
        top = [[c - p if 2 * c > p else c for c in r] for r in top]
        forms = [{s: c - p if 2 * c > p else c for s, c in f.items()} for f in forms]
    return _packed_cofactors(top, forms, width)


def _raw_rows(rows, ring, tpoly=False):
    """The int rows to eliminate, their divider, the column scales d and the
    map back to the result: over Q the rows of A*D (d_j clearing every
    coefficient in column j, also of tuples when tpoly) and division by det D;
    over F_p[T] the balanced lifts of the residues and exact division in Z
    (the result's Poly reduces each digit mod p); elsewhere the rows, d_j = 1
    and the identity.
    """
    if tpoly and ring.kind == "Fp":
        p = ring.modulus
        lifts = [[tuple(c - p if 2 * c > p else c for c in e) for e in r] for r in rows]
        return lifts, ZZ.divider, [1] * len(rows), lambda c: c
    if ring.kind != "Q":
        return rows, ring.divider, [1] * len(rows), lambda c: c
    if tpoly:
        d = [lcm(*(c.denominator for e in col for c in e)) for col in zip(*rows)]
        raw = [[tuple(c.numerator * (dj // c.denominator) for c in e) for e, dj in zip(r, d)] for r in rows]
    else:
        d = [lcm(*(v.denominator for v in col)) for col in zip(*rows)]
        raw = [[v.numerator * (dj // v.denominator) for v, dj in zip(r, d)] for r in rows]
    return raw, ZZ.divider, d, partial(QQ.exact_div, b=prod(d))


def _packed_work(raw):
    """(B, work) of Kronecker substitution T = 2^B on integer rows: the digit
    width B and the estimated work of eliminating the packed ints, in squared
    bits.  After pivot k the entries are minors of rows 0..k+1, so no larger
    than s_k, the sum of those rows' largest packed bit lengths (each within
    one); the step updates (len - 1 - k)^2 of them, each at a cost taken as
    s_k^2.

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
        return (len(e) - 1) * width + e[-1].bit_length() if e else 0

    n, s = len(raw), accumulate(max(map(bits, r)) for r in raw)
    return width, sum((n - 1 - k) ** 2 * sk * sk for k, sk in enumerate(s))


def _pack(raw, width):
    """Each tuple of integer coefficients as one int, T = 2^width."""

    def pack(e):
        acc = 0
        for c in reversed(e):
            acc = (acc << width) + c
        return acc

    return [list(map(pack, r)) for r in raw]


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


def _evaluated_det(rows, ring, packed_work):
    """The coefficients of the determinant of rows over F_p[T], from the
    engine over F_p at T = 0..D interpolated in Newton form; D bounds its
    T-degree: the least of the sums, over the rows or over the columns, of
    the largest entry T-degree (0 for a zero line).  The work is an exact
    operation count: per point, a product per coefficient, sum_k
    (size - 1 - k)^2 entry updates of the elimination and at most D + 1
    interpolation steps.  None when p <= D, when the work is above
    EVALUATED_WORK_LIMIT, or when its share of that limit is not below the
    share of PACKED_WORK_LIMIT that packed_work, the packed route's
    estimate, takes."""
    p, terms = ring.modulus, [len(e) for r in rows for e in r]
    bound = min(sum(max(1, *map(len, line)) - 1 for line in lines) for lines in (rows, zip(*rows)))
    work = (bound + 1) * (sum(k * k for k in range(len(rows))) + sum(terms) + bound + 1)
    if (p <= bound or work > EVALUATED_WORK_LIMIT
            or work * PACKED_WORK_LIMIT >= packed_work * EVALUATED_WORK_LIMIT):
        return None
    values = []
    for t in range(bound + 1):
        powers = [pow(t, j, p) for j in range(max(terms))]
        at = [[sum(map(mul, e, powers)) % p for e in r] for r in rows]
        values.append(_last_row_cofactors(at[:-1], [{0: e} for e in at[-1]], ring.divider).get(0, 0))
    # divided differences at the points 0..D: level k divides by k
    for k in range(1, bound + 1):
        inv = pow(k, -1, p)
        for i in range(bound, k - 1, -1):
            values[i] = (values[i] - values[i - 1]) * inv % p
    coeffs = []
    for k in range(bound, -1, -1):  # coeffs * (T - k) + values[k]
        coeffs = [(a - k * b) % p for a, b in zip([values[k], *coeffs], [*coeffs, 0])]
    return coeffs


def bareiss_det(rows, one):
    """Fraction-free determinant of raw rows by the one elimination engine.

    The entries carry no ring; one (a Scalar, or a T-Poly over R[T]) gives it:
    ints, Fractions or residues in [0, p), or over R[T] tuples of raw
    T-coefficients, lowest first, with no trailing zero.  The last row is the
    engine's one carried row (module docstring): over Z, Q and F_p row-packed
    where the slots are at most PACKED_WIDTH_LIMIT bits wide, else entry by
    entry; over R[T] on Kronecker-packed entries (_pack, its work
    _packed_work) or, over F_p[T], by evaluation at T = 0..D (_evaluated_det).
    cofactor_det is the independent oracle.
    """
    if not rows:
        return one
    ring, tpoly = one.ring, isinstance(one, Poly)
    raw, divider, _, unscale = _raw_rows(rows, ring, tpoly)
    if tpoly:
        width, work = _packed_work(raw)
        coeffs = _evaluated_det(rows, ring, work) if ring.kind == "Fp" else None
        if coeffs is not None:
            return Poly(ring, one.var, coeffs)
        if work > PACKED_WORK_LIMIT:
            raise ValueError(f"determinant of size {len(raw)} over {ring.name()}[{one.var}]"
                             f" exceeds the work budget ({work} > {PACKED_WORK_LIMIT})")
        raw = _pack(raw, width)
    engine = _last_row_cofactors if tpoly else partial(_scalar_cofactors, ring=ring)
    det = engine(raw[:-1], [{0: e} for e in raw[-1]], divider).get(0, 0)
    if tpoly:
        return Poly(ring, one.var, list(map(unscale, _unpack(det, width))))
    return Scalar(ring, unscale(det))


def cofactor_det(rows, one):
    """Determinant of raw rows (as for bareiss_det), boxed as one is, by
    expansion by minors (memoized); independent of Bareiss."""
    size = len(rows)
    if size > ORACLE_SIZE_CAP:
        raise OracleSizeError(
            f"cofactor oracle capped at {ORACLE_SIZE_CAP}x{ORACLE_SIZE_CAP}, got {size}"
        )
    if size == 0:
        return one
    box = partial(Poly, one.ring, one.var) if isinstance(one, Poly) else partial(Scalar, one.ring)
    rows = [list(map(box, r)) for r in rows]
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
    defaults): a Scalar for Polys, a T-Poly for MPolys in (X, T)."""
    rows, one, _ = _sylvester_rows(f, g, n, m)
    if isinstance(one, Poly):
        return resultant_tpoly(rows, one)
    return bareiss_det(rows, one)


def resultant_oracle(f: Poly | MPoly, g: Poly | MPoly, n: int | None = None, m: int | None = None):
    """Same value as resultant(), by the cofactor route (sizes <= 8)."""
    rows, one, _ = _sylvester_rows(f, g, n, m)
    return cofactor_det(rows, one)


# a function of its own because perfbench/tracing.py wraps it by name (resultants.tpoly)
def resultant_tpoly(rows, one: Poly) -> Poly:
    """The R[T] step of resultant(): the determinant of raw rows."""
    return bareiss_det(rows, one)


# ---------------------------------------------------------------------------
# Bezout certificates (the linear-combination witness for the resultant)


def res_bezout(f: Poly, g: Poly, n: int | None = None, m: int | None = None):
    """Polynomials (p, q) with deg p < m, deg q < n and p*f + q*g = res_{n,m}(f,g).

    f and g are Polys over Z, Q or F_p (a TypeError otherwise).  Coefficients
    are the last-row cofactors of the Sylvester matrix (Cramer on the linear
    system whose matrix is Sylvester's), all found in one fraction-free
    elimination with the last row replaced by symbols z_j (carried rows,
    packed as bareiss_det's), so everything stays in the base ring; works
    even when the resultant is zero.
    """
    if not (isinstance(f, Poly) and isinstance(g, Poly)):
        raise TypeError("res_bezout takes two Polys over Z, Q or F_p")
    rows, _, m = _sylvester_rows(f, g, n, m)
    size = len(rows)
    if size < 1:
        raise ValueError("res_bezout needs n + m >= 1")
    raw, divider, d, unscale = _raw_rows(rows, f.ring)
    cof = _scalar_cofactors(raw[:-1], [{j: dj} for j, dj in enumerate(d)], divider, f.ring)
    y = [unscale(cof.get(j, 0)) for j in range(size)]
    return tuple(Poly(f.ring, f.var, c[::-1]) for c in (y[:m], y[m:]))


# ---------------------------------------------------------------------------
# Reciprocals, the split product formula, units


def reciprocal(f: Poly, n: int) -> Poly:
    """Coefficient reversal at formal degree n >= deg f: X^n * f(1/X)."""
    if n < f.actual_degree():
        raise FormalDegreeError("formal degree below the actual degree")
    return Poly(f.ring, f.var, [f.coeff(n - k) for k in range(n + 1)])


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
    out = Poly.constant(ring, var, lead)
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
