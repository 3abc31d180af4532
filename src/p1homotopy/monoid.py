"""Pointed rational self-maps of the projective line and their monoid sum.

A map is a pair f/g with f monic of degree n, deg g < n, and res_{n,n}(f, g)
a unit of the coefficient ring (+-1 over Z, nonzero over a field).  The sum
of two maps multiplies their SL2 witness matrices [[f, -q], [g, p]], where
(p, q) is the unique pair with p*f + q*g = 1 inside the degree bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .mpoly import MPoly
from .poly import Poly
from .resultants import check_sylvester_size, is_unit, res_bezout, resultant
from .rings import RingMismatchError, RingTag, Scalar, ZZ


class MapValidationError(ValueError):
    """A candidate pair f/g violates a pointed-map invariant."""


class NotMonicError(MapValidationError):
    pass


class DegreeTooHighError(MapValidationError):
    pass


class ResultantNotUnitError(MapValidationError):
    def __init__(self, res):
        self.res = res
        super().__init__(f"resultant {res} is not a unit")


@dataclass(frozen=True)
class PointedMap:
    """Validated pair f/g; construct through validate() (or oplus(), which
    proves the sum's invariants and carries its SL2 witness (p, q))."""

    ring: RingTag
    n: int
    f: Poly
    g: Poly
    res: Scalar
    witness: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SL2Witness:
    """The unique (p, q) with p*f + q*g = 1, deg p < n-1, deg q < n; the
    matrix [[f, -q], [g, p]] has determinant 1.  The degree-zero map uses
    the identity matrix (p = 1, q = 0) so that 1/0 is a two-sided unit."""

    map: PointedMap
    p: Poly
    q: Poly

    def matrix(self):
        return ((self.map.f, -self.q), (self.map.g, self.p))


def validate(f: Poly, g: Poly, ring: RingTag | None = None) -> PointedMap:
    """Check all pointed-map invariants; raises the failing one."""
    ring = f.ring if ring is None else ring
    if f.ring != ring or g.ring != ring:
        raise RingMismatchError("map coefficients are not in the declared ring")
    if f.var != g.var:
        raise RingMismatchError(f"variable {f.var} vs {g.var}")
    n = f.actual_degree()
    if n < 0 or f.raw[n] != 1:
        raise NotMonicError(f"numerator must be monic, got {f!r}")
    if g.actual_degree() >= n:
        raise DegreeTooHighError(
            f"denominator degree {g.actual_degree()} not below {n}"
        )
    r = resultant(f, g, n, n)
    if not is_unit(r):
        raise ResultantNotUnitError(r)
    return PointedMap(ring, n, f, g, r)


def bezout_pair(u: PointedMap) -> SL2Witness:
    """Normalize the resultant certificate of u to the unit equation 1 = p*f + q*g.

    A map built by oplus carries its witness, which is returned as is."""
    if u.witness is not None:
        return SL2Witness(u, *u.witness)
    if u.n == 0:
        one = Poly.one(u.ring, u.f.var)
        return SL2Witness(u, one, Poly.zero(u.ring, u.f.var))
    p0, q0 = res_bezout(u.f, u.g, u.n, u.n)
    inv = u.ring.one().exact_div(u.res)
    p, q = p0.scale(inv), q0.scale(inv)
    # deg p < n-1 is automatic (leading terms cancel); a failure is an engine bug
    if p.actual_degree() >= u.n - 1 or q.actual_degree() >= u.n:
        raise ArithmeticError(f"Bezout witness outside the degree bounds for n = {u.n}")
    return SL2Witness(u, p, q)


def mat_mul(a, b):
    """2x2 polynomial matrix product."""
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)) for i in range(2)
    )


def oplus(u: PointedMap, v: PointedMap) -> PointedMap:
    """The monoid sum: multiply the SL2 witness matrices, with no elimination.

    With [[f1, -q1], [g1, p1]] and [[f2, -q2], [g2, p2]] the witness matrices
    of u and v (degrees n1, n2; N = n1 + n2), the product is
    [[f3, -q3], [g3, p3]] with f3 = f1*f2 - q1*g2, g3 = g1*f2 + p1*g2,
    q3 = f1*q2 + q1*p2 and p3 = p1*p2 - g1*q2.  f3 is monic of degree N,
    deg g3 < N and p3*f3 + q3*g3 = 1 (the determinant), and for N >= 1 the
    degree bounds give deg p3 < N - 1 and deg q3 < N (for N = 0 both
    matrices are the identity).  The Sylvester matrix of (f3, g3) is then
    nonsingular, so (p3, q3) is the unique witness inside the bounds, the
    one bezout_pair would compute, and the sum carries it.

    The resultant is res(u + v) = (-1)^(n1*n2) * res(u) * res(v).  Write
    res(a, b) for res_{deg a, deg b}(a, b); for monic a (f1, f2, f3) it is
    the product of b over the roots of a, whatever formal degree b is given,
    so res(f3, g3) is the stored res_{N,N}, multiplicative in b and blind to
    multiples of a added to b:
    - f2 = p1*f3 + q1*g3 (the first column of the inverse of u's matrix
      times the product), so res(f3, f2) = res(f3, q1) * res(f3, g3);
    - res(f3, f2) = (-1)^(n2*(N+1)) * res(f2, q1) * res(v), since f3 = -q1*g2
      modulo f2 and res(f2, g2) = res(v);
    - res(f3, q1) = res(f1, q1) * res(f2, q1), as f3 = f1*f2 modulo q1, and
      res(f1, q1) = 1 / res(u), as p1*f1 + q1*g1 = 1;
    - so res(f3, g3) = (-1)^(n1*n2) * res(u) * res(v) where res(f2, q1) is
      nonzero, and everywhere, as a polynomial identity in the coefficients.
    No elimination runs, but the sum's Sylvester size 2N must stay within
    the limit, as validating it would require.
    """
    if u.ring != v.ring:
        raise RingMismatchError(f"{u.ring.name()} vs {v.ring.name()}")
    n = u.n + v.n
    check_sylvester_size(n, n)
    (f3, mq3), (g3, p3) = mat_mul(bezout_pair(u).matrix(), bezout_pair(v).matrix())
    res = u.res * v.res
    if u.n * v.n % 2:
        res = -res
    return PointedMap(u.ring, n, f3, g3, res, (p3, -mq3))


NAMED_MAPS = ("identity", "zero", "squaring", "minus_epsilon")


def named(name: str) -> PointedMap:
    """Built-in maps over Z: identity X/1, zero 1/0, squaring X^2/1, and
    minus_epsilon (X-1)/(-1)."""
    x = Poly.x(ZZ, "X")
    one = Poly.one(ZZ, "X")
    if name == "identity":
        return validate(x, one)
    if name == "zero":
        return validate(one, Poly.zero(ZZ, "X"))
    if name == "squaring":
        return validate(x * x, one)
    if name == "minus_epsilon":
        return validate(x - one, -one)
    raise ValueError(f"unknown map name {name!r} (expected one of {NAMED_MAPS})")


def homogenize(u: PointedMap):
    """(F0, F1) = (T1^n f(T0/T1), T1^n g(T0/T1)) as polynomials in (T0, T1)."""
    vars = ("T0", "T1")
    f0 = {(i, u.n - i): c for i, c in enumerate(u.f.raw)}
    f1 = {(i, u.n - i): c for i, c in enumerate(u.g.raw)}
    return MPoly(u.ring, vars, f0), MPoly(u.ring, vars, f1)


def dehomogenize(F0: MPoly, F1: MPoly) -> PointedMap:
    """Inverse of homogenize; rejects pairs without the required shape."""
    if F0.ring != F1.ring:
        raise RingMismatchError("mixed rings")
    if F0.vars != ("T0", "T1") or F1.vars != ("T0", "T1"):
        raise ValueError("expected polynomials in (T0, T1)")
    if not F0.is_homogeneous() or not F1.is_homogeneous():
        raise MapValidationError("inputs must be homogeneous")
    n = F0.total_degree()
    if n < 0:
        raise MapValidationError("zero numerator")
    if not (F1.is_zero() or F1.total_degree() == n):
        raise MapValidationError("degrees differ")
    if F0.raw.get((n, 0)) != 1:
        raise MapValidationError("T0^n coefficient of F0 must be 1")
    if (n, 0) in F1.raw:
        raise MapValidationError("T0^n coefficient of F1 must be 0")
    ring = F0.ring
    fc = [F0.raw.get((i, n - i), 0) for i in range(n + 1)]
    gc = [F1.raw.get((i, n - i), 0) for i in range(n + 1)]
    return validate(Poly(ring, "X", fc), Poly(ring, "X", gc), ring)
