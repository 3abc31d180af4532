"""Pointed rational self-maps of the projective line and their monoid sum.

A map is a pair f/g with f monic of degree n, deg g < n, and res_{n,n}(f, g)
a unit of the coefficient ring (+-1 over Z, nonzero over a field).  The sum
of two maps multiplies their SL2 witness matrices [[f, -q], [g, p]], where
(p, q) is the unique pair with p*f + q*g = 1 inside the degree bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mpoly import MPoly
from .poly import Poly
from .resultants import is_unit, res_bezout, resultant
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
    """Validated pair f/g; construct through validate()."""

    ring: RingTag
    n: int
    f: Poly
    g: Poly
    res: Scalar

    def pair(self):
        return (self.f, self.g)

    def __str__(self):
        from .exprio import print_map

        return print_map(self)


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
    f = f.trim()
    n = f.actual_degree()
    if n < 0 or f.raw[n] != 1:
        raise NotMonicError(f"numerator must be monic, got {f!r}")
    if g.actual_degree() >= n:
        raise DegreeTooHighError(
            f"denominator degree {g.actual_degree()} not below {n}"
        )
    r = resultant(f, g.pad_to(n), n, n)
    if not is_unit(r):
        raise ResultantNotUnitError(r)
    return PointedMap(ring, n, f, g.trim(), r)


def bezout_pair(u: PointedMap) -> SL2Witness:
    """Normalize the resultant certificate of u to the unit equation 1 = p*f + q*g."""
    if u.n == 0:
        one = Poly.one(u.ring, u.f.var)
        return SL2Witness(u, one, Poly.zero(u.ring, u.f.var))
    p0, q0 = res_bezout(u.f, u.g.pad_to(u.n), u.n, u.n)
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
    """The monoid sum: multiply the SL2 witness matrices.

    f3 = f1*f2 - q1*g2 is monic of degree n1+n2 and g3 = g1*f2 + p1*g2 has
    lower degree, so the result validates again.
    """
    if u.ring != v.ring:
        raise RingMismatchError(f"{u.ring.name()} vs {v.ring.name()}")
    w = bezout_pair(u)
    f3 = u.f * v.f - w.q * v.g
    g3 = u.g * v.f + w.p * v.g
    return validate(f3.trim(), g3.trim(), u.ring)


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
    return validate(Poly(ring, "X", fc), Poly(ring, "X", gc).trim(), ring)
