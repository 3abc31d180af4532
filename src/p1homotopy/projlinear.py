"""Families of projective-linear endomorphisms of the projective line.

A family is a 2x2 matrix over Z[T] acting by [T0:T1] -> [a T0 + b T1 : c T0 + d T1];
it is well defined on all of P^1 exactly when det = a d - b c is a unit of
Z[T], i.e. a constant +-1.  The image of the base point infinity = [1:0] is
[a : c]; it stays inside the chart where T1 is invertible iff c is a unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import FORWARD, REVERSED, Chain, ChainReport, Link, walk_chain
from .poly import Poly
from .resultants import is_unit
from .rings import ZZ

TVAR = "T"


@dataclass(frozen=True)
class MatrixFamily:
    a: Poly
    b: Poly
    c: Poly
    d: Poly

    def entries(self):
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class Mat2:
    """A constant integer 2x2 matrix (an endpoint of a family)."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def neg(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)


def det_family(M: MatrixFamily) -> Poly:
    return M.a * M.d - M.b * M.c


def is_valid_family(M: MatrixFamily) -> bool:
    return is_unit(det_family(M))


def endpoint_matrix(M: MatrixFamily, t: int) -> Mat2:
    if t not in (0, 1):
        raise ValueError("endpoints live at T = 0 and T = 1")
    return Mat2(*(p.eval(t).value for p in M.entries()))


def projective_unit(M: Mat2, N: Mat2):
    """The unit u in {1, -1} with M = u*N, or None."""
    if M == N:
        return 1
    if M == N.neg():
        return -1
    return None


def projectively_equal(M: Mat2, N: Mat2) -> bool:
    return projective_unit(M, N) is not None


def image_of_infinity_in_open(M: MatrixFamily) -> bool:
    """[a : c] lies in the T1-chart for every parameter value iff c is a unit."""
    return is_unit(M.c)


def fixes_infinity(M: MatrixFamily) -> bool:
    return M.c.is_zero() and is_unit(M.a)


# ---------------------------------------------------------------------------
# Chains of matrix families


@dataclass(frozen=True)
class FamilyLinkDetail:
    """A family's determinant and whether it keeps infinity in the T1-chart."""

    det: Poly
    basepoint_ok: bool

    def json_fields(self) -> dict:
        return {"det": str(self.det), "basepoint_ok": self.basepoint_ok}

    def line(self) -> str:
        base = "ok" if self.basepoint_ok else "leaves the T1-chart"
        return f"det = {self.det}, base point {base}"


def _certify_family(link: Link):
    fam = link.family
    det = det_family(fam)
    basepoint_ok = image_of_infinity_in_open(fam)
    reasons = [] if is_unit(det) else [f"determinant {det} is not a unit"]
    if not basepoint_ok:
        reasons.append("image of infinity leaves the T1-chart")
    ends = (endpoint_matrix(fam, 0), endpoint_matrix(fam, 1))
    return reasons, ends, FamilyLinkDetail(det, basepoint_ok)


def verify_matrix_chain(chain: Chain, exact_junctions: bool = False) -> ChainReport:
    """Check unit determinants, the base-point condition, junctions (projective
    by default, exact on request) and the end matrices."""

    def match(a, b):
        u = (1 if a == b else None) if exact_junctions else projective_unit(a, b)
        return u is not None, u

    return walk_chain("matrix", chain.links, _certify_family, match, chain.from_, chain.to)


BUILTIN_MATRIX_CHAINS = ("prop_3_4_2",)


def builtin_matrix_chain(name: str = "prop_3_4_2") -> Chain:
    """The shipped two-family chain joining the two composites of the swap
    and the shear of P^1: H1 = [[T,-1],[1,0]] traversed backwards, then
    H2 = [[0,1],[-1,T]] forwards; the junction holds up to the unit -1."""
    if name not in BUILTIN_MATRIX_CHAINS:
        raise ValueError(f"unknown builtin matrix chain {name!r}")
    t = Poly.x(ZZ, TVAR)
    one = Poly.one(ZZ, TVAR)
    zero = Poly.zero(ZZ, TVAR)
    h1 = MatrixFamily(t, -one, one, zero)
    h2 = MatrixFamily(zero, one, -one, t)
    links = (Link(h1, REVERSED), Link(h2, FORWARD))
    return Chain(links, Mat2(1, -1, 1, 0), Mat2(0, 1, -1, 1))
