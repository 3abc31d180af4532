"""Homotopy certificates over R[T] and chain verification.

A certificate is a pair F/G of X-polynomials with coefficients in R[T],
F monic in X of degree n, deg_X G < n, whose resultant over R[T] is a unit
(a constant +-1 over Z; a nonzero constant over a field).  Substituting
T = 0 and T = 1 yields its two endpoint maps; a chain strings certificates
together, each traversed forward or reversed, with exact junction equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .chains import FORWARD, REVERSED, Chain, ChainReport, Link, exact, walk_chain
from .monoid import MapValidationError, PointedMap, validate
from .mpoly import MPoly
from .poly import Poly
from .resultants import is_unit, resultant
from .rings import RingTag, ZZ

XVAR = "X"
TVAR = "T"


class CertValidationError(ValueError):
    """A candidate pair F/G violates a certificate invariant."""


class NotMonicInXError(CertValidationError):
    pass


class XDegreeTooHighError(CertValidationError):
    pass


class CertResultantNotUnitError(CertValidationError):
    def __init__(self, res: Poly):
        self.res = res
        super().__init__(f"resultant {res} is not a unit of {res.ring.name()}[T]")


def _as_xt(p, ring: RingTag) -> MPoly:
    if isinstance(p, Poly):
        p = MPoly.from_poly(p, (XVAR, TVAR))
    if p.vars != (XVAR, TVAR):
        p = p._embed((XVAR, TVAR))
    if p.ring != ring:
        raise CertValidationError(f"coefficients in {p.ring.name()}, expected {ring.name()}")
    return p


@dataclass(frozen=True)
class HomotopyCert:
    """Validated certificate; construct through validate_cert()."""

    ring: RingTag
    n: int
    F: MPoly
    G: MPoly
    res: Poly

    def __str__(self):
        from .exprio import print_poly

        return f"({print_poly(self.F)})/({print_poly(self.G)})"


def validate_cert(F, G, ring: RingTag | None = None) -> HomotopyCert:
    """Check certificate invariants; raises the failing one."""
    ring = F.ring if ring is None else ring
    F = _as_xt(F, ring)
    G = _as_xt(G, ring)
    n = F.degree_in(XVAR)
    if n < 0:
        raise NotMonicInXError("zero numerator")
    if {e: c for e, c in F.raw.items() if e[0] == n} != {(n, 0): 1}:
        raise NotMonicInXError(f"X^{n} coefficient must be the constant 1")
    if G.degree_in(XVAR) >= n:
        raise XDegreeTooHighError(
            f"denominator X-degree {G.degree_in(XVAR)} not below {n}"
        )
    res = resultant(F, G, n, n)
    if not is_unit(res):
        raise CertResultantNotUnitError(res)
    return HomotopyCert(ring, n, F, G, res)


def endpoint(cert: HomotopyCert, t: int) -> PointedMap:
    """The map at T = t (t in {0, 1}), built from the certificate's proof.

    No elimination runs.  Setting T = t is a ring map R[T] -> R, and the
    Sylvester matrix of (F, G) has the fixed formal degrees (n, n), so it
    maps entrywise to that of (f_t, g_t): res(f_t, g_t) = res(F, G)(t),
    which is the constant cert.res, a unit.  F is monic in X of degree n,
    so f_t is monic of degree n, and deg_X G < n gives deg g_t < n.
    """
    if t not in (0, 1):
        raise ValueError("endpoints live at T = 0 and T = 1")
    f = cert.F.subst(TVAR, t).to_poly(XVAR)
    g = cert.G.subst(TVAR, t).to_poly(XVAR)
    return PointedMap(cert.ring, cert.n, f, g, cert.res.coeff(0))


def reverse(cert: HomotopyCert) -> HomotopyCert:
    """Reparametrize T -> 1 - T; swaps the endpoints."""
    one_minus_t = MPoly(cert.ring, (TVAR,), {(0,): 1, (1,): -1})
    return validate_cert(
        cert.F.subst(TVAR, one_minus_t), cert.G.subst(TVAR, one_minus_t), cert.ring
    )


# ---------------------------------------------------------------------------
# Chains


@dataclass(frozen=True)
class CertLinkDetail:
    """A link's certificate resultant, or why the link is invalid."""

    res: Poly | None = None
    error: str | None = None

    def json_fields(self) -> dict:
        return {"error": self.error} if self.error else {"res": str(self.res)}

    def line(self) -> str:
        return f"INVALID ({self.error})" if self.error else f"valid, res = {self.res}"


def _certify_link(link: Link, ring: RingTag):
    try:
        cert = validate_cert(*link.family, ring)
        ends = (endpoint(cert, 0), endpoint(cert, 1))
    except CertValidationError as exc:
        return [str(exc)], None, CertLinkDetail(error=str(exc))
    return [], ends, CertLinkDetail(res=cert.res)


def verify_chain(chain: Chain) -> ChainReport:
    """Validate both end maps (f, g) and every link, then check all junctions.

    The chain's ring is that of chain.from_.  Validated maps are canonical,
    so junctions and ends compare exactly.  An invalid end map is the first
    failure; the ends are then not compared.
    """
    ring = chain.from_[0].ring
    ends, end_failure = (None, None), None
    try:
        ends = [validate(f, g, ring) for f, g in (chain.from_, chain.to)]
    except MapValidationError as exc:
        end_failure = f"end map invalid: {exc}"
    certify = partial(_certify_link, ring=ring)
    return walk_chain("homotopy", chain.links, certify, exact, *ends, end_failure=end_failure)


# ---------------------------------------------------------------------------
# Built-in chain


BUILTIN_CHAINS = ("prop_3_4_3",)


def builtin_chain(name: str = "prop_3_4_3") -> Chain:
    """The shipped four-certificate chain from the squaring map X^2/1 to
    (X^2-X+1)/(X-1), traversed (forward, forward, reversed, forward)."""
    if name not in BUILTIN_CHAINS:
        raise ValueError(f"unknown builtin chain {name!r}")
    from .exprio import parse_poly

    def xt(s):
        return parse_poly(s, (XVAR, TVAR), ZZ)

    def x(s):
        return parse_poly(s, (XVAR,), ZZ)

    links = (
        Link((xt("X^2"), xt("T*X + 1")), FORWARD),
        Link((xt("X^2 + 2*T*X + 2*T"), xt("X + 1")), FORWARD),
        Link((xt("X^2 + 2*T*X + 2*T"), xt("X + (2*T - 1)")), REVERSED),
        Link((xt("X^2 - T*X + T"), xt("X - 1")), FORWARD),
    )
    return Chain(links, (x("X^2"), x("1")), (x("X^2 - X + 1"), x("X - 1")))
