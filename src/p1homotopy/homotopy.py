"""Homotopy certificates over R[T] and chain verification.

A certificate is a pair F/G of X-polynomials with coefficients in R[T],
F monic in X of degree n, deg_X G < n, whose resultant over R[T] is a unit
(a constant +-1 over Z; a nonzero constant over a field).  Substituting
T = 0 and T = 1 yields its two endpoint maps; a chain strings certificates
together, each traversed forward or reversed, with exact junction equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import REVERSED, Chain, ChainReport, Link, exact, walk_chain
from .monoid import MapValidationError, PointedMap, validate
from .mpoly import MPoly
from .poly import Poly
from .resultants import is_unit, resultant
from .rings import RingTag

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
    so f_t is monic of degree n, and deg_X G < n gives deg g_t < n.  f_t and
    g_t are read off the terms c*X^i*T^j: at T = 0 those with j = 0, at T = 1
    every j, summed and normalised by the checked Poly constructor.
    """
    if t not in (0, 1):
        raise ValueError("endpoints live at T = 0 and T = 1")
    def at_t(P: MPoly) -> Poly:
        cs = [0] * (cert.n + 1)
        for (i, j), c in P.raw.items():
            if t or not j:
                cs[i] += c
        return Poly(cert.ring, XVAR, cs)
    return PointedMap(cert.ring, cert.n, at_t(cert.F), at_t(cert.G), cert.res.coeff(0))


def reverse(cert: HomotopyCert) -> HomotopyCert:
    """Reparametrize T -> 1 - T; swaps the endpoints."""
    one_minus_t = MPoly(cert.ring, (TVAR,), {(0,): 1, (1,): -1})
    return validate_cert(
        cert.F.subst(TVAR, one_minus_t), cert.G.subst(TVAR, one_minus_t), cert.ring
    )


# ---------------------------------------------------------------------------
# Chains


def _certify_link(link: Link, ring: RingTag):
    """The link's fields: its certificate's resultant, or why it is invalid."""
    try:
        cert = validate_cert(*link.family, ring)
        ends = (endpoint(cert, 0), endpoint(cert, 1))
    except CertValidationError as exc:
        return [str(exc)], None, {"error": str(exc)}
    return [], ends, {"res": cert.res}


def verify_chain(chain: Chain) -> ChainReport:
    """Validate both end maps (f, g) and every link, then check all junctions.

    The chain's ring is that of chain.from_.  Validated maps are canonical,
    so junctions and ends compare exactly.  An invalid end map is the first
    failure; the ends are then not compared.  Each link is certified once,
    first.  An end pair equal to the (f, g) of the endpoint its adjacent link
    proves, under the link's orientation, is that endpoint, valid with the
    same res (see `endpoint`); only the other ends are validated by elimination.
    """
    ring = chain.from_[0].ring
    certified = [_certify_link(link, ring) for link in chain.links]

    def end_map(pair, side):  # side 0: from_ by the first link; 1: to by the last
        ends = certified[-side][1] if certified else None
        u = ends and ends[side ^ (chain.links[-side].orientation == REVERSED)]
        return u if u and pair == (u.f, u.g) else validate(*pair, ring)

    ends, end_failure = (None, None), None
    try:
        ends = [end_map(chain.from_, 0), end_map(chain.to, 1)]
    except MapValidationError as exc:
        end_failure = f"end map invalid: {exc}"
    return walk_chain("homotopy", chain.links, certified, exact, *ends, end_failure=end_failure)
