"""Families of endomorphisms of the punctured affine plane.

A family is a pair (F0, F1) in Z[T0,T1,T].  The witness that its zero locus
meets only the origin is a membership certificate: polynomials A_i, B_i with

    T0^i * T1^(N-i) = A_i*F0 + B_i*F1   for every 0 <= i <= N,

i.e. (T0,T1)^N is contained in the ideal (F0, F1).  Certificates are
searched for over Z with bounded N and bounded coefficient total degree by
exact integer linear algebra; a failed search is inconclusive, never a proof
of nonexistence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .chains import FORWARD, REVERSED, ChainReport, check_orientation, exact, walk_chain
from .linsolve import IntegerSolver, feasible_mod_p
from .mpoly import MPoly
from .rings import Scalar, ZZ

PLANE_VARS = ("T0", "T1", "T")
POINT_VARS = ("T0", "T1")


class MembershipNotFound(Exception):
    """Search exhausted its bounds; says nothing about larger certificates."""

    def __init__(self, n_max: int, d_max: int):
        self.n_max = n_max
        self.d_max = d_max
        super().__init__(
            f"no certificate within N <= {n_max}, coefficient degree <= {d_max} "
            "(inconclusive: larger certificates may exist)"
        )


def _as_plane(p: MPoly) -> MPoly:
    if p.ring != ZZ:
        raise ValueError("plane families are defined over Z")
    if p.vars != PLANE_VARS:
        p = p._embed(PLANE_VARS)
    return p


@dataclass(frozen=True)
class PlaneFamily:
    F0: MPoly
    F1: MPoly

    def __post_init__(self):
        object.__setattr__(self, "F0", _as_plane(self.F0))
        object.__setattr__(self, "F1", _as_plane(self.F1))


@dataclass(frozen=True)
class MembershipCertificate:
    """combos[i] = (A_i, B_i) witnesses T0^i * T1^(N-i), i = 0..N."""

    N: int
    combos: tuple

    def coefficient_degree(self) -> int:
        return max(
            max(a.total_degree(), b.total_degree()) for a, b in self.combos
        )


@dataclass(frozen=True)
class MembershipVerdict:
    ok: bool
    failing_index: int | None = None

    def __bool__(self):
        return self.ok


def _monomial(i: int, N: int) -> MPoly:
    return MPoly(ZZ, PLANE_VARS, {(i, N - i, 0): 1})


def verify_membership(fam: PlaneFamily, cert: MembershipCertificate) -> MembershipVerdict:
    """Check the N+1 polynomial identities exactly."""
    if len(cert.combos) != cert.N + 1:
        return MembershipVerdict(False, 0)
    for i, (a, b) in enumerate(cert.combos):
        lhs = _as_plane(a) * fam.F0 + _as_plane(b) * fam.F1
        if lhs != _monomial(i, cert.N):
            return MembershipVerdict(False, i)
    return MembershipVerdict(True)


# ---------------------------------------------------------------------------
# Certificate search


def _monomials_upto(d: int):
    out = []
    for e0 in range(d + 1):
        for e1 in range(d + 1 - e0):
            for et in range(d + 1 - e0 - e1):
                out.append((e0, e1, et))
    out.sort()
    return out


def _system(fam: PlaneFamily, N: int, degree: int):
    """The coefficient-matching system of T0^i*T1^(N-i) = A_i*F0 + B_i*F1.

    Columns are (which polynomial, monomial of the unknown multiplier), as
    sparse {product monomial: coefficient} dicts.  Returns the multiplier
    monomials, the columns and the sparse target of each i = 0..N.
    """
    monos = _monomials_upto(degree)
    cols = []
    for poly in (fam.F0, fam.F1):
        for m in monos:
            col = {}
            for e, c in poly.terms.items():
                key = (e[0] + m[0], e[1] + m[1], e[2] + m[2])
                col[key] = col.get(key, 0) + int(c.value)
            cols.append(col)
    targets = [{(i, N - i, 0): 1} for i in range(N + 1)]
    return monos, cols, targets


def _solve_at(fam: PlaneFamily, N: int, degree: int):
    monos, cols, targets = _system(fam, N, degree)
    row_index = {key: r for r, key in enumerate(sorted(set().union(*targets, *cols)))}
    a_rows = [[0] * len(cols) for _ in row_index]
    for j, col in enumerate(cols):
        for key, v in col.items():
            a_rows[row_index[key]][j] = v
    half = len(monos)
    solver = IntegerSolver(a_rows, 2 * half)
    combos = []
    for tgt in targets:
        b = [0] * len(row_index)
        for key, v in tgt.items():
            b[row_index[key]] = v
        x = solver.solve(b)
        if x is None:
            return None
        a_terms = {m: x[k] for k, m in enumerate(monos) if x[k]}
        b_terms = {m: x[half + k] for k, m in enumerate(monos) if x[half + k]}
        combos.append(
            (MPoly(ZZ, PLANE_VARS, a_terms), MPoly(ZZ, PLANE_VARS, b_terms))
        )
    return MembershipCertificate(N, tuple(combos))


def _maybe_feasible(fam: PlaneFamily, N: int, degree: int) -> bool:
    _, cols, targets = _system(fam, N, degree)
    return all(feasible_mod_p(cols, targets))


def default_degree_cap(fam: PlaneFamily, n_max: int) -> int:
    return max(fam.F0.total_degree(), fam.F1.total_degree(), 0) + n_max


def find_membership(fam: PlaneFamily, n_max: int = 6, d_max: int | None = None) -> MembershipCertificate:
    """Smallest-N, then smallest-degree certificate within the bounds.

    For each N a one-shot modular elimination at the degree cap prunes
    hopeless N (solvability is monotone in the degree bound); the exact
    integer search then ascends through the degrees.  Deterministic given
    the bounds.  Raises MembershipNotFound when the bounds are exhausted.
    """
    d_cap = default_degree_cap(fam, n_max) if d_max is None else d_max
    for N in range(1, n_max + 1):
        if not _maybe_feasible(fam, N, d_cap):
            continue
        for degree in range(d_cap + 1):
            cert = _solve_at(fam, N, degree)
            if cert is not None:
                verdict = verify_membership(fam, cert)
                if not verdict.ok:
                    raise AssertionError("solver produced a bad certificate")
                return cert
    raise MembershipNotFound(n_max, d_cap)


# ---------------------------------------------------------------------------
# Endpoints and chains


def plane_endpoint(fam: PlaneFamily, t: int):
    """The endomorphism pair at T = t, as polynomials in (T0, T1)."""
    if t not in (0, 1):
        raise ValueError("endpoints live at T = 0 and T = 1")
    s = Scalar(ZZ, t)
    return fam.F0.subst("T", s), fam.F1.subst("T", s)


@dataclass(frozen=True)
class PlaneChainLink:
    family: PlaneFamily
    orientation: str
    cert: MembershipCertificate | None = None  # supplied, else searched for

    def __post_init__(self):
        check_orientation(self.orientation)


@dataclass(frozen=True)
class PlaneChain:
    links: tuple
    from_pair: tuple
    to_pair: tuple


@dataclass(frozen=True)
class MembershipLinkDetail:
    """A family's membership certificate, or why it has none."""

    cert: MembershipCertificate | None = None
    note: str | None = None

    def json_fields(self) -> dict:
        from .exprio import membership_to_json

        return {"note": self.note} if self.note else {"cert": membership_to_json(self.cert)}

    def line(self) -> str:
        if self.note:
            return f"NOT CERTIFIED ({self.note})"
        return f"certified with N = {self.cert.N}, degree <= {self.cert.coefficient_degree()}"


def _certify_family(link: PlaneChainLink, n_max: int, d_max: int | None):
    cert, note = link.cert, None
    if cert is not None:
        verdict = verify_membership(link.family, cert)
        if not verdict.ok:
            cert, note = None, f"supplied certificate fails identity {verdict.failing_index}"
    else:
        try:
            cert = find_membership(link.family, n_max, d_max)
        except MembershipNotFound as exc:
            note = str(exc)
    ends = (plane_endpoint(link.family, 0), plane_endpoint(link.family, 1))
    return [note] if note else [], ends, MembershipLinkDetail(cert, note)


def verify_plane_chain(chain: PlaneChain, n_max: int = 6, d_max: int | None = None) -> ChainReport:
    """Certify every family (found or supplied certificate), then check the
    junctions under the link orientations and the end pairs, all exactly."""
    certify = partial(_certify_family, n_max=n_max, d_max=d_max)
    return walk_chain("plane", chain.links, certify, exact, chain.from_pair, chain.to_pair)


BUILTIN_PLANE_CHAINS = ("prop_3_4_5",)


def builtin_plane_chain(name: str = "prop_3_4_5") -> PlaneChain:
    """The shipped six-family chain from (T0^2, T1) to (T0, T1^2), traversed
    (forward, reversed, reversed, forward, reversed, reversed)."""
    if name not in BUILTIN_PLANE_CHAINS:
        raise ValueError(f"unknown builtin plane chain {name!r}")
    from .exprio import parse_poly

    def p(s):
        return parse_poly(s, PLANE_VARS, ZZ)

    def q(s):
        return parse_poly(s, POINT_VARS, ZZ)

    fams = [
        PlaneFamily(p("(T0 + T*T1)^2"), p("T1")),
        PlaneFamily(p("(T0 + T1)^2"), p("T*T1 + (T - 1)*T0")),
        PlaneFamily(p("(T*T0 + T1)^2"), p("-T0")),
        PlaneFamily(p("T*T0 + T1^2"), p("-T0")),
        PlaneFamily(p("T0 + T*T1^2"), p("-T0 + (1 - T)*T1^2")),
        PlaneFamily(p("T0"), p("-T*T0 + T1^2")),
    ]
    orientations = (FORWARD, REVERSED, REVERSED, FORWARD, REVERSED, REVERSED)
    links = tuple(
        PlaneChainLink(f, o) for f, o in zip(fams, orientations)
    )
    return PlaneChain(
        links=links,
        from_pair=(q("T0^2"), q("T1")),
        to_pair=(q("T0"), q("T1^2")),
    )
