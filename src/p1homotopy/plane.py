"""Families of endomorphisms of the punctured affine plane.

A family is a pair (F0, F1) in Z[T0,T1,T].  The witness that its zero locus
meets only the origin is a membership certificate: polynomials A_i, B_i with

    T0^i * T1^(N-i) = A_i*F0 + B_i*F1   for every 0 <= i <= N,

i.e. (T0,T1)^N is contained in the ideal (F0, F1).  Certificates are
searched for over Z with bounded N and bounded coefficient total degree: one
pass mod 2 per family on int bitsets (a sound filter, since a certificate
over Z reduces mod 2), then exact integer linear algebra with one system
per degree shared by all N.  A failed search is inconclusive, never a proof
of nonexistence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .chains import FORWARD, REVERSED, Chain, ChainReport, Link, exact, walk_chain
from .linsolve import IntegerSolver, feasible_mod_p
from .mpoly import MPoly
from .rings import ZZ

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


def _exact_solver(fam: PlaneFamily, degree: int):
    """N -> certificate or None from one integer system: columns F0*m, then
    F1*m, over _monomials_upto(degree), as sparse columns keyed by monomial
    (a target key no column has is a row no column reaches)."""
    monos = _monomials_upto(degree)
    solver = IntegerSolver([
        {(e[0] + m[0], e[1] + m[1], e[2] + m[2]): c for e, c in poly.raw.items()}
        for poly in (fam.F0, fam.F1)
        for m in monos
    ])
    half = len(monos)

    def certificate(N):
        combos = []
        for i in range(N + 1):
            x = solver.solve({(i, N - i, 0): 1})
            if x is None:
                return None
            a_terms = {monos[k]: v for k, v in x.items() if k < half}
            b_terms = {monos[k - half]: v for k, v in x.items() if k >= half}
            combos.append(
                (MPoly(ZZ, PLANE_VARS, a_terms), MPoly(ZZ, PLANE_VARS, b_terms))
            )
        return MembershipCertificate(N, tuple(combos))

    return certificate


# Largest N and coefficient degree cap a search accepts: the systems grow with
# the cube of the cap.  At both limits the dense mod-q family
# (3*(T0 + T1) + 2*T*(T0 + 2*T1), (T0 + 2*T1)^2), the slowest seen, takes
# about 0.17 s in process (Python 3.11, 2-vCPU VM shared with other jobs),
# nearly all in the integer echelon at the cap: it passes the filter mod 2
# from N = 2 on, and the cap rules out every N.
N_LIMIT = 12
DEGREE_LIMIT = 12


def default_degree_cap(fam: PlaneFamily, n_max: int) -> int:
    return max(fam.F0.total_degree(), fam.F1.total_degree(), 0) + n_max


def find_membership(fam: PlaneFamily, n_max: int = 6, d_max: int | None = None) -> MembershipCertificate:
    """Smallest-N, then smallest-degree certificate within the bounds.

    One pass mod 2 (linsolve.feasible_mod_p) gives each N the least degree
    whose columns span its targets mod 2.  A row's bit is the lex rank of
    its monomial among the rows of the system, so a bitset costs the size
    of the system, not the degrees of the family.  A solution over Z
    reduces mod 2, and one at degree d is one at d + 1, so the exact search
    for N starts there, skips N when the cap fails too, and else ascends to
    the least degree solvable over Z.  An integer system is built only for
    a degree some N needs; once the cap's exists, it is asked first, so an
    N it rules out builds no other.  Deterministic given the bounds.
    Raises ValueError above N_LIMIT or DEGREE_LIMIT, and MembershipNotFound
    when the bounds are exhausted.
    """
    d_cap = default_degree_cap(fam, n_max) if d_max is None else d_max
    if n_max > N_LIMIT or d_cap > DEGREE_LIMIT:
        raise ValueError(f"membership search bounds N <= {n_max}, degree <= {d_cap} exceed "
                         f"the limits N <= {N_LIMIT}, degree <= {DEGREE_LIMIT}")
    # the code (e0*B + e1)*B + et of a monomial, B above every exponent,
    # orders monomials lexicographically and adds as they do
    B = max(d_cap, 0) + max(fam.F0.total_degree(), fam.F1.total_degree(), n_max, 0) + 1

    def code(e):
        return (e[0] * B + e[1]) * B + e[2]

    odd = [[code(e) for e, c in F.raw.items() if c & 1] for F in (fam.F0, fam.F1)]
    monos = [(sum(m), code(m)) for m in _monomials_upto(d_cap)]
    wanted = [code((i, N - i, 0)) for N in range(1, n_max + 1) for i in range(N + 1)]
    rows = {c + cm for cs in odd for c in cs for _, cm in monos}.union(wanted)
    rank = {c: r for r, c in enumerate(sorted(rows))}
    layers = [[] for _ in range(d_cap + 1)]
    for cs in odd:  # F*m mod 2 for every m: a sum over the odd terms of F
        per_term = ([1 << rank[c + cm] for _, cm in monos] for c in cs)
        for (d, _), column in zip(monos, map(sum, zip(*per_term))):
            layers[d].append(column)
    targets = [1 << rank[c] for c in wanted]
    prefixes = iter(feasible_mod_p(layers, targets))
    solvers = {}

    def solve(N, degree):
        if degree not in solvers:
            solvers[degree] = _exact_solver(fam, degree)
        return solvers[degree](N)

    for N in range(1, n_max + 1):
        lengths = [next(prefixes) for _ in range(N + 1)]
        if None in lengths:
            continue
        degree = max(lengths) - 1
        cert = None if d_cap in solvers else solve(N, degree)
        if cert is None and solve(N, d_cap) is None:
            continue  # unsolvable at the cap, so at every degree
        while cert is None:
            cert = solve(N, degree)
            degree += 1
        if not verify_membership(fam, cert).ok:
            raise AssertionError("solver produced a bad certificate")
        return cert
    raise MembershipNotFound(n_max, d_cap)


# ---------------------------------------------------------------------------
# Endpoints and chains


def plane_endpoint(fam: PlaneFamily, t: int):
    """The endomorphism pair at T = t, as polynomials in (T0, T1)."""
    if t not in (0, 1):
        raise ValueError("endpoints live at T = 0 and T = 1")
    return fam.F0.subst("T", t), fam.F1.subst("T", t)


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


def _certify_family(link: Link, n_max: int, d_max: int | None):
    cert, note = link.proof, None
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


def verify_plane_chain(chain: Chain, n_max: int = 6, d_max: int | None = None) -> ChainReport:
    """Certify every family (found or supplied certificate), then check the
    junctions under the link orientations and the end pairs, all exactly."""
    certify = partial(_certify_family, n_max=n_max, d_max=d_max)
    return walk_chain("plane", chain.links, certify, exact, chain.from_, chain.to)


BUILTIN_PLANE_CHAINS = ("prop_3_4_5",)


def builtin_plane_chain(name: str = "prop_3_4_5") -> Chain:
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
    links = tuple(Link(f, o) for f, o in zip(fams, orientations))
    return Chain(links, (q("T0^2"), q("T1")), (q("T0"), q("T1^2")))
