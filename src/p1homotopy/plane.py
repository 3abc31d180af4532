"""Families of endomorphisms of the punctured affine plane.

A family is a pair (F0, F1) in Z[T0,T1,T].  The witness that its zero locus
meets only the origin is a membership certificate: polynomials A_i, B_i with

    T0^i * T1^(N-i) = A_i*F0 + B_i*F1   for every 0 <= i <= N,

i.e. (T0,T1)^N is contained in the ideal (F0, F1).  Certificates are
searched for over Z with bounded N and bounded coefficient total degree: one
pass mod 2 per family on int bitsets, and one mod 3 once an integer system
has failed (sound filters, since a certificate over Z reduces mod p), then
exact integer linear algebra with one system per degree shared by all N.  A
failed search is inconclusive, never a proof of nonexistence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import zip_longest

from .chains import Chain, ChainReport, Link, exact, walk_chain
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
    return out  # in lex order


def _coded_terms(fam: PlaneFamily):
    """The code e -> (e0*B + e1)*B + et, B above every exponent a search
    within the limits meets, so codes sort as monomials do in lex order and
    add as they do, and F0's and F1's terms as (code, coefficient).  One
    code keys the filters' ranks and the integer rows."""
    B = max(fam.F0.total_degree(), fam.F1.total_degree(), 0) + DEGREE_LIMIT + N_LIMIT + 1
    code = lambda e: (e[0] * B + e[1]) * B + e[2]
    return code, [[(code(e), c) for e, c in F.raw.items()] for F in (fam.F0, fam.F1)]


def _exact_solver(fam: PlaneFamily, degree: int):
    """N -> certificate or None from one integer system: columns F0*m, then
    F1*m, over _monomials_upto(degree), as sparse columns keyed by the code
    of each monomial (_coded_terms)."""
    code, terms = _coded_terms(fam)
    monos = _monomials_upto(degree)
    solver = IntegerSolver([{ce + cm: c for ce, c in F} for F in terms for cm in map(code, monos)])
    half = len(monos)

    def certificate(N):
        combos = []
        for i in range(N + 1):
            x = solver.solve({code((i, N - i, 0)): 1})
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
# the cube of the cap.  At both limits (5*(T0 + T1) + 2*T*(T0 + 2*T1)^2,
# (T0 + 2*T1)^3), the slowest family seen that passes both filters, takes
# about 0.07 s in process (Python 3.11, 2-vCPU VM shared with other jobs),
# nearly all in the integer echelon at the cap, which rules out every N; the
# same with 3 for 5, (T0 + 2*T1)^2 for the cube, is ruled out mod 3 in 3 ms.
N_LIMIT = 12
DEGREE_LIMIT = 12


def default_degree_cap(fam: PlaneFamily, n_max: int) -> int:
    return max(fam.F0.total_degree(), fam.F1.total_degree(), 0) + n_max


def find_membership(fam: PlaneFamily, n_max: int = 6, d_max: int | None = None) -> MembershipCertificate:
    """Smallest-N, then smallest-degree certificate within the bounds.

    One pass mod 2 (linsolve.feasible_mod_p) gives each N the least degree
    whose columns span its targets mod 2.  A row's bit is the rank of its
    monomial's code among the rows of the system, so a bitset costs the
    size of the system, not the degrees of the family; the same code
    (_coded_terms) keys the rows of the integer systems.  A solution over Z
    reduces mod p, and one at degree d is one at d + 1, so the exact search
    for N starts there.  When that start fails, one pass mod 3 on the same
    rows gives a second least degree: from then on each N starts at the
    larger, is skipped when either filter or the cap rules it out, and else
    ascends to the least degree solvable over Z.  An integer system is built
    only for a degree some N needs; once the cap's exists, it is asked first,
    so an N it rules out builds no other.  Deterministic given the bounds.
    Raises ValueError above N_LIMIT or DEGREE_LIMIT, and MembershipNotFound
    when the bounds are exhausted.
    """
    d_cap = default_degree_cap(fam, n_max) if d_max is None else d_max
    if n_max > N_LIMIT or d_cap > DEGREE_LIMIT:
        raise ValueError(f"membership search bounds N <= {n_max}, degree <= {d_cap} exceed "
                         f"the limits N <= {N_LIMIT}, degree <= {DEGREE_LIMIT}")
    code, terms = _coded_terms(fam)
    monos = [(sum(m), code(m)) for m in _monomials_upto(d_cap)]
    wanted = [code((i, N - i, 0)) for N in range(1, n_max + 1) for i in range(N + 1)]
    rows = {ce + cm for F in terms for ce, _ in F for _, cm in monos}.union(wanted)
    rank = {c: r for r, c in enumerate(sorted(rows))}

    def least_degrees(p):
        """Per N, the least degree whose columns span its targets mod p, or None."""
        layers = [[] for _ in range(d_cap + 1)]
        for F in terms:  # F*m for every m: sums over F's terms = 1 mod 2, = 2 and = 1 mod 3
            by_residue = [map(sum, zip(*([1 << rank[ce + cm] for _, cm in monos]
                                         for ce, c in F if c % p == r)))
                          for r in range(p - 1, 0, -1)]
            columns = by_residue[0] if p == 2 else zip_longest(*by_residue, fillvalue=0)
            for (d, _), column in zip(monos, columns):
                layers[d].append(column)
        targets = [1 << rank[c] if p == 2 else (0, 1 << rank[c]) for c in wanted]
        lengths = iter(feasible_mod_p(layers, targets, p))
        per_n = [[next(lengths) for _ in range(N + 1)] for N in range(1, n_max + 1)]
        return [None] + [None if None in ls else max(ls) - 1 for ls in per_n]

    solvers = {}

    @cache  # no (N, degree) is asked twice
    def solve(N, degree):
        if degree not in solvers:
            solvers[degree] = _exact_solver(fam, degree)
        return solvers[degree](N)

    mod2, mod3 = least_degrees(2), None
    for N in range(1, n_max + 1):
        if mod2[N] is None:
            continue
        cert = None if mod3 else solve(N, mod2[N])  # no failure yet: no cap built
        if cert is None:
            mod3 = mod3 or least_degrees(3)
            if mod3[N] is None:
                continue
            degree = max(mod2[N], mod3[N])
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


def _certify_family(link: Link, search):
    """The link's fields: the family's membership certificate, or why it has none."""
    cert, note = link.proof, None
    if cert is not None:
        verdict = verify_membership(link.family, cert)
        if not verdict.ok:
            cert, note = None, f"supplied certificate fails identity {verdict.failing_index}"
    else:
        cert, note = search(link.family)
    ends = (plane_endpoint(link.family, 0), plane_endpoint(link.family, 1))
    return ([note], ends, {"note": note}) if note else ([], ends, {"cert": cert})


def verify_plane_chain(chain: Chain, n_max: int = 6, d_max: int | None = None) -> ChainReport:
    """Certify every family (found or supplied certificate), then check the
    junctions under the link orientations and the end pairs, all exactly."""
    @cache  # a family that recurs in the chain is searched once
    def search(fam):
        try:
            return find_membership(fam, n_max, d_max), None
        except MembershipNotFound as exc:
            return None, str(exc)
    certified = map(partial(_certify_family, search=search), chain.links)
    return walk_chain("plane", chain.links, certified, exact, chain.from_, chain.to)
