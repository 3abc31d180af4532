"""Seeded randomized law suites driven by independent oracles.

A law judges one trial: it takes an RNG, draws its inputs from it and
returns None when the law holds, or a JSON-ready counterexample dict when it
does not.  `run_property` owns the loop: it draws one RNG per law from the
seed, runs the requested number of trials and reports the first failure as
{"trial": k, **counterexample}.  An exception raised in trial k is a failure
too, reported as {"trial": k, "error": "<Type>: <message>"}.  A law is
added by one function decorated with `@_property(suite)`; the suite tuples
below list the registered names in definition order.

The resultant laws are checked against the cofactor oracle (never against
Bareiss itself), the product formula against split polynomials with known
roots, the composition law at Sylvester size 2nm against resultants of
sizes 2n and 2m, and Bezout uniqueness against a from-scratch field solver
with two pivot orders.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from . import exprio
from .monoid import bezout_pair, dehomogenize, homogenize, mat_mul, oplus, validate
from .mpoly import MPoly
from .poly import Poly
from .randgen import RandomMapSpec, _gen_valid_map, rand_poly, rand_scalar
from .resultants import (
    SYLVESTER_SIZE_LIMIT,
    _sylvester_rows,
    cofactor_det,
    reciprocal,
    res_bezout,
    resultant,
    resultant_oracle,
    resultant_product_oracle,
    split_poly,
)
from .rings import QQ, RingTag, Scalar, ZZ

F5 = RingTag("Fp", 5)
F2 = RingTag("Fp", 2)
F7 = RingTag("Fp", 7)

_RES_RINGS = (ZZ, ZZ, QQ, F5, F2)
_MAP_RINGS = (ZZ, ZZ, QQ, F5)


class UnknownPropertyError(ValueError):
    pass


@dataclass
class PropertyResult:
    name: str
    passed: bool
    trials: int
    seed: int
    counterexample: dict | None = None

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.trials} trials, seed {self.seed})"


PROPERTIES = {}
_SUITES = {"resultant": [], "monoid": [], "io": []}


def _property(suite: str):
    """Register a one-trial law under its function name, in `suite`."""

    def register(law):
        PROPERTIES[law.__name__] = law
        _SUITES[suite].append(law.__name__)
        return law

    return register


def run_property(name: str, trials: int = 1000, seed: int = 7) -> PropertyResult:
    law = PROPERTIES.get(name)
    if law is None:
        raise UnknownPropertyError(
            f"unknown property {name!r} (known: {', '.join(sorted(PROPERTIES))})"
        )
    rng = random.Random(f"{seed}:{name}")
    for k in range(trials):
        try:
            counterexample = law(rng)
        except Exception as exc:
            counterexample = {"error": f"{type(exc).__name__}: {exc}"}
        if counterexample is not None:
            return PropertyResult(name, False, trials, seed, {"trial": k, **counterexample})
    return PropertyResult(name, True, trials, seed)


def _rand_res_inputs(rng):
    ring = rng.choice(_RES_RINGS)
    n = rng.randint(0, 4)
    m = rng.randint(0, 4)
    f = rand_poly(rng, ring, n, 4)
    g = rand_poly(rng, ring, m, 4)
    return ring, n, m, f, g


def _res_note(ring, f, g, n, m) -> dict:
    """The ring and both inputs of a resultant law, with their formal degrees."""
    return {
        "ring": ring.name(),
        "f": f"{f} (formal degree {n})",
        "g": f"{g} (formal degree {m})",
    }


# ---------------------------------------------------------------------------
# Resultant laws (sizes n+m <= 8 so the cofactor oracle always applies)


@_property("resultant")
def oracle_agreement(rng):
    ring, n, m, f, g = _rand_res_inputs(rng)
    fast = resultant(f, g, n, m)
    slow = resultant_oracle(f, g, n, m)
    if fast != slow:
        return {**_res_note(ring, f, g, n, m), "bareiss": str(fast), "cofactor": str(slow)}


@_property("resultant")
def swap_law(rng):
    ring, n, m, f, g = _rand_res_inputs(rng)
    lhs = resultant(f, g, n, m)
    rhs = resultant_oracle(g, f, m, n)
    if (n * m) % 2:
        rhs = -rhs
    if lhs != rhs:
        return {**_res_note(ring, f, g, n, m), "res(f,g)": str(lhs), "(-1)^(nm) res(g,f)": str(rhs)}


@_property("resultant")
def scaling_law(rng):
    # the exponent placement a^m b^n is what the matrix satisfies: scaling f
    # multiplies the m f-columns by a, scaling g the n g-columns by b
    ring, n, m, f, g = _rand_res_inputs(rng)
    a = rand_scalar(rng, ring, 3)
    b = rand_scalar(rng, ring, 3)
    lhs = resultant(f.scale(a), g.scale(b), n, m)
    rhs = a**m * b**n * resultant_oracle(f, g, n, m)
    if lhs != rhs:
        return {
            **_res_note(ring, f, g, n, m),
            "a": str(a),
            "b": str(b),
            "res(af,bg)": str(lhs),
            "a^m b^n res(f,g)": str(rhs),
        }


@_property("resultant")
def bezout_law(rng):
    # p = q = 0 satisfies the identity whenever res = 0, so the coefficients
    # are also compared with the last-row cofactors by expansion by minors
    # (the determinant with the last row replaced by e_j).  A third of the
    # pairs share a monic factor h (res = 0; a rank-deficient Sylvester
    # matrix when deg h >= 2), a sixth have g = 0 at formal degree m.
    ring, n, m, f, g = _rand_res_inputs(rng)
    shape, d = rng.randrange(6), rng.randint(1, 4)
    if shape < 2 and d <= min(n, m):
        h = rand_poly(rng, ring, d - 1, 3) + Poly(ring, "X", (0,) * d + (1,))
        f, g = h * rand_poly(rng, ring, n - d, 3), h * rand_poly(rng, ring, m - d, 3)
    elif shape == 2:
        g = Poly.zero(ring, "X")
    if n + m < 1:
        return None
    r = resultant(f, g, n, m)
    p, q = res_bezout(f, g, n, m)
    combo = p * f + q * g
    rows, one, _ = _sylvester_rows(f, g, n, m)
    units = [[int(c == j) for c in range(n + m)] for j in range(n + m)]
    y = [cofactor_det(rows[:-1] + [e], one) for e in units]
    minors = (Poly(ring, "X", y[:m][::-1]), Poly(ring, "X", y[m:][::-1]))
    if combo != Poly.constant(ring, "X", r) or (p, q) != minors:
        return {
            **_res_note(ring, f, g, n, m),
            "p": str(p),
            "q": str(q),
            "p*f+q*g": str(combo),
            "res": str(r),
            "minors": [str(v) for v in minors],
        }


@_property("resultant")
def product_law(rng):
    n = rng.randint(0, 4)
    m = rng.randint(0, 4)
    roots_f = [Scalar(ZZ, rng.randint(-4, 4)) for _ in range(n)]
    roots_g = [Scalar(ZZ, rng.randint(-4, 4)) for _ in range(m)]
    lead_f = Scalar(ZZ, rng.randint(-3, 3))
    lead_g = Scalar(ZZ, rng.randint(-3, 3))
    f = split_poly(ZZ, "X", lead_f, roots_f)
    g = split_poly(ZZ, "X", lead_g, roots_g)
    lhs = resultant(f, g, n, m)
    rhs = resultant_product_oracle(roots_f, roots_g, lead_f, lead_g)
    if lhs != rhs:
        return {
            "roots_f": [str(r) for r in roots_f],
            "roots_g": [str(r) for r in roots_g],
            "lead_f": str(lead_f),
            "lead_g": str(lead_g),
            "sylvester": str(lhs),
            "product": str(rhs),
        }


@_property("resultant")
def reciprocal_law(rng):
    ring, n, m, f, g = _rand_res_inputs(rng)
    lhs = resultant(reciprocal(f, n), reciprocal(g, m), n, m)
    rhs = resultant_oracle(f, g, n, m)
    if (n * m) % 2:
        rhs = -rhs
    if lhs != rhs:
        return {**_res_note(ring, f, g, n, m), "res(f*,g*)": str(lhs), "(-1)^(nm) res(f,g)": str(rhs)}


# Degree pairs (n, m) of composites u∘v: Sylvester sizes 2nm from 10 to the limit
_COMPOSITIONS = [(n, m) for n in range(1, 51) for m in range(1, 51)
                 if 9 <= 2 * n * m <= SYLVESTER_SIZE_LIMIT]


def _composition(rng, ring, zeros, cap, wide):
    """res(u∘v) = res(u)^m res(v)^(n^2) for u = f/g of degree n and v = f'/g'
    of degree m, f and f' monic, deg g < n and deg g' < m, each lower
    coefficient zero with probability `zeros`: a known answer at Sylvester
    size 2nm from sizes 2n and 2m.  2nm is at most cap, or, with probability
    wide, SYLVESTER_SIZE_LIMIT.  The composite comes from Poly arithmetic
    alone: the sums over i of f_i f'^i g'^(n-i) and of g_i f'^i g'^(n-i)."""
    cap = SYLVESTER_SIZE_LIMIT if rng.random() < wide else cap
    n, m = rng.choice([(n, m) for n, m in _COMPOSITIONS if 2 * n * m <= cap])
    u, v = (tuple(Poly(ring, "X", [0 if rng.random() < zeros else rand_scalar(rng, ring, 3)
                                   for _ in range(d)] + [top]) for top in (1, 0)) for d in (n, m))
    powers = [v[0] ** i * v[1] ** (n - i) for i in range(n + 1)]
    f, g = (sum((t.scale(p.coeff(i)) for i, t in enumerate(powers)), Poly.zero(ring, "X"))
            for p in u)
    lhs = resultant(f, g, n * m, n * m)
    rhs = resultant(*u, n, n) ** m * resultant(*v, m, m) ** (n * n)
    if lhs != rhs:
        return {"ring": ring.name(), "u": f"({u[0]})/({u[1]})", "v": f"({v[0]})/({v[1]})",
                "res(u∘v)": str(lhs), "res(u)^m res(v)^(n^2)": str(rhs)}


@_property("resultant")
def composition_law(rng):
    # a size-100 trial over Z takes up to 0.25 s, so wide draws are rare
    return _composition(rng, ZZ, 0.0, 12, 0.002)


@_property("resultant")
def composition_law_fp(rng):
    # zero-heavy: pivots vanish mod 7 and columns swap, above size 24 too
    return _composition(rng, F7, 0.3, 28, 0.01)


# ---------------------------------------------------------------------------
# Monoid laws


def _rand_map(rng, ring=None, degrees=(0, 3)):
    ring = rng.choice(_MAP_RINGS) if ring is None else ring
    spec = RandomMapSpec(ring, *degrees, 3, seed=0)
    return _gen_valid_map(rng, spec)


def _map_note(u) -> dict:
    return {"ring": u.ring.name(), "f": str(u.f), "g": str(u.g)}


@_property("monoid")
def oplus_assoc(rng):
    ring = rng.choice(_MAP_RINGS)
    u, v, w = (_rand_map(rng, ring, (0, 2)) for _ in range(3))
    if oplus(oplus(u, v), w) != oplus(u, oplus(v, w)):
        return {"u": _map_note(u), "v": _map_note(v), "w": _map_note(w)}


@_property("monoid")
def oplus_identity(rng):
    ring = rng.choice(_MAP_RINGS)
    u = _rand_map(rng, ring)
    e = validate(Poly.one(ring, "X"), Poly.zero(ring, "X"), ring)
    if oplus(u, e) != u or oplus(e, u) != u:
        return {"u": _map_note(u)}


@_property("monoid")
def degree_additivity(rng):
    ring = rng.choice(_MAP_RINGS)
    u = _rand_map(rng, ring)
    v = _rand_map(rng, ring)
    s = oplus(u, v)
    if s.n != u.n + v.n:
        return {"u": _map_note(u), "v": _map_note(v), "sum": _map_note(s)}


@_property("monoid")
def sum_resultant_law(rng):
    # oplus proves the sum's invariants and resultant without elimination;
    # validating its pair afresh runs Bareiss on the Sylvester matrix
    ring = rng.choice(_MAP_RINGS)
    u = _rand_map(rng, ring)
    v = _rand_map(rng, ring)
    s = oplus(u, v)
    fresh = validate(s.f, s.g, ring)
    if fresh != s or fresh.res != s.res:
        return {
            "u": _map_note(u),
            "v": _map_note(v),
            "sum": _map_note(s),
            "oplus res": str(s.res),
            "bareiss res": str(fresh.res),
        }


@_property("monoid")
def matrix_law(rng):
    # the sum carries the product matrix as its witness, so the left side
    # is computed from a freshly validated sum, which carries none
    ring = rng.choice(_MAP_RINGS)
    u = _rand_map(rng, ring)
    v = _rand_map(rng, ring)
    s = oplus(u, v)
    lhs = bezout_pair(validate(s.f, s.g, ring)).matrix()
    rhs = mat_mul(bezout_pair(u).matrix(), bezout_pair(v).matrix())
    if lhs != rhs:
        return {"u": _map_note(u), "v": _map_note(v)}


@_property("monoid")
def det_witness(rng):
    u = _rand_map(rng)
    w = bezout_pair(u)
    det = u.f * w.p + w.q * u.g
    if det != Poly.one(u.ring, "X"):
        return {"u": _map_note(u), "det": str(det)}


@_property("monoid")
def homogenize_law(rng):
    u = _rand_map(rng)
    F0, F1 = homogenize(u)
    if dehomogenize(F0, F1) != u:
        return {"u": _map_note(u), "F0": str(F0), "F1": str(F1)}


# -- independent Bezout solver (field Gaussian elimination on raw numbers) --


def _raw_sylvester(u):
    n = u.n
    fc = [u.f.coeff(i).value for i in range(n + 1)]
    gc = [u.g.coeff(i).value for i in range(n + 1)]
    size = 2 * n
    rows = [[0] * size for _ in range(size)]
    for j in range(n):
        for i in range(n + 1):
            rows[j + i][j] = fc[n - i]
            rows[j + i][n + j] = gc[n - i]
    return rows


def _field_solve(rows, rhs, modulus, pivot_from_bottom):
    """Unique solution of a nonsingular system over Q or F_p."""
    size = len(rows)
    if modulus is None:
        m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    else:
        m = [[v % modulus for v in row] + [rhs[i] % modulus] for i, row in enumerate(rows)]
    for col in range(size):
        search = range(size - 1, col - 1, -1) if pivot_from_bottom else range(col, size)
        pr = next(i for i in search if m[i][col])
        m[col], m[pr] = m[pr], m[col]
        if modulus is None:
            inv = 1 / m[col][col]
            m[col] = [v * inv for v in m[col]]
        else:
            inv = pow(m[col][col], -1, modulus)
            m[col] = [v * inv % modulus for v in m[col]]
        for i in range(size):
            if i != col and m[i][col]:
                factor = m[i][col]
                if modulus is None:
                    m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
                else:
                    m[i] = [(a - factor * b) % modulus for a, b in zip(m[i], m[col])]
    return [m[i][size] for i in range(size)]


@_property("monoid")
def bezout_unique(rng, ring=None, degrees=(0, 3)):
    # no size cap: a caller may fix the ring and degrees above the oracle's 8x8
    u = _rand_map(rng, ring, degrees)
    if u.n == 0:
        return None
    w = bezout_pair(u)
    rows = _raw_sylvester(u)
    rhs = [0] * (2 * u.n - 1) + [1]
    modulus = u.ring.modulus
    sol_a = _field_solve([r[:] for r in rows], rhs, modulus, False)
    sol_b = _field_solve([r[:] for r in rows], rhs, modulus, True)
    got = [w.p.coeff(u.n - 1 - i).value for i in range(u.n)] + [
        w.q.coeff(u.n - 1 - i).value for i in range(u.n)
    ]
    if modulus is None:
        got = [Fraction(v) for v in got]
    ok = sol_a == sol_b == got
    if not ok:
        return {
            "u": _map_note(u),
            "pivot_down": [str(v) for v in sol_a],
            "pivot_up": [str(v) for v in sol_b],
            "bezout_pair": [str(v) for v in got],
        }


# ---------------------------------------------------------------------------
# I/O round-trips


@_property("io")
def parse_print_roundtrip(rng):
    var_pools = (("X",), ("X", "T"), ("T0", "T1", "T"))
    ring = rng.choice(_RES_RINGS)
    vars = rng.choice(var_pools)
    if len(vars) == 1:
        p = rand_poly(rng, ring, rng.randint(0, 6), 9)
    else:
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 3) for _ in vars)
            terms[e] = rand_scalar(rng, ring, 9)
        p = MPoly(ring, vars, terms)
    text = exprio.print_poly(p)
    back = exprio.parse_poly(text, vars, ring)
    if back != p:
        return {"ring": ring.name(), "printed": text, "reparsed": str(back)}


@_property("io")
def json_roundtrip(rng):
    u = _rand_map(rng, rng.choice(_MAP_RINGS))
    if exprio.map_from_json(exprio.loads(json.dumps(exprio.map_to_json(u)))) != u:
        return {"map": _map_note(u)}


RESULTANT_LAWS, MONOID_LAWS, IO_LAWS = (tuple(_SUITES[s]) for s in ("resultant", "monoid", "io"))
