"""Seeded request generators for the three workloads, and their output checks.

Every request carries the outcome it must produce, known from how its input
was built rather than from running the program:

* maps: each operand is the first column of a product of elementary SL2
  matrices [[X + c, -1/u], [u, 0]], so a monoid sum is the product of the
  concatenated factors, the Bezout pair is read off the product, and the
  resultant is (-1)^(n(n-1)/2) * prod(u).  Invalid operands are broken in a
  way that names the error they must raise.
* chains: link k interpolates the factor constants of two maps of equal
  degree, c_i(T) = a_i + T(b_i - a_i), so junctions hold by construction;
  negative controls scale one G by 2 or flip one orientation.
* plane: automorphism families certify with N = 1; families whose zero locus
  contains a line (over every field, or modulo a small prime) certify never.

A workload's pool is a list of rounds; each round holds every template of
the workload once, in seeded order, so any prefix of whole rounds has the
same mix whatever the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import algebra as A

FP = A.Ring("Fp", 1000003)
QQ = A.Ring("Q")
ZZ = A.ZZ


FILE = "{file}"  # argv placeholder for the path of the request's input file


@dataclass
class Request:
    label: str  # template class, e.g. "oplus3+4+4.Q" or "chain.flip"
    argv: list
    expect_code: int
    expect: dict  # what the workload's check compares the --json payload with
    file: str | None = None  # JSON input, written to a file whose path replaces FILE


# ---------------------------------------------------------------------------
# maps


def _factors(rng: random.Random, ring: A.Ring, k: int):
    out = []
    for _ in range(k):
        if ring.kind == "Z":
            c, u = rng.randint(-3, 3), rng.choice((1, -1))
        elif ring.kind == "Q":
            c = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
            u = rng.choice((1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)))
        else:
            c, u = rng.randrange(ring.p), rng.randrange(1, ring.p)
        out.append((A.const(ring, c, 1), ring.norm(u)))
    return out


def _unit_resultant(units):
    """res(f, g) of the first column (f, g) of a product of elementary
    matrices with these units: (-1)^(n(n-1)/2) * prod(u)."""
    n = len(units)
    r = (-1) ** (n * (n - 1) // 2)
    for u in units:
        r *= u
    return r


def _map_res(ring: A.Ring, factors):
    return ring.norm(_unit_resultant([u for _, u in factors]))


def _column(ring: A.Ring, factors):
    m = A.sl2_product(ring, factors, 1)
    return m[0][0], m[1][0]


def _broken(rng: random.Random, ring: A.Ring, factors, kind: str):
    """A pair that fails validation with the named error, and the resultant
    it reports when that error is ResultantNotUnit."""
    f, g = _column(ring, factors)
    k = len(factors)
    if kind == "NotMonic":
        return A.scale(ring, f, 2), g, None
    if kind == "DegreeTooHigh":
        return f, A.add(ring, g, A.var(0, 1, k)), None
    if ring.kind == "Z":  # res(f, 2g) = 2^k res(f, g), not +-1
        return f, A.scale(ring, g, 2), ring.norm(2**k * _map_res(ring, factors))
    # over a field: a common root r makes the resultant zero
    r = A.const(ring, rng.randint(1, 5), 1)
    lin = A.sub(ring, A.var(0, 1), r)
    f1, _ = _column(ring, factors[:-1])
    g1 = A.const(ring, rng.randint(1, 5), 1) if k >= 2 else {}
    return A.mul(ring, lin, f1), A.mul(ring, lin, g1), 0


def _map_expect(ring, factors):
    f, g = _column(ring, factors)
    return {"ring": ring, "n": len(factors), "f": f, "g": g, "res": _map_res(ring, factors)}


# (operation, operand degrees); one round holds each once per ring.
MAPS_TEMPLATES = (
    ("validate", (3,)), ("validate", (6,)), ("validate", (9,)), ("validate", (12,)),
    ("bezout", (2,)), ("bezout", (4,)), ("bezout", (6,)), ("bezout", (8,)), ("bezout", (10,)),
    ("oplus", (1, 2)), ("oplus", (3, 3)), ("oplus", (2, 2, 2)), ("oplus", (4, 3)),
    ("oplus", (2, 3, 4)), ("oplus", (1, 2, 2, 3)), ("oplus", (5, 5)), ("oplus", (3, 4, 4)),
)
MAPS_RINGS = (ZZ, ZZ, QQ, FP)  # ring mix: Z 1/2, Q 1/4, F_p 1/4
INVALID_KINDS = ("NotMonic", "DegreeTooHigh", "ResultantNotUnit")


def _maps_request(rng: random.Random, op: str, degrees, ring: A.Ring, bad: str | None) -> Request:
    operands = [_factors(rng, ring, k) for k in degrees]
    texts = [A.pair_text(ring, *_column(ring, fs)) for fs in operands]
    label = f"{op}{'+'.join(map(str, degrees))}.{ring.kind}" + (".invalid" if bad else "")
    expect: dict
    if bad:
        slot = rng.randrange(len(operands))
        f, g, res = _broken(rng, ring, operands[slot], bad)
        texts[slot] = A.pair_text(ring, f, g)
        expect = {"valid": False, "error": bad}
        if op == "oplus":
            expect["operand"] = texts[slot]
        elif op == "validate" and res is not None:
            expect["detail"] = str(res)
        code = 1
    else:
        code = 0
        flat = [fac for fs in operands for fac in fs]
        expect = _map_expect(ring, flat)
    return Request(label, [op, *texts, "--ring", ring.flag, "--json"], code, {"op": op, **expect})


def maps_round(rng: random.Random):
    """One of each template on each ring.  Every tenth slot is invalid (the
    same slots and error kinds whatever the seed), so a tenth of requests
    must exit 1."""
    out = []
    for r, ring in enumerate(MAPS_RINGS):
        for t, (op, degrees) in enumerate(MAPS_TEMPLATES):
            slot = r * len(MAPS_TEMPLATES) + t
            bad = INVALID_KINDS[slot // 10 % 3] if slot % 10 == 3 else None
            out.append(_maps_request(rng, op, degrees, ring, bad))
    rng.shuffle(out)
    return out


def check_maps(expect: dict, payload: dict) -> str | None:
    if not expect.get("valid", True):
        want = {k: v for k, v in expect.items() if k != "op"}
        got = {k: payload.get(k) for k in want}
        return None if got == want else f"expected {want}, got {got}"
    op, ring = expect["op"], expect["ring"]
    m = payload["map"] if op in ("validate", "bezout") else payload
    if m["ring"] != ring.name or m["n"] != expect["n"]:
        return f"map header {m['ring']}/{m['n']}, expected {ring.name}/{expect['n']}"
    f, g = A.read(ring, m["f"], "X"), A.read(ring, m["g"], "X")
    if (f, g) != (expect["f"], expect["g"]):
        return f"map {m['f']}/{m['g']} is not the product of the factors"
    if op == "validate":
        if payload.get("valid") is not True or A.read(ring, payload["res"], "X") != A.const(ring, expect["res"], 1):
            return f"resultant {payload.get('res')}, expected {expect['res']}"
    if op == "bezout":
        p, q = A.read(ring, payload["p"], "X"), A.read(ring, payload["q"], "X")
        n = expect["n"]
        if A.add(ring, A.mul(ring, p, f), A.mul(ring, q, g)) != A.const(ring, 1, 1):
            return "p*f + q*g != 1"
        if A.degree(p) >= n - 1 or A.degree(q) >= n:
            return f"witness degrees {A.degree(p)}, {A.degree(q)} exceed the bounds for n = {n}"
    return None


# ---------------------------------------------------------------------------
# chains

XT = ("X", "T")


def _cert_column(consts_a, consts_b, units):
    """F, G in Z[T][X] for factor constants moving from consts_a to consts_b."""
    factors = []
    for a, b, u in zip(consts_a, consts_b, units):
        c = A.clean(ZZ, {(0, 0): a, (0, 1): b - a})
        factors.append((c, u))
    m = A.sl2_product(ZZ, factors, 2)
    return m[0][0], m[1][0]


def _map_json(consts, units):
    f, g = _cert_column(consts, consts, units)
    x_only = lambda p: {(e[0],): c for e, c in p.items()}
    return {"ring": "Z", "n": len(consts), "f": A.to_text(ZZ, x_only(f), "X"),
            "g": A.to_text(ZZ, x_only(g), "X")}


CHAIN_BUILTIN = ("verify-chain", "--builtin", "prop_3_4_3")
MATRIX_BUILTIN = ("verify-matrix-chain", "--builtin", "prop_3_4_2")


def chain_request(rng: random.Random, n: int, nlinks: int, control: str | None) -> Request:
    """A homotopy chain through nlinks + 1 distinct maps of degree n.

    control: None (passes), "scaled" (one G doubled: resultant +-2^n) or
    "flip" (one orientation reversed: a junction or an end mismatches).
    """
    units = [rng.choice((1, -1)) for _ in range(n)]
    stops = [[rng.randint(-2, 2) for _ in range(n)]]
    while len(stops) <= nlinks:
        nxt = [rng.randint(-2, 2) for _ in range(n)]
        if nxt != stops[-1]:
            stops.append(nxt)
    res = _unit_resultant(units)
    bad = rng.randrange(nlinks) if control else -1
    links = []
    link_ok = []
    for k in range(nlinks):
        forward = rng.random() < 0.5
        a, b = (stops[k], stops[k + 1]) if forward else (stops[k + 1], stops[k])
        F, G = _cert_column(a, b, units)
        if control == "scaled" and k == bad:
            G = A.scale(ZZ, G, 2)
        if control == "flip" and k == bad:
            forward = not forward
        links.append({"cert": {"ring": "Z", "n": n, "f": A.to_text(ZZ, F, XT),
                               "g": A.to_text(ZZ, G, XT)},
                      "orientation": "forward" if forward else "reversed"})
        link_ok.append(not (control == "scaled" and k == bad))
    doc = {"links": links, "from": _map_json(stops[0], units), "to": _map_json(stops[-1], units)}
    # link k (0-based) is broken or traversed the wrong way
    junctions = [True] * (nlinks - 1)
    if control:
        for j in (bad - 1, bad):
            if 0 <= j < nlinks - 1:
                junctions[j] = False
    from_ok = not (control and bad == 0)
    to_ok = not (control and bad == nlinks - 1)
    if control == "scaled":
        first = f"link {bad + 1}: resultant {res * 2**n} is not a unit of Z[T]"
    elif control == "flip":
        first = "from mismatch" if bad == 0 else f"junction {bad}/{bad + 1}"
    else:
        first = None
    expect = {"kind": "homotopy", "passed": control is None, "first_failure": first,
              "link_ok": link_ok, "junction_ok": junctions, "from_ok": from_ok, "to_ok": to_ok,
              "res": str(res)}
    return Request(f"chain.{control or 'ok'}.n{n}l{nlinks}", ["verify-chain", FILE, "--json"],
                   0 if control is None else 1, expect, json.dumps(doc))


def _builtin_request(argv, kind, nlinks, passed, first):
    expect = {"kind": kind, "passed": passed, "first_failure": first,
              "link_ok": [True] * nlinks, "junction_ok": [passed] * (nlinks - 1),
              "from_ok": True, "to_ok": True}
    label = argv[0].replace("verify-", "") + ".builtin" + ("" if passed else ".exact")
    return Request(label, [*argv, "--json"], 0 if passed else 1, expect)


# (X-degree, links); each round also holds two negative controls of each kind.
CHAIN_TEMPLATES = (
    (3, 2), (3, 4), (3, 6), (4, 3), (4, 4), (5, 2), (5, 4), (6, 3), (6, 2), (7, 2),
)
CHAIN_CONTROLS = ((4, 3, "scaled"), (6, 2, "scaled"), (3, 4, "flip"), (4, 4, "flip"))


def chains_round(rng: random.Random):
    out = [chain_request(rng, n, k, None) for n, k in CHAIN_TEMPLATES]
    out += [chain_request(rng, n, k, c) for n, k, c in CHAIN_CONTROLS]
    out.append(_builtin_request(CHAIN_BUILTIN, "homotopy", 4, True, None))
    out.append(_builtin_request(MATRIX_BUILTIN, "matrix", 2, True, None))
    out.append(_builtin_request([*MATRIX_BUILTIN, "--exact-junctions"], "matrix", 2, False, "junction 1/2"))
    rng.shuffle(out)
    return out


def check_chain(expect: dict, payload: dict) -> str | None:
    got = {
        "kind": payload["kind"],
        "passed": payload["passed"],
        "first_failure": payload["first_failure"],
        "link_ok": [lr["ok"] for lr in payload["links"]],
        "junction_ok": [jr["ok"] for jr in payload["junctions"]],
        "from_ok": payload["from_ok"],
        "to_ok": payload["to_ok"],
    }
    want = {k: v for k, v in expect.items() if k in got}
    if got != want:
        diff = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
        return f"chain report differs (got, expected): {diff}"
    if "res" in expect:
        for lr in payload["links"]:
            if lr["ok"] and lr.get("res") != expect["res"]:
                return f"link {lr['index']} resultant {lr.get('res')}, expected {expect['res']}"
    return None


# ---------------------------------------------------------------------------
# plane

PV = ("T0", "T1", "T")  # exponent order of plane polynomials
UNIMODULAR = ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (2, 1, 1, 1), (1, -1, 1, 0))


def _lin(a: int, b: int) -> dict:
    return A.clean(ZZ, {(1, 0, 0): a, (0, 1, 0): b})


def _subst_linear(p: dict, m) -> dict:
    """p(a*T0 + b*T1, c*T0 + d*T1, T) for m = (a, b, c, d)."""
    x0, x1 = _lin(m[0], m[1]), _lin(m[2], m[3])
    out = {}
    for (e0, e1, et), c in p.items():
        term = A.const(ZZ, c, 3)
        term = A.mul(ZZ, term, A.var(2, 3, et)) if et else term
        for _ in range(e0):
            term = A.mul(ZZ, term, x0)
        for _ in range(e1):
            term = A.mul(ZZ, term, x1)
        out = A.add(ZZ, out, term)
    return out


def _combine(pair, m):
    """The pair (a*F0 + b*F1, c*F0 + d*F1) for m = (a, b, c, d)."""
    F0, F1 = pair
    return (A.add(ZZ, A.scale(ZZ, F0, m[0]), A.scale(ZZ, F1, m[1])),
            A.add(ZZ, A.scale(ZZ, F0, m[2]), A.scale(ZZ, F1, m[3])))


def _at(p: dict, t: int) -> dict:
    """Substitute T = t; the result is a polynomial in (T0, T1)."""
    out = {}
    for (e0, e1, et), c in p.items():
        out[(e0, e1)] = out.get((e0, e1), 0) + c * t**et
    return A.clean(ZZ, out)


def _family_text(pair) -> dict:
    return {"F0": A.to_text(ZZ, pair[0], PV), "F1": A.to_text(ZZ, pair[1], PV)}


def _point_text(pair) -> dict:
    return {"F0": A.to_text(ZZ, pair[0], PV[:2]), "F1": A.to_text(ZZ, pair[1], PV[:2])}


def _plane_request(label, links, expect, nmax, dmax) -> Request:
    """links: [(family pair, forward)], traversed as given, from/to at the ends."""
    def end(pair, t):
        return _at(pair[0], t), _at(pair[1], t)

    first = end(links[0][0], 0 if links[0][1] else 1)
    last = end(links[-1][0], 1 if links[-1][1] else 0)
    doc = {"links": [{"family": _family_text(pair), "orientation": "forward" if fwd else "reversed"}
                     for pair, fwd in links],
           "from": _point_text(first), "to": _point_text(last)}
    expect = {"kind": "plane", "families": [pair for pair, _ in links], "nmax": nmax,
              "dmax": dmax, **expect}
    return Request(label, ["verify-plane-chain", FILE, "--nmax", str(nmax), "--dmax", str(dmax), "--json"],
                   0 if expect["passed"] else 1, expect, json.dumps(doc))


def automorphism_chain(rng: random.Random, nlinks: int, k: int, dmax: int) -> Request:
    """L . (T0 + c(T)*T1^k, T1) . L' with L, L' unimodular and c linear in T,
    interpolated between links: every family certifies with N = 1 at
    coefficient degree <= k."""
    left, right = rng.choice(UNIMODULAR), rng.choice(UNIMODULAR)
    stops = [rng.choice((-2, -1, 1, 2))]
    while len(stops) <= nlinks:
        stops.append(stops[-1] + rng.choice((-2, -1, 1, 2)))
    links = []
    for j in range(nlinks):
        fwd = rng.random() < 0.5
        a, b = (stops[j], stops[j + 1]) if fwd else (stops[j + 1], stops[j])
        c = A.clean(ZZ, {(0, 0, 0): a, (0, 0, 1): b - a})
        tri = (A.add(ZZ, A.var(0, 3), A.mul(ZZ, c, A.var(1, 3, k))), A.var(1, 3))
        tri = (_subst_linear(tri[0], right), _subst_linear(tri[1], right))
        links.append((_combine(tri, left), fwd))
    expect = {"passed": True, "first_failure": None, "link_ok": [True] * nlinks, "N": 1}
    return _plane_request(f"plane.auto{nlinks}k{k}d{dmax}", links, expect, 2, dmax)


def _not_found(nmax, dmax):
    return (f"link 1: no certificate within N <= {nmax}, coefficient degree <= {dmax} "
            "(inconclusive: larger certificates may exist)")


def line_family(rng: random.Random, dmax: int) -> Request:
    """(l*a, l*b) with l a linear form: the zero locus holds the line l = 0
    over every field, so the mod-p filter rejects every N."""
    l = _lin(*rng.choice(((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))))
    def small():
        while True:
            p = A.clean(ZZ, {e: rng.randint(-2, 2) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0), (1, 0, 1))})
            if p:
                return p
    pair = (A.mul(ZZ, l, small()), A.mul(ZZ, l, small()))
    nmax = 3
    expect = {"passed": False, "first_failure": _not_found(nmax, dmax), "link_ok": [False]}
    return _plane_request(f"plane.line.d{dmax}", [(pair, True)], expect, nmax, dmax)


def modq_family(rng: random.Random, dmax: int) -> Request:
    """(q*(T0 + r*T1) + s*T*T1, T1^2) up to a unimodular substitution: only
    the origin mod p, but the line T1 = 0 mod q, so the mod-p filter passes
    for N >= 2 and the exact search fails at every degree."""
    q, r = rng.choice((2, 3)), rng.randint(-2, 2)
    F0 = A.add(ZZ, _lin(q, q * r), A.clean(ZZ, {(0, 1, 1): rng.choice((1, -1, 2))}))
    F1 = A.var(1, 3, 2)
    m = rng.choice(UNIMODULAR)
    pair = (_subst_linear(F0, m), _subst_linear(F1, m))
    nmax = 3
    expect = {"passed": False, "first_failure": _not_found(nmax, dmax), "link_ok": [False]}
    return _plane_request(f"plane.modq.d{dmax}", [(pair, True)], expect, nmax, dmax)


# The six families of the builtin prop_3_4_5 chain, expanded by hand:
# ((T0 + T*T1)^2, T1), ((T0 + T1)^2, T*T1 + (T - 1)*T0), ((T*T0 + T1)^2, -T0),
# (T*T0 + T1^2, -T0), (T0 + T*T1^2, -T0 + (1 - T)*T1^2), (T0, -T*T0 + T1^2).
BUILTIN_PLANE_FAMILIES = (
    ({(2, 0, 0): 1, (1, 1, 1): 2, (0, 2, 2): 1}, {(0, 1, 0): 1}),
    ({(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}, {(0, 1, 1): 1, (1, 0, 1): 1, (1, 0, 0): -1}),
    ({(2, 0, 2): 1, (1, 1, 1): 2, (0, 2, 0): 1}, {(1, 0, 0): -1}),
    ({(1, 0, 1): 1, (0, 2, 0): 1}, {(1, 0, 0): -1}),
    ({(1, 0, 0): 1, (0, 2, 1): 1}, {(1, 0, 0): -1, (0, 2, 0): 1, (0, 2, 1): -1}),
    ({(1, 0, 0): 1}, {(1, 0, 1): -1, (0, 2, 0): 1}),
)


# (links, k, dmax) of automorphism chains; dmax of line and mod-q families;
# (nmax, dmax) of the builtin.  Per request: about 5 to 250 ms at the seed.
PLANE_AUTOMORPHISMS = ((1, 2, 2), (2, 3, 5), (3, 2, 4), (2, 4, 6), (3, 4, 6))
PLANE_LINES = (3, 6, 8)
PLANE_MODQ = (5, 6, 7)
PLANE_BUILTINS = ((2, 4), (6, 8))


def plane_round(rng: random.Random):
    out = [automorphism_chain(rng, nl, k, d) for nl, k, d in PLANE_AUTOMORPHISMS]
    out += [line_family(rng, d) for d in PLANE_LINES]
    out += [modq_family(rng, d) for d in PLANE_MODQ]
    for nmax, dmax in PLANE_BUILTINS:
        expect = {"kind": "plane", "families": BUILTIN_PLANE_FAMILIES, "nmax": nmax,
                  "dmax": dmax, "passed": True, "first_failure": None, "link_ok": [True] * 6}
        argv = ["verify-plane-chain", "--builtin", "prop_3_4_5", "--nmax", str(nmax),
                "--dmax", str(dmax), "--json"]
        out.append(Request(f"plane.builtin.n{nmax}d{dmax}", argv, 0, expect))
    rng.shuffle(out)
    return out


def check_plane(expect: dict, payload: dict) -> str | None:
    got = {"kind": payload["kind"], "passed": payload["passed"],
           "first_failure": payload["first_failure"],
           "link_ok": [lr["ok"] for lr in payload["links"]]}
    want = {k: expect[k] for k in got}
    if got != want:
        return f"plane report {got}, expected {want}"
    if expect["passed"] and not (all(j["ok"] for j in payload["junctions"])
                                 and payload["from_ok"] and payload["to_ok"]):
        return "a junction or end pair mismatches"
    for lr, (F0, F1) in zip(payload["links"], expect["families"]):
        if not lr["ok"]:
            continue
        cert = lr["cert"]
        N = cert["N"]
        if N != expect.get("N", N) or not 1 <= N <= expect["nmax"] or len(cert["combos"]) != N + 1:
            return f"link {lr['index']}: certificate N = {N} outside the expected bounds"
        for i, combo in enumerate(cert["combos"]):
            a, b = A.read(ZZ, combo["A"], PV), A.read(ZZ, combo["B"], PV)
            if max(A.total_degree(a), A.total_degree(b)) > expect["dmax"]:
                return f"link {lr['index']}: certificate degree exceeds {expect['dmax']}"
            if A.add(ZZ, A.mul(ZZ, a, F0), A.mul(ZZ, b, F1)) != {(i, N - i, 0): 1}:
                return f"link {lr['index']}: identity {i} fails"
    return None


ROUNDS = {"maps": maps_round, "chains": chains_round, "plane": plane_round}
CHECKS = {"maps": check_maps, "chains": check_chain, "plane": check_plane}
