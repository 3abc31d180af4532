"""Parsing, printing, and JSON (de)serialization for every public type.

Grammar (whitespace-insensitive; multiplication always explicit):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := number | variable | '(' expr ')' | '-' atom
    number := integer ('/' positive-integer)?      -- the '/' form only over Q

'^' binds tighter than '*', '*' tighter than '+'/'-'; a leading '-' negates
the whole first term, so printed polynomials round-trip exactly.  Canonical
printing orders terms by descending exponent (descending lexicographic
exponent vectors for multivariate polynomials).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .chains import ORIENTATIONS
from .homotopy import Chain, ChainLink, HomotopyCert
from .monoid import PointedMap, SL2Witness, validate
from .mpoly import MPoly
from .poly import Poly
from .plane import (
    MembershipCertificate,
    PLANE_VARS,
    POINT_VARS,
    PlaneChain,
    PlaneChainLink,
    PlaneFamily,
)
from .projlinear import Mat2, MatrixChain, MatrixChainLink, MatrixFamily
from .rings import QQ, RingTag, Scalar, ZZ

MAX_EXPONENT = 4096

_CANONICAL_VAR_ORDER = ("X", "T", "T0", "T1")


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        self.msg = msg
        self.pos = pos
        super().__init__(f"{msg} (at position {pos})")


class SchemaError(ValueError):
    """A JSON document does not match the documented schema."""


# ---------------------------------------------------------------------------
# Tokenizer


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str):
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()/":
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, tokens, vars, ring: RingTag):
        self.tokens = tokens
        self.i = 0
        self.vars = vars
        self.ring = ring

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, msg: str):
        raise ParseError(msg, self.peek().pos)

    def expr(self) -> MPoly:
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            acc = acc + rhs if op.kind == "+" else acc - rhs
        return acc

    def term(self) -> MPoly:
        acc = self.factor()
        while self.peek().kind == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self) -> MPoly:
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            tok = self.peek()
            if tok.kind != "int":
                self.fail("expected a natural-number exponent after '^'")
            self.take()
            e = int(tok.text)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} exceeds the limit {MAX_EXPONENT}", tok.pos)
            return base**e
        return base

    def atom(self) -> MPoly:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            value = int(tok.text)
            if self.peek().kind == "/":
                if self.ring != QQ:
                    raise ParseError(
                        "rational literals require the ring Q", self.peek().pos
                    )
                self.take()
                den = self.peek()
                if den.kind != "int":
                    self.fail("expected an integer denominator")
                self.take()
                if int(den.text) == 0:
                    raise ParseError("zero denominator", den.pos)
                return MPoly.constant(
                    self.ring, self.vars, Fraction(value, int(den.text))
                )
            return MPoly.constant(self.ring, self.vars, value)
        if tok.kind == "name":
            self.take()
            if tok.text not in self.vars:
                raise ParseError(
                    f"undeclared variable {tok.text!r} (declared: {', '.join(self.vars)})",
                    tok.pos,
                )
            return MPoly.variable(self.ring, self.vars, tok.text)
        if tok.kind == "(":
            self.take()
            inner = self.expr()
            if self.peek().kind != ")":
                self.fail("expected ')'")
            self.take()
            return inner
        if tok.kind == "-":
            self.take()
            return -self.atom()
        self.fail("expected a number, variable, '(' or '-'")


def _var_tuple(variables) -> tuple:
    if isinstance(variables, str):
        return (variables,)
    if isinstance(variables, (set, frozenset)):
        known = [v for v in _CANONICAL_VAR_ORDER if v in variables]
        extra = sorted(v for v in variables if v not in _CANONICAL_VAR_ORDER)
        return tuple(known + extra)
    return tuple(variables)


def parse_poly(text: str, variables, ring: RingTag):
    """Parse into a Poly (one declared variable) or MPoly (several)."""
    vars = _var_tuple(variables)
    parser = _Parser(_tokenize(text), vars, ring)
    value = parser.expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)
    if len(vars) == 1:
        return value.to_poly(vars[0])
    return value


def parse_pair(text: str, variables, ring: RingTag):
    """Split '<f>/<g>' at the rightmost workable top-level '/' and parse both
    sides (parenthesize a side to protect rational literals over Q)."""
    depth = 0
    slashes = []
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        elif ch == "/" and depth == 0:
            slashes.append(i)
    if not slashes:
        raise ParseError("expected '<f>/<g>'", len(text))
    last_error = None
    for i in reversed(slashes):
        try:
            f = parse_poly(text[:i], variables, ring)
        except ParseError as exc:
            last_error = exc
            continue
        try:
            g = parse_poly(text[i + 1 :], variables, ring)
        except ParseError as exc:
            last_error = ParseError(exc.msg, exc.pos + i + 1)
            continue
        return f, g
    raise last_error


# ---------------------------------------------------------------------------
# Canonical printing


def _scalar_sign_and_magnitude(c: Scalar):
    v = c.value
    if c.ring.kind in ("Z", "Q") and v < 0:
        return True, str(-v)
    return False, str(v)


def _term_string(magnitude: str, vars, exps) -> str:
    factors = []
    powers = []
    for v, e in zip(vars, exps):
        if e == 1:
            powers.append(v)
        elif e >= 2:
            powers.append(f"{v}^{e}")
    if magnitude != "1" or not powers:
        factors.append(magnitude)
    factors.extend(powers)
    return "*".join(factors)


def print_poly(p) -> str:
    """Canonical text form: descending exponents, explicit '*', '^' powers."""
    if isinstance(p, Poly):
        vars = (p.var,)
        items = [
            ((k,), c)
            for k, c in sorted(enumerate(p.coeffs), reverse=True)
            if not c.is_zero()
        ]
    elif isinstance(p, MPoly):
        vars = p.vars
        items = sorted(p.terms.items(), reverse=True)
    else:
        raise TypeError(f"cannot print {type(p).__name__}")
    if not items:
        return "0"
    parts = []
    for idx, (exps, c) in enumerate(items):
        neg, mag = _scalar_sign_and_magnitude(c)
        t = _term_string(mag, vars, exps)
        if idx == 0:
            parts.append("-" + t if neg else t)
        else:
            parts.append((" - " if neg else " + ") + t)
    return "".join(parts)


def _wrap_side(s: str) -> str:
    if any(ch in s for ch in "+-/"):
        return f"({s})"
    return s


def print_map(u: PointedMap) -> str:
    return f"{_wrap_side(print_poly(u.f))}/{_wrap_side(print_poly(u.g))}"


# ---------------------------------------------------------------------------
# JSON codecs


def _require(d, keys, what):
    if not isinstance(d, dict):
        raise SchemaError(f"{what}: expected an object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise SchemaError(f"{what}: missing keys {missing}")
    extra = [k for k in d if k not in keys]
    if extra:
        raise SchemaError(f"{what}: unknown keys {extra}")


def _ring_from_json(name, what) -> RingTag:
    if not isinstance(name, str):
        raise SchemaError(f"{what}: ring must be a string")
    try:
        return RingTag.from_name(name)
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from None


def _parse_field(d, key, variables, ring, what):
    if not isinstance(d[key], str):
        raise SchemaError(f"{what}: {key!r} must be a string")
    try:
        return parse_poly(d[key], variables, ring)
    except ParseError as exc:
        raise SchemaError(f"{what}.{key}: {exc}") from None


def _is_int(v) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def poly_to_json(p) -> dict:
    vars = [p.var] if isinstance(p, Poly) else list(p.vars)
    return {"ring": p.ring.name(), "vars": vars, "expr": print_poly(p)}


def poly_from_json(d):
    _require(d, ("ring", "vars", "expr"), "polynomial")
    ring = _ring_from_json(d["ring"], "polynomial")
    if not isinstance(d["vars"], list) or not all(isinstance(v, str) for v in d["vars"]):
        raise SchemaError("polynomial: vars must be a list of strings")
    return _parse_field(d, "expr", tuple(d["vars"]), ring, "polynomial")


def map_to_json(u: PointedMap) -> dict:
    return {
        "ring": u.ring.name(),
        "n": u.n,
        "f": print_poly(u.f),
        "g": print_poly(u.g),
    }


def _map_pair_from_json(d, what):
    _require(d, ("ring", "n", "f", "g"), what)
    ring = _ring_from_json(d["ring"], what)
    f = _parse_field(d, "f", ("X",), ring, what)
    g = _parse_field(d, "g", ("X",), ring, what)
    if not _is_int(d["n"]) or d["n"] < 0:
        raise SchemaError(f"{what}: n must be a natural number")
    if f.actual_degree() != d["n"]:
        raise SchemaError(f"{what}: numerator degree {f.actual_degree()} != n = {d['n']}")
    return ring, f.trim(), g.trim()


def map_from_json(d) -> PointedMap:
    ring, f, g = _map_pair_from_json(d, "map")
    return validate(f, g, ring)


def sl2_to_json(w: SL2Witness) -> dict:
    return {"map": map_to_json(w.map), "p": print_poly(w.p), "q": print_poly(w.q)}


def sl2_from_json(d) -> SL2Witness:
    _require(d, ("map", "p", "q"), "sl2 witness")
    u = map_from_json(d["map"])
    p = _parse_field(d, "p", ("X",), u.ring, "sl2 witness")
    q = _parse_field(d, "q", ("X",), u.ring, "sl2 witness")
    one = Poly.one(u.ring, "X")
    if (p * u.f + q * u.g).trim() != one:
        raise SchemaError("sl2 witness: p*f + q*g != 1")
    return SL2Witness(u, p.trim(), q.trim())


def cert_to_json(cert) -> dict:
    if isinstance(cert, HomotopyCert):
        ring, n, F, G = cert.ring, cert.n, cert.F, cert.G
    else:
        ring, F, G = cert
        n = F.degree_in("X")
    return {"ring": ring.name(), "n": n, "f": print_poly(F), "g": print_poly(G)}


def _cert_data_from_json(d, what):
    _require(d, ("ring", "n", "f", "g"), what)
    ring = _ring_from_json(d["ring"], what)
    F = _parse_field(d, "f", ("X", "T"), ring, what)
    G = _parse_field(d, "g", ("X", "T"), ring, what)
    if not _is_int(d["n"]) or d["n"] < 0:
        raise SchemaError(f"{what}: n must be a natural number")
    if F.degree_in("X") != d["n"]:
        raise SchemaError(f"{what}: numerator X-degree {F.degree_in('X')} != n = {d['n']}")
    return ring, F, G


def cert_from_json(d) -> HomotopyCert:
    from .homotopy import validate_cert

    ring, F, G = _cert_data_from_json(d, "certificate")
    return validate_cert(F, G, ring)


def _orientation_from_json(v, what) -> str:
    if v not in ORIENTATIONS:
        raise SchemaError(f"{what}: orientation must be one of {ORIENTATIONS}")
    return v


def chain_to_json(chain: Chain) -> dict:
    def end(f, g):
        return {"ring": chain.ring.name(), "n": max(f.actual_degree(), 0),
                "f": print_poly(f), "g": print_poly(g)}

    return {
        "links": [
            {
                "cert": cert_to_json((chain.ring, link.F, link.G)),
                "orientation": link.orientation,
            }
            for link in chain.links
        ],
        "from": end(*chain.from_pair),
        "to": end(*chain.to_pair),
    }


def chain_from_json(d) -> Chain:
    _require(d, ("links", "from", "to"), "chain")
    if not isinstance(d["links"], list):
        raise SchemaError("chain: links must be a list")
    ring_from, f_from, g_from = _map_pair_from_json(d["from"], "chain.from")
    ring_to, f_to, g_to = _map_pair_from_json(d["to"], "chain.to")
    if ring_from != ring_to:
        raise SchemaError("chain: from/to rings differ")
    links = []
    for k, entry in enumerate(d["links"]):
        what = f"chain.links[{k}]"
        _require(entry, ("cert", "orientation"), what)
        ring, F, G = _cert_data_from_json(entry["cert"], what + ".cert")
        if ring != ring_from:
            raise SchemaError(f"{what}: ring differs from the chain ring")
        links.append(ChainLink(F, G, _orientation_from_json(entry["orientation"], what)))
    return Chain(
        ring=ring_from,
        links=tuple(links),
        from_pair=(f_from, g_from),
        to_pair=(f_to, g_to),
    )


def matrix_family_to_json(m: MatrixFamily) -> dict:
    return {k: print_poly(getattr(m, k)) for k in ("a", "b", "c", "d")}


def matrix_family_from_json(d) -> MatrixFamily:
    _require(d, ("a", "b", "c", "d"), "matrix family")
    return MatrixFamily(
        *(_parse_field(d, k, ("T",), ZZ, "matrix family") for k in ("a", "b", "c", "d"))
    )


def _mat2_to_json(m: Mat2) -> dict:
    return {"a": m.a, "b": m.b, "c": m.c, "d": m.d}


def _mat2_from_json(d, what) -> Mat2:
    _require(d, ("a", "b", "c", "d"), what)
    vals = []
    for k in ("a", "b", "c", "d"):
        v = d[k]
        if _is_int(v):
            vals.append(v)
        elif isinstance(v, str):
            p = _parse_field(d, k, ("T",), ZZ, what)
            if p.actual_degree() > 0:
                raise SchemaError(f"{what}: {k!r} must be constant")
            vals.append(int(p.coeff(0).value))
        else:
            raise SchemaError(f"{what}: {k!r} must be an integer")
    return Mat2(*vals)


def matrix_chain_to_json(chain: MatrixChain) -> dict:
    return {
        "links": [
            {
                "family": matrix_family_to_json(link.family),
                "orientation": link.orientation,
            }
            for link in chain.links
        ],
        "from": _mat2_to_json(chain.from_mat),
        "to": _mat2_to_json(chain.to_mat),
    }


def matrix_chain_from_json(d) -> MatrixChain:
    _require(d, ("links", "from", "to"), "matrix chain")
    if not isinstance(d["links"], list):
        raise SchemaError("matrix chain: links must be a list")
    links = []
    for k, entry in enumerate(d["links"]):
        what = f"matrix chain.links[{k}]"
        _require(entry, ("family", "orientation"), what)
        links.append(
            MatrixChainLink(
                matrix_family_from_json(entry["family"]),
                _orientation_from_json(entry["orientation"], what),
            )
        )
    return MatrixChain(
        links=tuple(links),
        from_mat=_mat2_from_json(d["from"], "matrix chain.from"),
        to_mat=_mat2_from_json(d["to"], "matrix chain.to"),
    )


def plane_family_to_json(fam: PlaneFamily) -> dict:
    return {"F0": print_poly(fam.F0), "F1": print_poly(fam.F1)}


def plane_family_from_json(d) -> PlaneFamily:
    _require(d, ("F0", "F1"), "plane family")
    return PlaneFamily(
        _parse_field(d, "F0", PLANE_VARS, ZZ, "plane family"),
        _parse_field(d, "F1", PLANE_VARS, ZZ, "plane family"),
    )


def membership_to_json(cert: MembershipCertificate) -> dict:
    return {
        "N": cert.N,
        "combos": [
            {"A": print_poly(a), "B": print_poly(b)} for a, b in cert.combos
        ],
    }


def membership_from_json(d) -> MembershipCertificate:
    _require(d, ("N", "combos"), "membership certificate")
    if not _is_int(d["N"]) or d["N"] < 1:
        raise SchemaError("membership certificate: N must be a positive integer")
    if not isinstance(d["combos"], list) or len(d["combos"]) != d["N"] + 1:
        raise SchemaError("membership certificate: combos must list N+1 pairs")
    combos = []
    for k, entry in enumerate(d["combos"]):
        what = f"membership certificate.combos[{k}]"
        _require(entry, ("A", "B"), what)
        combos.append(
            (
                _parse_field(entry, "A", PLANE_VARS, ZZ, what),
                _parse_field(entry, "B", PLANE_VARS, ZZ, what),
            )
        )
    return MembershipCertificate(d["N"], tuple(combos))


def plane_chain_to_json(chain: PlaneChain) -> dict:
    links = []
    for link in chain.links:
        entry = {
            "family": plane_family_to_json(link.family),
            "orientation": link.orientation,
        }
        if link.cert is not None:
            entry["cert"] = membership_to_json(link.cert)
        links.append(entry)
    return {
        "links": links,
        "from": {"F0": print_poly(chain.from_pair[0]), "F1": print_poly(chain.from_pair[1])},
        "to": {"F0": print_poly(chain.to_pair[0]), "F1": print_poly(chain.to_pair[1])},
    }


def _point_pair_from_json(d, what):
    _require(d, ("F0", "F1"), what)
    return (
        _parse_field(d, "F0", POINT_VARS, ZZ, what),
        _parse_field(d, "F1", POINT_VARS, ZZ, what),
    )


def plane_chain_from_json(d) -> PlaneChain:
    _require(d, ("links", "from", "to"), "plane chain")
    if not isinstance(d["links"], list):
        raise SchemaError("plane chain: links must be a list")
    links = []
    for k, entry in enumerate(d["links"]):
        what = f"plane chain.links[{k}]"
        if not isinstance(entry, dict) or "cert" not in entry:
            _require(entry, ("family", "orientation"), what)
            cert = None
        else:
            _require(entry, ("family", "orientation", "cert"), what)
            cert = membership_from_json(entry["cert"])
        links.append(
            PlaneChainLink(
                plane_family_from_json(entry["family"]),
                _orientation_from_json(entry["orientation"], what),
                cert,
            )
        )
    return PlaneChain(
        links=tuple(links),
        from_pair=_point_pair_from_json(d["from"], "plane chain.from"),
        to_pair=_point_pair_from_json(d["to"], "plane chain.to"),
    )


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from None
