"""Parsing, printing, and JSON (de)serialization for every public type.

JSON documents nest two shapes, each with one writer and one reader: a
{key: polynomial text} object over Z in fixed variables (_fields_*: matrix
families a, b, c, d over T; plane families F0, F1 over T0, T1, T; plane ends
F0, F1 over T0, T1; membership combos A, B over T0, T1, T) and a {"ring",
"n", "f", "g"} object (_ring_pair_*: maps and homotopy ends over X, n the
numerator's degree; certificates over X, T, n the X-degree).  Matrix ends
are {a, b, c, d} objects of integers.

Grammar (whitespace-insensitive; multiplication always explicit):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := number | variable | '(' expr ')' | '-' atom
    number := integer ('/' positive-integer)?      -- the '/' form only over Q

'^' binds tighter than '*', '*' tighter than '+'/'-'; a leading '-' negates
the whole first term, so printed polynomials round-trip exactly.  Integers
are ASCII digits.  A parse accumulates one raw term dict {exponent vector:
raw coefficient}; '*' and '^' go through `mpoly.mul_terms`, which applies
MPoly's one normalisation (over Q integral values stay ints until the end,
so they multiply at the speed of Z), except that a power of a monomial is
one power of its coefficient.  A parse spends at most MAX_PARSE_WORK units
on coefficient products, each weighted by its operands' sizes (_cost).  A
flat text, a signed sum of terms [c*]V[^e]*... or c (over Q c may be a/b or
(a/b)) in at most one pair of parentheses, is read in one pass (_flat_terms)
to the same terms and charges; any other text, and any these rules refuse,
goes to the recursive descent, which raises every ParseError.  Canonical
printing orders terms by descending exponent (descending lexicographic
exponent vectors for multivariate polynomials).
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from fractions import Fraction

from .chains import Chain, ChainReport, Link
from .monoid import PointedMap, SL2Witness, validate
from .mpoly import MPoly, mul_terms, norm_terms
from .poly import Poly
from .plane import MembershipCertificate, PLANE_VARS, POINT_VARS, PlaneFamily
from .projlinear import Mat2, MatrixFamily
from .rings import QQ, RingTag, ZZ

MAX_EXPONENT = 4096
# Work one parse may spend on coefficient products, in units of one product
# of small ints (about 1.2 us): (X+T+1)^50 needs 66,300 units and
# (X+T+1)^300 about 13.6 million.  A raw product of an a-term by a b-term
# polynomial costs a * b times the unit cost of one coefficient product: 1,
# or FRACTION_COST when an operand holds a Fraction, plus sa * sb //
# BITS_PER_UNIT, sa and sb the operands' largest coefficient sizes in bits
# (numerator plus denominator; scanned for literals, monomial powers and
# parenthesized sums, estimated for products by _Parser.mul).  Measured
# in process (Python 3.11): a product costs about 1.9e-3 ns per bit^2 at
# large sizes, a Fraction product about 5 int products.
MAX_PARSE_WORK = 200_000
BITS_PER_UNIT = 1 << 19
FRACTION_COST = 5


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        self.msg = msg
        self.pos = pos
        super().__init__(f"{msg} (at position {pos})")


class SchemaError(ValueError):
    """A JSON document does not match the documented schema."""


# ---------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()/])|(?P<bad>\S)")
_POWERS = r"[A-Za-z_][A-Za-z0-9_]*(?:\^[0-9]+)?(?:\*[A-Za-z_][A-Za-z0-9_]*(?:\^[0-9]+)?)*"
# A flat text's term: at the start at most one '(' (not around a coefficient)
# and a '-', elsewhere a sign; then c, a/b, (c) or (a/b) and its powers
# *V[^e]*..., or the powers alone.  No two \s* meet: a failed match is linear.
_TERM = re.compile(rf"(^\s*(?:\((?![0-9]+(?:/[0-9]+)?\))\s*)?(?:-\s*)?|(?!^)\s*[-+]\s*)"
                   rf"(?:(\()?([0-9]+)(?:/([0-9]+))?(?(2)\))(?:\*({_POWERS}))?|({_POWERS}))")


def _literal(text: str, pos: int, cap=None) -> int:
    """The value of ASCII digits (an exponent when cap is given)."""
    try:
        value = int(text)
    except ValueError:  # longer than the interpreter's str -> int limit
        raise ParseError(f"integer literal of {len(text)} digits is too long", pos) from None
    if cap is not None and value > cap:
        raise ParseError(f"exponent {value} exceeds the limit {cap}", pos)
    return value


def _q_parse_norm(c):
    """A parse's raw value over Q: an int when integral, else a Fraction."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def _sized(terms: dict) -> tuple:
    """(terms, bits, fraction): the largest coefficient size in bits
    (numerator plus denominator) and whether a coefficient is a Fraction."""
    values = terms.values()
    bits = max((c.numerator.bit_length() + c.denominator.bit_length() for c in values), default=0)
    return terms, bits, any(type(c) is Fraction for c in values)


def _cost(products: int, sa: int, sb: int, fraction: bool) -> int:
    """The work of `products` coefficient products of sa-bit by sb-bit values."""
    return products * ((FRACTION_COST if fraction else 1) + sa * sb // BITS_PER_UNIT)


class _Parser:
    """Recursive descent over (kind, text, position) tokens, kind being 'int',
    'name', 'end' or the operator; every rule returns a fresh raw term dict,
    factor and atom as a sized one, (terms, bits, fraction) as in _sized."""

    def __init__(self, text: str, vars: tuple, ring: RingTag):
        self.tokens = []
        for m in _TOKEN.finditer(text):
            kind, tok, pos = m.lastgroup, m.group(), m.start()
            if kind == "bad":
                raise ParseError(f"unexpected character {tok!r}", pos)
            self.tokens.append((tok if kind == "op" else kind, tok, pos))
        self.tokens.append(("end", "", len(text)))
        self.i = 0
        self.ring = ring
        self.norm = _q_parse_norm if ring == QQ else ring.norm
        self.zero = (0,) * len(vars)
        self.index = {v: k for k, v in enumerate(vars)}
        self.work = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, msg: str):
        raise ParseError(msg, self.peek()[2])

    def integer(self, msg: str, cap=None):
        """The value and position of the next token, which must be an int."""
        if self.peek()[0] != "int":
            self.fail(msg)
        _, text, pos = self.take()
        return _literal(text, pos, cap), pos

    def charge(self, products: int, sa: int, sb: int, fraction: bool, pos: int):
        """Spend their _cost; ParseError at pos past MAX_PARSE_WORK."""
        self.work += _cost(products, sa, sb, fraction)
        if self.work > MAX_PARSE_WORK:
            raise ParseError(
                f"parse exceeds its budget of {MAX_PARSE_WORK} coefficient products"
                " (weighted by size)", pos)

    def mul(self, x: tuple, y: tuple, pos: int) -> tuple:
        """The product of two sized term dicts (terms, bits, fraction); the
        result's bits are estimated, not scanned: sa + sb plus the log of
        the number of products summed into one coefficient."""
        (a, sa, fa), (b, sb, fb) = x, y
        self.charge(len(a) * len(b), sa, sb, fa or fb, pos)
        bits = sa + sb + min(len(a), len(b)).bit_length()
        return mul_terms(a, b, self.norm), bits, fa or fb

    def read(self) -> tuple:
        """(terms, work) of the whole text."""
        terms, (kind, tok, pos) = self.expr(), self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {tok!r}", pos)
        return terms, self.work

    def expr(self) -> dict:
        acc, sign = {}, 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        while True:
            for e, c in self.term().items():
                acc[e] = acc.get(e, 0) + sign * c
            if self.peek()[0] not in ("+", "-"):
                return acc
            sign = 1 if self.take()[0] == "+" else -1

    def term(self) -> dict:
        acc = self.factor()
        while self.peek()[0] == "*":
            pos = self.take()[2]
            acc = self.mul(acc, self.factor(), pos)
        return acc[0]

    def factor(self) -> tuple:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        pos = self.take()[2]
        e = self.integer("expected a natural-number exponent after '^'", MAX_EXPONENT)[0]
        terms, bits, fraction = base
        if len(terms) == 1:  # a monomial: one power, charged as e products
            # of an operand of e * bits / 2 bits on average by a bits-bit one
            self.charge(e, e * bits // 2, bits, fraction, pos)
            ((exps, c),) = terms.items()
            c = self.norm(c**e)
            return _sized({tuple(k * e for k in exps): c} if c else {})
        acc = ({self.zero: 1}, 2, False)
        for _ in range(e):
            acc = self.mul(acc, base, pos)
        return acc

    def atom(self) -> tuple:
        kind, text, pos = self.peek()
        if kind == "name":
            if text not in self.index:
                declared = ", ".join(self.index)
                raise ParseError(f"undeclared variable {text!r} (declared: {declared})", pos)
            self.take()
            return {tuple(int(v == text) for v in self.index): 1}, 2, False
        if kind == "int":
            value = self.integer("expected a number, variable, '(' or '-'")[0]
            if self.peek()[0] == "/":
                if self.ring != QQ:
                    self.fail("rational literals require the ring Q")
                self.take()
                den, den_pos = self.integer("expected an integer denominator")
                if den == 0:
                    raise ParseError("zero denominator", den_pos)
                value = Fraction(value, den)
            c = self.norm(value)
            return _sized({self.zero: c} if c else {})
        if kind == "(":
            self.take()
            inner = self.expr()
            if self.peek()[0] != ")":
                self.fail("expected ')'")
            self.take()
            return _sized(inner)
        if kind == "-":
            self.take()
            terms, bits, fraction = self.atom()
            return {e: -c for e, c in terms.items()}, bits, fraction
        self.fail("expected a number, variable, '(' or '-'")


def _flat_terms(text: str, vars: tuple, ring: RingTag):
    """(terms, work) as _Parser(text, vars, ring).read() gives them for a
    flat text, a sum of _TERMs (see the module docstring); else None."""
    index, zero, p = {v: k for k, v in enumerate(vars)}, [0] * len(vars), ring.modulus
    terms, work, end = {}, 0, 0
    try:
        while m := _TERM.match(text, end):
            sign, _, num, den, more, powers = m.groups()
            if den and ring != QQ:
                return None
            end, exps, c, bits = m.end(), zero.copy(), 1, -1
            if num:  # the atom's value, and its size as _sized gives it
                c = int(num) % p if p else int(num)
                c = _q_parse_norm(Fraction(c, int(den))) if den else c
                bits, powers = c.numerator.bit_length() + c.denominator.bit_length(), more
            for part in powers.split("*") if powers else ():
                name, caret, e = part.partition("^")
                e = _literal(e, 0, MAX_EXPONENT) if caret else 1
                exps[index[name]] += e
                work += _cost(e, e, 2, False) if caret else 0  # factor, on V^e
                if c and bits >= 0:  # term, on a product by a term of 2 bits
                    work += _cost(1, bits, 2, type(c) is Fraction)
                bits += 3
            if c:
                exps = tuple(exps)
                terms[exps] = terms.get(exps, 0) + (-c if "-" in sign else c)
    except (KeyError, ValueError, ZeroDivisionError):  # name, literal or exponent, denominator
        return None
    closed = text[end:].strip() in ("", ")") and text.count("(") == text.count(")")
    return (terms, work) if end and closed and work <= MAX_PARSE_WORK else None


def parse_poly(text: str, variables, ring: RingTag):
    """Parse into a Poly (one declared variable) or MPoly (several), built once."""
    vars = tuple(variables)
    terms = (_flat_terms(text, vars, ring) or _Parser(text, vars, ring).read())[0]
    terms = norm_terms(terms, ring.norm)
    if len(vars) != 1:
        return MPoly._of(ring, vars, terms)
    raw = [ring.norm(0)] * (max(terms, default=(-1,))[0] + 1)
    for (k,), c in terms.items():
        raw[k] = c
    return Poly._of(ring, vars[0], tuple(raw))


def parse_pair(text: str, variables, ring: RingTag):
    """Split '<f>/<g>' at the rightmost workable top-level '/' and parse both
    sides (parenthesize a side to protect rational literals over Q).  Only Q
    has '/' in its literals, so over Z and F_p a side with a top-level '/'
    never parses and only the leftmost '/' is tried."""
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
    for i in reversed(slashes) if ring == QQ else slashes[:1]:
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


def print_poly(p) -> str:
    """The canonical text of a Poly or MPoly (`poly.print_terms`); every
    codec writes its polynomials through it."""
    return str(p)


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


def _fields_to_json(keys, values) -> dict:
    """The {key: polynomial text} object of values in key order."""
    return {k: print_poly(v) for k, v in zip(keys, values)}


def _fields_from_json(d, keys, variables, what) -> tuple:
    """The values, in key order, of a {key: polynomial text} object over Z."""
    _require(d, keys, what)
    return tuple(_parse_field(d, k, variables, ZZ, what) for k in keys)


def _ring_pair_to_json(n, f, g) -> dict:
    """The {ring, n, f, g} object of f/g over f's ring."""
    return {"ring": f.ring.name(), "n": n, "f": print_poly(f), "g": print_poly(g)}


def _ring_pair_from_json(d, variables, what) -> tuple:
    """f and g of a {ring, n, f, g} object whose n is a natural number; the
    caller checks n against f."""
    _require(d, ("ring", "n", "f", "g"), what)
    ring = _ring_from_json(d["ring"], what)
    f = _parse_field(d, "f", variables, ring, what)
    g = _parse_field(d, "g", variables, ring, what)
    if not _is_int(d["n"]) or d["n"] < 0:
        raise SchemaError(f"{what}: n must be a natural number")
    return f, g


def map_to_json(u: PointedMap) -> dict:
    return _ring_pair_to_json(u.n, u.f, u.g)


def _map_pair_from_json(d, what) -> tuple:
    f, g = _ring_pair_from_json(d, ("X",), what)
    if f.actual_degree() != d["n"]:
        raise SchemaError(f"{what}: numerator degree {f.actual_degree()} != n = {d['n']}")
    return f, g


def map_from_json(d) -> PointedMap:
    return validate(*_map_pair_from_json(d, "map"))


def sl2_to_json(w: SL2Witness) -> dict:
    return {"map": map_to_json(w.map), "p": print_poly(w.p), "q": print_poly(w.q)}


def sl2_from_json(d) -> SL2Witness:
    _require(d, ("map", "p", "q"), "sl2 witness")
    u = map_from_json(d["map"])
    p = _parse_field(d, "p", ("X",), u.ring, "sl2 witness")
    q = _parse_field(d, "q", ("X",), u.ring, "sl2 witness")
    if p * u.f + q * u.g != Poly.one(u.ring, "X"):
        raise SchemaError("sl2 witness: p*f + q*g != 1")
    # the bounds make the witness unique; at n = 0 the identity forces p = 1
    n = u.n
    if q.actual_degree() >= n or n and p.actual_degree() >= n - 1:
        bound = f"deg p < {n - 1} and deg q < {n}" if n else "(p, q) = (1, 0) at n = 0"
        raise SchemaError(f"sl2 witness: outside the degree bounds, {bound}")
    return SL2Witness(u, p, q)


def _cert_from_json(d, what) -> tuple:
    F, G = _ring_pair_from_json(d, ("X", "T"), what)
    if F.degree_in("X") != d["n"]:
        raise SchemaError(f"{what}: numerator X-degree {F.degree_in('X')} != n = {d['n']}")
    return F, G


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


def membership_to_json(cert: MembershipCertificate) -> dict:
    return {"N": cert.N, "combos": [_fields_to_json(("A", "B"), pair) for pair in cert.combos]}


def membership_from_json(d, what="membership certificate") -> MembershipCertificate:
    _require(d, ("N", "combos"), what)
    if not _is_int(d["N"]) or d["N"] < 1:
        raise SchemaError(f"{what}: N must be a positive integer")
    if not isinstance(d["combos"], list) or len(d["combos"]) != d["N"] + 1:
        raise SchemaError(f"{what}: combos must list N+1 pairs")
    return MembershipCertificate(d["N"], tuple(
        _fields_from_json(entry, ("A", "B"), PLANE_VARS, f"{what}.combos[{k}]")
        for k, entry in enumerate(d["combos"])))


def _same_ring(why):  # of two polynomial pairs: homotopy ends or certificates
    return lambda a, b: None if a[0].ring == b[0].ring else why


@dataclass(frozen=True)
class _ChainKind:
    """How chains of one kind read and write.  label prefixes every error
    path, a link holds its family under link_key and may hold a proof under
    "cert"; family, end and proof are (to_json, from_json(d, what)) pairs.
    line(entry) is the text of a link's entry in a report document.
    check_ends(from_, to) and check_link(family, from_) say why decoded
    parts do not fit together, or return None."""

    label: str
    link_key: str
    family: tuple
    end: tuple
    line: object
    proof: tuple | None = None
    check_ends: object = lambda from_, to: None
    check_link: object = lambda family, from_: None


CHAIN_KINDS = {
    "homotopy": _ChainKind(
        "chain", "cert",
        (lambda fam: _ring_pair_to_json(fam[0].degree_in("X"), *fam), _cert_from_json),
        (lambda end: _ring_pair_to_json(max(end[0].actual_degree(), 0), *end),
         _map_pair_from_json),
        lambda e: f"INVALID ({e['error']})" if "error" in e else f"valid, res = {e['res']}",
        check_ends=_same_ring("from/to rings differ"),
        check_link=_same_ring("ring differs from the chain ring"),
    ),
    "matrix": _ChainKind(
        "matrix chain", "family",
        (lambda fam: _fields_to_json(("a", "b", "c", "d"), fam.entries()),
         lambda d, what: MatrixFamily(*_fields_from_json(d, ("a", "b", "c", "d"), ("T",), what))),
        (asdict, _mat2_from_json),
        lambda e: f"det = {e['det']}, base point {'ok' if e['basepoint_ok'] else 'leaves the T1-chart'}",
    ),
    "plane": _ChainKind(
        "plane chain", "family",
        (lambda fam: _fields_to_json(("F0", "F1"), (fam.F0, fam.F1)),
         lambda d, what: PlaneFamily(*_fields_from_json(d, ("F0", "F1"), PLANE_VARS, what))),
        (lambda end: _fields_to_json(("F0", "F1"), end),
         lambda d, what: _fields_from_json(d, ("F0", "F1"), POINT_VARS, what)),
        lambda e: f"NOT CERTIFIED ({e['note']})" if "note" in e
        else f"certified with N = {e['cert']['N']}, degree <= {e['degree']}",
        proof=(membership_to_json, membership_from_json),
    ),
}


# The worked examples of the source paper (Props 3.4.2, 3.4.3 and 3.4.5) as
# chain documents, read like any chain file: kind -> name -> document.
BUILTIN_CHAINS = {
    # The four-certificate chain from the squaring map X^2/1 to
    # (X^2-X+1)/(X-1), traversed (forward, forward, reversed, forward).
    "homotopy": {"prop_3_4_3": {
        "links": [
            {"cert": {"ring": "Z", "n": 2, "f": "X^2", "g": "T*X + 1"}, "orientation": "forward"},
            {"cert": {"ring": "Z", "n": 2, "f": "X^2 + 2*T*X + 2*T", "g": "X + 1"},
             "orientation": "forward"},
            {"cert": {"ring": "Z", "n": 2, "f": "X^2 + 2*T*X + 2*T", "g": "X + (2*T - 1)"},
             "orientation": "reversed"},
            {"cert": {"ring": "Z", "n": 2, "f": "X^2 - T*X + T", "g": "X - 1"}, "orientation": "forward"},
        ],
        "from": {"ring": "Z", "n": 2, "f": "X^2", "g": "1"},
        "to": {"ring": "Z", "n": 2, "f": "X^2 - X + 1", "g": "X - 1"},
    }},
    # The two-family chain joining the two composites of the swap and the
    # shear of P^1: H1 = [[T,-1],[1,0]] traversed backwards, then
    # H2 = [[0,1],[-1,T]] forwards; the junction holds up to the unit -1.
    "matrix": {"prop_3_4_2": {
        "links": [
            {"family": {"a": "T", "b": "-1", "c": "1", "d": "0"}, "orientation": "reversed"},
            {"family": {"a": "0", "b": "1", "c": "-1", "d": "T"}, "orientation": "forward"},
        ],
        "from": {"a": 1, "b": -1, "c": 1, "d": 0},
        "to": {"a": 0, "b": 1, "c": -1, "d": 1},
    }},
    # The six-family chain from (T0^2, T1) to (T0, T1^2), traversed
    # (forward, reversed, reversed, forward, reversed, reversed).
    "plane": {"prop_3_4_5": {
        "links": [
            {"family": {"F0": "(T0 + T*T1)^2", "F1": "T1"}, "orientation": "forward"},
            {"family": {"F0": "(T0 + T1)^2", "F1": "T*T1 + (T - 1)*T0"}, "orientation": "reversed"},
            {"family": {"F0": "(T*T0 + T1)^2", "F1": "-T0"}, "orientation": "reversed"},
            {"family": {"F0": "T*T0 + T1^2", "F1": "-T0"}, "orientation": "forward"},
            {"family": {"F0": "T0 + T*T1^2", "F1": "-T0 + (1 - T)*T1^2"}, "orientation": "reversed"},
            {"family": {"F0": "T0", "F1": "-T*T0 + T1^2"}, "orientation": "reversed"},
        ],
        "from": {"F0": "T0^2", "F1": "T1"},
        "to": {"F0": "T0", "F1": "T1^2"},
    }},
}


def chain_to_json(chain: Chain, kind: str) -> dict:
    """The document {"links": [{<link key>: family, "orientation": ...,
    ["cert": proof]}], "from": end, "to": end} of a chain of the given kind."""
    k = CHAIN_KINDS[kind]
    links = []
    for link in chain.links:
        entry = {k.link_key: k.family[0](link.family), "orientation": link.orientation}
        if link.proof is not None:
            entry["cert"] = k.proof[0](link.proof)
        links.append(entry)
    return {"links": links, "from": k.end[0](chain.from_), "to": k.end[0](chain.to)}


def chain_from_json(d, kind: str) -> Chain:
    """The chain of a document of the given kind; SchemaError names the path
    of the first defect (both ends are read before the links)."""
    k = CHAIN_KINDS[kind]
    _require(d, ("links", "from", "to"), k.label)
    if not isinstance(d["links"], list):
        raise SchemaError(f"{k.label}: links must be a list")
    from_ = k.end[1](d["from"], f"{k.label}.from")
    to = k.end[1](d["to"], f"{k.label}.to")
    why = k.check_ends(from_, to)
    if why:
        raise SchemaError(f"{k.label}: {why}")
    links = []
    for i, entry in enumerate(d["links"]):
        what = f"{k.label}.links[{i}]"
        proved = k.proof is not None and isinstance(entry, dict) and "cert" in entry
        _require(entry, (k.link_key, "orientation") + ("cert",) * proved, what)
        proof = k.proof[1](entry["cert"], f"{what}.cert") if proved else None
        family = k.family[1](entry[k.link_key], f"{what}.{k.link_key}")
        why = k.check_link(family, from_)
        if why:
            raise SchemaError(f"{what}: {why}")
        try:
            links.append(Link(family, entry["orientation"], proof))
        except ValueError as exc:  # the orientation
            raise SchemaError(f"{what}: {exc}") from None
    return Chain(tuple(links), from_, to)


def chain_report_to_json(report: ChainReport) -> dict:
    """The document of a chain report.  A link's entry is its index, its
    verdict and its fields, a polynomial as text and a membership
    certificate in its codec, with its coefficient degree beside it (not
    inside, so the cert stays readable as a supplied proof)."""
    links = []
    for lr in report.links:
        entry = {"index": lr.index, "ok": lr.ok}
        for key, value in lr.fields.items():
            if key == "cert":
                entry.update(cert=membership_to_json(value), degree=value.coefficient_degree())
            else:
                entry[key] = print_poly(value) if isinstance(value, Poly) else value
        links.append(entry)
    return {
        "kind": report.kind,
        "passed": report.passed,
        "links": links,
        "junctions": [
            {"label": jr.label, "ok": jr.ok, **({} if jr.unit is None else {"unit": jr.unit})}
            for jr in report.junctions
        ],
        "from_ok": report.from_ok,
        "to_ok": report.to_ok,
        "first_failure": report.first_failure,
    }


def print_chain_report(doc: dict) -> str:
    """The text of a chain report's document: a line per link (the kind's
    line), junction and end, then PASS or FAIL with the first failure."""
    verdict = {True: "ok", False: "MISMATCH"}
    line = CHAIN_KINDS[doc["kind"]].line
    return "\n".join([
        *(f"link {e['index']}: {line(e)}" for e in doc["links"]),
        *(f"junction {j['label']}: {verdict[j['ok']]}" + (f" (unit {j['unit']})" if "unit" in j else "")
          for j in doc["junctions"]),
        f"from: {verdict[doc['from_ok']]}",
        f"to: {verdict[doc['to_ok']]}",
        "PASS" if doc["passed"] else f"FAIL ({doc['first_failure']})",
    ])


def builtin_chain(kind: str, name: str) -> Chain:
    """The builtin chain of a kind by name, read from its document."""
    return chain_from_json(BUILTIN_CHAINS[kind][name], kind)


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from None
