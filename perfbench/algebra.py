"""The benchmark's own exact arithmetic, independent of the program under test.

Polynomials are dicts mapping exponent tuples to nonzero coefficients.  A
coefficient ring is a `Ring`: Z (int), Q (Fraction) or F_p (int in [0, p)).
Only what the generators and output checks need is here: +, -, *, text in
the program's input grammar, and a reader for its canonical printed output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Ring:
    kind: str  # "Z", "Q" or "Fp"
    p: int = 0

    @property
    def flag(self) -> str:
        """The program's --ring value."""
        return f"fp:{self.p}" if self.kind == "Fp" else self.kind.lower()

    @property
    def name(self) -> str:
        """The ring name the program prints in JSON."""
        return f"Fp:{self.p}" if self.kind == "Fp" else self.kind

    def norm(self, c):
        if self.kind == "Fp":
            if isinstance(c, Fraction):
                return c.numerator * pow(c.denominator, -1, self.p) % self.p
            return c % self.p
        if self.kind == "Q":
            return Fraction(c)
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError(f"{c} is not an integer")
            return c.numerator
        return c

    def inv(self, c):
        if self.kind == "Fp":
            return pow(c, -1, self.p)
        if self.kind == "Q":
            return 1 / Fraction(c)
        if c not in (1, -1):
            raise ValueError(f"{c} is not a unit of Z")
        return c


ZZ = Ring("Z")


def clean(ring: Ring, terms: dict) -> dict:
    out = {}
    for e, c in terms.items():
        c = ring.norm(c)
        if c:
            out[e] = c
    return out


def add(ring: Ring, a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return clean(ring, out)


def scale(ring: Ring, a: dict, s) -> dict:
    return clean(ring, {e: c * s for e, c in a.items()})


def sub(ring: Ring, a: dict, b: dict) -> dict:
    return add(ring, a, scale(ring, b, -1))


def mul(ring: Ring, a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return clean(ring, out)


def const(ring: Ring, c, nvars: int) -> dict:
    return clean(ring, {(0,) * nvars: c})


def var(i: int, nvars: int, power: int = 1) -> dict:
    e = [0] * nvars
    e[i] = power
    return {tuple(e): 1}


def degree(a: dict, i: int = 0) -> int:
    """Degree in variable i; -1 for the zero polynomial."""
    return max((e[i] for e in a), default=-1)


def total_degree(a: dict) -> int:
    return max((sum(e) for e in a), default=-1)


# ---------------------------------------------------------------------------
# 2x2 matrices of polynomials


def mat_mul(ring: Ring, a, b):
    return tuple(
        tuple(add(ring, mul(ring, a[i][0], b[0][j]), mul(ring, a[i][1], b[1][j])) for j in range(2))
        for i in range(2)
    )


def elementary(ring: Ring, c: dict, u, nvars: int):
    """[[X + c, -1/u], [u, 0]] with X the first variable; det = 1."""
    return (
        (add(ring, var(0, nvars), c), const(ring, -ring.inv(u), nvars)),
        (const(ring, u, nvars), {}),
    )


def sl2_product(ring: Ring, factors, nvars: int):
    """Product of elementary matrices for factors [(c, u), ...] (c a poly)."""
    m = ((const(ring, 1, nvars), {}), ({}, const(ring, 1, nvars)))
    for c, u in factors:
        m = mat_mul(ring, m, elementary(ring, c, u, nvars))
    return m


# ---------------------------------------------------------------------------
# Text


def _coeff_text(ring: Ring, c) -> str:
    if ring.kind == "Q" and isinstance(c, Fraction) and c.denominator != 1:
        return f"({c.numerator}/{c.denominator})"
    return str(c)


def to_text(ring: Ring, a: dict, names) -> str:
    """Render in the program's input grammar (descending exponents)."""
    if not a:
        return "0"
    parts = []
    for e, c in sorted(a.items(), reverse=True):
        neg = ring.kind != "Fp" and c < 0
        mag = -c if neg else c
        powers = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        factors = ([] if mag == 1 and powers else [_coeff_text(ring, mag)]) + powers
        term = "*".join(factors)
        if not parts:
            parts.append("-" + term if neg else term)
        else:
            parts.append((" - " if neg else " + ") + term)
    return "".join(parts)


def pair_text(ring: Ring, f: dict, g: dict) -> str:
    """A pointed map as '<f>/<g>' with both sides parenthesized."""
    return f"({to_text(ring, f, 'X')})/({to_text(ring, g, 'X')})"


def read(ring: Ring, text: str, names) -> dict:
    """Read the program's canonical printed form back into a dict."""
    text = text.strip()
    if text == "0":
        return {}
    idx = {n: i for i, n in enumerate(names)}
    signed = []
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pos = 0
    while True:
        plus, minus = text.find(" + ", pos), text.find(" - ", pos)
        cut = min((x for x in (plus, minus) if x >= 0), default=-1)
        if cut < 0:
            signed.append((sign, text[pos:]))
            break
        signed.append((sign, text[pos:cut]))
        sign = 1 if cut == plus else -1
        pos = cut + 3
    out = {}
    for sign, term in signed:
        coeff = Fraction(1)
        e = [0] * len(names)
        for factor in term.split("*"):
            if factor[0].isdigit():
                coeff = Fraction(factor)
            else:
                name, _, power = factor.partition("^")
                if name not in idx:
                    raise ValueError(f"unexpected variable {name!r} in {text!r}")
                e[idx[name]] = int(power) if power else 1
        key = tuple(e)
        if key in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[key] = ring.norm(sign * coeff)
    return out
