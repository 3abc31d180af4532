"""Sparse multivariate polynomials over an exact coefficient ring.

`raw` maps exponent vectors (tuples of natural ints, aligned with an ordered
variable tuple) to nonzero raw ring values (int for Z, Fraction for Q, int
in [0, p) for F_p).  One rule normalises raw terms, `norm_terms`: each
coefficient through the ring's `norm`, zeros dropped; the constructor and
`mul_terms`, the raw product behind `*` and the parser, apply it.  Scalars
are only the boundary: the constructor takes ints, Fractions or Scalars,
and `terms` and `eval` return Scalars.  Any RingTag serves.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add

from .rings import RingMismatchError, RingTag, Scalar
from .poly import Poly


def norm_terms(terms: dict, norm) -> dict:
    """Each coefficient through the ring's `norm`, zeros dropped."""
    out = {}
    for e, c in terms.items():
        c = norm(c)
        if c:
            out[e] = c
    return out


def mul_terms(a: dict, b: dict, norm) -> dict:
    """The product of two raw term dicts, normalised by `norm_terms`."""
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return norm_terms(terms, norm)


class MPoly:
    __slots__ = ("ring", "vars", "raw")

    def __init__(self, ring: RingTag, vars: tuple, terms: dict):
        """terms maps tuples of natural ints to ints, Fractions or Scalars of `ring`."""
        self.ring = ring
        self.vars = tuple(vars)
        if not set(map(len, terms)) <= {len(self.vars)}:
            raise ValueError(f"an exponent vector has the wrong length (vars {self.vars})")
        exps = [*chain.from_iterable(terms)]
        if not set(map(type, exps)) <= {int}:
            raise TypeError(f"exponents must be ints, not {set(map(type, exps)) - {int}}")
        if exps and min(exps) < 0:
            raise ValueError(f"negative exponent {min(exps)}")
        self.raw = norm_terms(terms, ring.norm)

    @property
    def terms(self) -> dict:
        """The nonzero coefficients as Scalars, by exponent vector."""
        return {e: Scalar(self.ring, c) for e, c in self.raw.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ring: RingTag, vars) -> "MPoly":
        return MPoly(ring, tuple(vars), {})

    @staticmethod
    def constant(ring: RingTag, vars, value) -> "MPoly":
        vars = tuple(vars)
        return MPoly(ring, vars, {(0,) * len(vars): value})

    @staticmethod
    def from_poly(p: Poly, vars=None) -> "MPoly":
        """Embed a univariate polynomial (vars defaults to (p.var,))."""
        vars = (p.var,) if vars is None else tuple(vars)
        if p.var not in vars:
            raise ValueError(f"variable {p.var!r} not among {vars}")
        idx = vars.index(p.var)
        terms = {}
        for k, c in enumerate(p.raw):
            if c:
                e = [0] * len(vars)
                e[idx] = k
                terms[tuple(e)] = c
        return MPoly(p.ring, vars, terms)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.raw

    def total_degree(self) -> int:
        """-1 for the zero polynomial."""
        return max((sum(e) for e in self.raw), default=-1)

    def degree_in(self, name: str) -> int:
        i = self._index(name)
        return max((e[i] for e in self.raw), default=-1)

    def _index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} (vars {self.vars})") from None

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.raw}
        return len(degs) <= 1

    # -- arithmetic (on raw values; the constructor normalises) -------

    def _check(self, other: "MPoly"):
        if not isinstance(other, MPoly):
            raise TypeError(f"expected MPoly, got {type(other).__name__}")
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring.name()} vs {other.ring.name()}")
        if self.vars != other.vars:
            raise RingMismatchError(f"variables {self.vars} vs {other.vars}")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        terms = dict(self.raw)
        for e, c in other.raw.items():
            terms[e] = terms.get(e, 0) + c
        return MPoly(self.ring, self.vars, terms)

    def __neg__(self) -> "MPoly":
        return MPoly(self.ring, self.vars, {e: -c for e, c in self.raw.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        return MPoly(self.ring, self.vars, mul_terms(self.raw, other.raw, self.ring.norm))

    # -- substitution -------------------------------------------------

    def subst(self, name: str, value) -> "MPoly":
        """Substitute a ring value (int, Fraction or Scalar of the ring), a
        Poly, or an MPoly for one variable.

        The substituted variable is dropped from the result; variables of a
        polynomial value are merged in (so T -> 1-T style substitutions work).
        """
        i = self._index(name)
        rest = self.vars[:i] + self.vars[i + 1 :]
        if isinstance(value, (int, Fraction, Scalar)):
            v = self.ring.norm(value)
            terms = {}
            for e, c in self.raw.items():
                ne = e[:i] + e[i + 1 :]
                terms[ne] = terms.get(ne, 0) + c * v ** e[i]
            return MPoly(self.ring, rest, terms)
        if isinstance(value, Poly):
            value = MPoly.from_poly(value)
        if not isinstance(value, MPoly):
            raise TypeError(f"cannot substitute {type(value).__name__}")
        if value.ring != self.ring:
            raise RingMismatchError(f"{self.ring.name()} vs {value.ring.name()}")
        out_vars = rest + tuple(v for v in value.vars if v not in rest)
        val, norm = value._embed(out_vars).raw, self.ring.norm
        pad = (0,) * (len(out_vars) - len(rest))
        powers, terms = [{(0,) * len(out_vars): 1}], {}
        for e, c in self.raw.items():
            while len(powers) <= e[i]:
                powers.append(mul_terms(powers[-1], val, norm))
            for e2, c2 in mul_terms({e[:i] + e[i + 1 :] + pad: c}, powers[e[i]], norm).items():
                terms[e2] = terms.get(e2, 0) + c2
        return MPoly(self.ring, out_vars, terms)

    def _embed(self, vars: tuple) -> "MPoly":
        idx = [vars.index(v) for v in self.vars]
        terms = {}
        for e, c in self.raw.items():
            ne = [0] * len(vars)
            for j, k in zip(idx, e):
                ne[j] = k
            terms[tuple(ne)] = c
        return MPoly(self.ring, vars, terms)

    def eval(self, point: dict) -> Scalar:
        """The value at point[name], a ring value for every variable."""
        norm = self.ring.norm
        order = [norm(point[v]) for v in self.vars]
        acc = 0
        for e, c in self.raw.items():
            for v, k in zip(order, e):
                c = c * v**k
            acc = norm(acc + c)
        return Scalar(self.ring, acc)

    def to_poly(self, name: str) -> Poly:
        """The same value as a Poly in `name` (every other variable must be
        absent), whose degree is the degree in `name`."""
        if name not in self.vars:
            if self.total_degree() > 0:
                raise ValueError(f"not univariate in {name!r}: {self.vars}")
            return Poly.constant(self.ring, name, self.raw.get((0,) * len(self.vars), 0))
        i = self._index(name)
        for e in self.raw:
            for j, k in enumerate(e):
                if j != i and k != 0:
                    raise ValueError(f"not univariate in {name!r}: {self.vars}")
        cs = [0] * (self.degree_in(name) + 1)
        for e, c in self.raw.items():
            cs[e[i]] = c
        return Poly(self.ring, name, cs)

    # -- value --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.ring == other.ring
            and self.vars == other.vars
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.ring, self.vars, tuple(sorted(self.raw.items()))))

    def __repr__(self):
        return f"MPoly({self.ring.name()}, {self.vars}, {{{', '.join(f'{e}: {c}' for e, c in sorted(self.raw.items(), reverse=True))}}})"

    def __str__(self):
        from .exprio import print_poly

        return print_poly(self)
