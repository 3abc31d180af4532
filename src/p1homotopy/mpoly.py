"""Sparse multivariate polynomials over an exact coefficient ring.

Terms map exponent vectors (aligned with an ordered variable tuple) to
nonzero scalars.  The primary use is Z[T][X], Z[T0,T1] and Z[T0,T1,T]; the
type accepts any RingTag so the same machinery serves certificates over a
field as well.
"""

from __future__ import annotations

from .rings import RingMismatchError, RingTag, Scalar
from .poly import Poly


class MPoly:
    __slots__ = ("ring", "vars", "terms")

    def __init__(self, ring: RingTag, vars: tuple, terms: dict):
        self.ring = ring
        self.vars = tuple(vars)
        nv = len(self.vars)
        clean = {}
        for exps, c in terms.items():
            if len(exps) != nv:
                raise ValueError(f"exponent vector {exps} has wrong length (vars {self.vars})")
            s = c if isinstance(c, Scalar) else Scalar(ring, c)
            if s.ring != ring:
                raise RingMismatchError(f"{s.ring.name()} coefficient in {ring.name()} polynomial")
            if not s.is_zero():
                clean[tuple(int(e) for e in exps)] = s
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ring: RingTag, vars) -> "MPoly":
        return MPoly(ring, tuple(vars), {})

    @staticmethod
    def constant(ring: RingTag, vars, value) -> "MPoly":
        vars = tuple(vars)
        return MPoly(ring, vars, {(0,) * len(vars): value})

    @staticmethod
    def variable(ring: RingTag, vars, name: str) -> "MPoly":
        vars = tuple(vars)
        if name not in vars:
            raise ValueError(f"variable {name!r} not among {vars}")
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return MPoly(ring, vars, {tuple(e): 1})

    @staticmethod
    def from_poly(p: Poly, vars=None) -> "MPoly":
        """Embed a univariate polynomial (vars defaults to (p.var,))."""
        vars = (p.var,) if vars is None else tuple(vars)
        if p.var not in vars:
            raise ValueError(f"variable {p.var!r} not among {vars}")
        idx = vars.index(p.var)
        terms = {}
        for k, c in enumerate(p.coeffs):
            if not c.is_zero():
                e = [0] * len(vars)
                e[idx] = k
                terms[tuple(e)] = c
        return MPoly(p.ring, vars, terms)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """-1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, name: str) -> int:
        i = self._index(name)
        return max((e[i] for e in self.terms), default=-1)

    def _index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} (vars {self.vars})") from None

    def coeff_of(self, name: str, k: int) -> "MPoly":
        """Coefficient of name**k, as a polynomial in the remaining variables."""
        i = self._index(name)
        rest = self.vars[:i] + self.vars[i + 1 :]
        terms = {}
        for e, c in self.terms.items():
            if e[i] == k:
                terms[e[:i] + e[i + 1 :]] = c
        return MPoly(self.ring, rest, terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "MPoly"):
        if not isinstance(other, MPoly):
            raise TypeError(f"expected MPoly, got {type(other).__name__}")
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring.name()} vs {other.ring.name()}")
        if self.vars != other.vars:
            raise RingMismatchError(f"variables {self.vars} vs {other.vars}")

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return MPoly(self.ring, self.vars, terms)

    def __neg__(self) -> "MPoly":
        return MPoly(self.ring, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e)
                p = c1 * c2
                terms[e] = p if s is None else s + p
        return MPoly(self.ring, self.vars, terms)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative exponent")
        out = MPoly.constant(self.ring, self.vars, 1)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, s: Scalar) -> "MPoly":
        return MPoly(self.ring, self.vars, {e: c * s for e, c in self.terms.items()})

    # -- substitution -------------------------------------------------

    def subst(self, name: str, value) -> "MPoly":
        """Substitute a Scalar, Poly, or MPoly for one variable.

        The substituted variable is dropped from the result; variables of a
        polynomial value are merged in (so T -> 1-T style substitutions work).
        """
        i = self._index(name)
        rest = self.vars[:i] + self.vars[i + 1 :]
        if isinstance(value, Scalar):
            terms = {}
            for e, c in self.terms.items():
                ne = e[:i] + e[i + 1 :]
                s = c * value ** e[i]
                prev = terms.get(ne)
                terms[ne] = s if prev is None else prev + s
            return MPoly(self.ring, rest, terms)
        if isinstance(value, Poly):
            value = MPoly.from_poly(value)
        if not isinstance(value, MPoly):
            raise TypeError(f"cannot substitute {type(value).__name__}")
        out_vars = rest + tuple(v for v in value.vars if v not in rest)
        val = value._embed(out_vars)
        out = MPoly.zero(self.ring, out_vars)
        powers = {0: MPoly.constant(self.ring, out_vars, 1)}
        for e, c in self.terms.items():
            k = e[i]
            if k not in powers:
                powers[k] = val**k
            base = {tuple(e[:i] + e[i + 1 :]) + (0,) * (len(out_vars) - len(rest)): c}
            out = out + MPoly(self.ring, out_vars, base) * powers[k]
        return out

    def _embed(self, vars: tuple) -> "MPoly":
        idx = [vars.index(v) for v in self.vars]
        terms = {}
        for e, c in self.terms.items():
            ne = [0] * len(vars)
            for j, k in zip(idx, e):
                ne[j] = k
            terms[tuple(ne)] = c
        return MPoly(self.ring, vars, terms)

    def eval(self, point: dict) -> Scalar:
        acc = self.ring.zero()
        order = [point[v] for v in self.vars]
        for e, c in self.terms.items():
            t = c
            for v, k in zip(order, e):
                t = t * v**k
            acc = acc + t
        return acc

    def to_poly(self, name: str) -> Poly:
        """Convert to a dense univariate polynomial (requires every other
        variable to be absent); the formal degree is the actual one."""
        if name not in self.vars:
            if self.total_degree() > 0:
                raise ValueError(f"not univariate in {name!r}: {self.vars}")
            if self.is_zero():
                return Poly.zero(self.ring, name)
            return Poly.constant(self.ring, name, self.terms[(0,) * len(self.vars)])
        i = self._index(name)
        for e in self.terms:
            for j, k in enumerate(e):
                if j != i and k != 0:
                    raise ValueError(f"not univariate in {name!r}: {self.vars}")
        d = self.degree_in(name)
        if d < 0:
            return Poly.zero(self.ring, name)
        cs = [self.ring.zero()] * (d + 1)
        for e, c in self.terms.items():
            cs[e[i]] = c
        return Poly(self.ring, name, cs)

    def x_coeff_polys(self, xvar: str, tvar: str, n: int = -1) -> list:
        """Dense list of T-polynomial coefficients by X-exponent (empty for 0),
        padded with zeros up to the formal X-degree n."""
        d = self.degree_in(xvar)
        cs = [self.coeff_of(xvar, k).to_poly(tvar) for k in range(d + 1)]
        return cs + [Poly.zero(self.ring, tvar)] * (n - d)

    # -- value --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.ring == other.ring
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.vars, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __repr__(self):
        return f"MPoly({self.ring.name()}, {self.vars}, {{{', '.join(f'{e}: {c}' for e, c in sorted(self.terms.items(), reverse=True))}}})"

    def __str__(self):
        from .exprio import print_poly

        return print_poly(self)
