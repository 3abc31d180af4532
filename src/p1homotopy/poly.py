"""Dense univariate polynomials, stored canonically.

A polynomial stores its coefficients by exponent up to its degree: the
constructor drops zero leading coefficients, so equal values are equal
Polys with equal hashes, and zero stores ().  A formal degree above the
actual one is not part of the value; the resultant takes it as an argument.

Coefficients are stored in `raw` as raw ring values (int for Z, Fraction for
Q, int in [0, p) for F_p) and the arithmetic runs on them, with the ring's
`norm` and `exact_div` as context.  Scalars are only the boundary: the
constructor takes ints, Fractions or Scalars of the ring, and `coeffs`,
`coeff`, `leading` and `eval` return Scalars.
"""

from __future__ import annotations

from itertools import zip_longest

from .rings import ExactDivisionError, RingMismatchError, RingTag, Scalar


def _top(raw) -> int:
    """Index of the last nonzero raw value; -1 when there is none."""
    for i in range(len(raw) - 1, -1, -1):
        if raw[i]:
            return i
    return -1


class Poly:
    __slots__ = ("ring", "var", "raw")

    def __init__(self, ring: RingTag, var: str, coeffs):
        """coeffs are ints, Fractions or Scalars of `ring`, by exponent;
        zero leading coefficients are dropped."""
        self.ring = ring
        self.var = var
        raw = tuple(map(ring.norm, coeffs))
        self.raw = raw[: _top(raw) + 1] if raw and not raw[-1] else raw

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Scalars, by exponent."""
        return tuple(Scalar(self.ring, c) for c in self.raw)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ring: RingTag, var: str) -> "Poly":
        """The zero polynomial, stored as ()."""
        return Poly(ring, var, ())

    @staticmethod
    def one(ring: RingTag, var: str) -> "Poly":
        return Poly(ring, var, (1,))

    @staticmethod
    def x(ring: RingTag, var: str) -> "Poly":
        return Poly(ring, var, (0, 1))

    @staticmethod
    def constant(ring: RingTag, var: str, value) -> "Poly":
        return Poly(ring, var, (value,))

    # -- degrees ------------------------------------------------------

    def actual_degree(self) -> int:
        """Largest exponent with a nonzero coefficient; -1 for zero."""
        return len(self.raw) - 1

    def is_zero(self) -> bool:
        return not self.raw

    def coeff(self, k: int) -> Scalar:
        return Scalar(self.ring, self.raw[k] if 0 <= k < len(self.raw) else 0)

    def leading(self) -> Scalar:
        """Coefficient at the degree (zero for the zero polynomial)."""
        return self.coeff(len(self.raw) - 1)

    # -- arithmetic (on raw values; the constructor normalises) -------

    def _check(self, other: "Poly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(f"{self.ring.name()} vs {other.ring.name()}")
        if self.var != other.var:
            raise RingMismatchError(f"variable {self.var} vs {other.var}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        pairs = zip_longest(self.raw, other.raw, fillvalue=0)
        return Poly(self.ring, self.var, [a + b for a, b in pairs])

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        pairs = zip_longest(self.raw, other.raw, fillvalue=0)
        return Poly(self.ring, self.var, [a - b for a, b in pairs])

    def __neg__(self) -> "Poly":
        return Poly(self.ring, self.var, [-c for c in self.raw])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.raw, other.raw
        out = [0] * (len(a) + len(b) - 1)  # empty when either is zero
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Poly(self.ring, self.var, out)

    def scale(self, s: Scalar) -> "Poly":
        v = self.ring.norm(s)
        return Poly(self.ring, self.var, [c * v for c in self.raw])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponent")
        out = Poly.one(self.ring, self.var)
        for _ in range(n):
            out = out * self
        return out

    def eval(self, point) -> Scalar:
        """The value at a ring value (int, Fraction or Scalar of the ring)."""
        norm = self.ring.norm
        v, acc = norm(point), 0
        for c in reversed(self.raw):
            acc = norm(acc * v + c)
        return Scalar(self.ring, acc)

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact polynomial division; any remainder or inexact coefficient
        division is a hard error (it signals an elimination bug upstream)."""
        self._check(other)
        den = other.raw
        if not den:
            raise ExactDivisionError("division by the zero polynomial")
        rem = list(self.raw)
        dd, lead = len(den) - 1, den[-1]
        if len(rem) - 1 < dd:
            if not rem:
                return Poly.zero(self.ring, self.var)
            raise ExactDivisionError("degree of dividend below divisor")
        norm, div = self.ring.norm, self.ring.divider(lead)
        q = [0] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = norm(rem[k])
            if not c:
                continue
            # exact overall division forces every step to divide exactly
            step = q[k - dd] = div(c)
            for i, d in enumerate(den, k - dd):
                rem[i] -= step * d
        if any(map(norm, rem)):
            raise ExactDivisionError("inexact polynomial division")
        return Poly(self.ring, self.var, q)

    # -- value --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.var == other.var
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.ring, self.var, self.raw))

    def __repr__(self):
        return f"Poly({self.ring.name()}, {self.var!r}, {[str(c) for c in self.raw]})"

    def __str__(self):
        from .exprio import print_poly

        return print_poly(self)
