"""Dense univariate polynomials with an explicit formal degree.

A polynomial of formal degree d stores exactly d+1 coefficients indexed by
exponent; leading coefficients may be zero, and the formal degree is part of
the value (two representations of the same function with different formal
degrees are unequal).  The distinguished ZERO polynomial has no formal degree
of its own; padding assigns it one.

Coefficients are stored in `raw` as raw ring values (int for Z, Fraction for
Q, int in [0, p) for F_p) and the arithmetic runs on them, with the ring's
`norm` and `exact_div` as context.  Scalars are only the boundary: the
constructor takes ints, Fractions or Scalars of the ring, and `coeffs`,
`coeff`, `leading` and `eval` return Scalars.
"""

from __future__ import annotations

from itertools import zip_longest

from .rings import ExactDivisionError, RingMismatchError, RingTag, Scalar


class FormalDegreeError(ValueError):
    """Requested formal degree is below the actual degree."""


def _top(raw) -> int:
    """Index of the last nonzero raw value; -1 when there is none."""
    for i in range(len(raw) - 1, -1, -1):
        if raw[i]:
            return i
    return -1


class Poly:
    __slots__ = ("ring", "var", "raw")

    def __init__(self, ring: RingTag, var: str, coeffs):
        """coeffs are ints, Fractions or Scalars of `ring`, by exponent."""
        self.ring = ring
        self.var = var
        self.raw = tuple(map(ring.norm, coeffs))

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Scalars, by exponent."""
        return tuple(Scalar(self.ring, c) for c in self.raw)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(ring: RingTag, var: str) -> "Poly":
        """The distinguished zero polynomial (no formal degree)."""
        return Poly(ring, var, ())

    @staticmethod
    def one(ring: RingTag, var: str) -> "Poly":
        return Poly(ring, var, (1,))

    @staticmethod
    def x(ring: RingTag, var: str) -> "Poly":
        return Poly(ring, var, (0, 1))

    @staticmethod
    def constant(ring: RingTag, var: str, value) -> "Poly":
        v = ring.norm(value)
        return Poly(ring, var, (v,) if v else ())

    # -- degrees ------------------------------------------------------

    @property
    def formal_degree(self) -> int:
        """len(coeffs) - 1; -1 marks the distinguished ZERO."""
        return len(self.raw) - 1

    def actual_degree(self) -> int:
        """Largest exponent with a nonzero coefficient; -1 when the value is zero."""
        return _top(self.raw)

    def is_zero(self) -> bool:
        return not any(self.raw)

    def is_canonical_zero(self) -> bool:
        return not self.raw

    def coeff(self, k: int) -> Scalar:
        return Scalar(self.ring, self.raw[k] if 0 <= k < len(self.raw) else 0)

    def leading(self) -> Scalar:
        """Coefficient at the actual degree (zero for a zero-valued polynomial)."""
        return self.coeff(_top(self.raw))

    # -- shape --------------------------------------------------------

    def pad_to(self, d: int) -> "Poly":
        """Same value, formal degree raised to d (error below actual degree)."""
        if d < self.actual_degree():
            raise FormalDegreeError(
                f"cannot pad to degree {d}: actual degree is {self.actual_degree()}"
            )
        return Poly(self.ring, self.var, self.raw + (0,) * (d + 1 - len(self.raw)))

    def trim(self) -> "Poly":
        """Same value at its natural formal degree (ZERO when zero-valued)."""
        return Poly(self.ring, self.var, self.raw[: _top(self.raw) + 1])

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
        if not a or not b:
            return Poly.zero(self.ring, self.var)
        # formal degree of a product is the sum of the formal degrees
        out = [0] * (len(a) + len(b) - 1)
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
        den = other.raw[: _top(other.raw) + 1]
        if not den:
            raise ExactDivisionError("division by the zero polynomial")
        rem = list(self.raw[: _top(self.raw) + 1])
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
        return Poly(self.ring, self.var, q[: _top(q) + 1])

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
