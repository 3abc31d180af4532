"""Dense univariate polynomials with an explicit formal degree.

A polynomial of formal degree d stores exactly d+1 coefficients indexed by
exponent; leading coefficients may be zero, and the formal degree is part of
the value (two representations of the same function with different formal
degrees are unequal).  The distinguished ZERO polynomial has no formal degree
of its own; padding assigns it one.
"""

from __future__ import annotations

from .rings import ExactDivisionError, RingMismatchError, RingTag, Scalar


class FormalDegreeError(ValueError):
    """Requested formal degree is below the actual degree."""


class Poly:
    __slots__ = ("ring", "var", "coeffs")

    def __init__(self, ring: RingTag, var: str, coeffs):
        self.ring = ring
        self.var = var
        cs = tuple(c if isinstance(c, Scalar) else Scalar(ring, c) for c in coeffs)
        for c in cs:
            if c.ring != ring:
                raise RingMismatchError(f"coefficient in {c.ring.name()}, poly over {ring.name()}")
        self.coeffs = cs

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
        s = value if isinstance(value, Scalar) else Scalar(ring, value)
        if s.is_zero():
            return Poly.zero(ring, var)
        return Poly(ring, var, (s,))

    # -- degrees ------------------------------------------------------

    @property
    def formal_degree(self) -> int:
        """len(coeffs) - 1; -1 marks the distinguished ZERO."""
        return len(self.coeffs) - 1

    def actual_degree(self) -> int:
        """Largest exponent with a nonzero coefficient; -1 when the value is zero."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[i].is_zero():
                return i
        return -1

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_canonical_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero()

    def leading(self) -> Scalar:
        """Coefficient at the actual degree (zero for a zero-valued polynomial)."""
        d = self.actual_degree()
        return self.coeffs[d] if d >= 0 else self.ring.zero()

    # -- shape --------------------------------------------------------

    def pad_to(self, d: int) -> "Poly":
        """Same value, formal degree raised to d (error below actual degree)."""
        if d < self.actual_degree():
            raise FormalDegreeError(
                f"cannot pad to degree {d}: actual degree is {self.actual_degree()}"
            )
        z = self.ring.zero()
        return Poly(self.ring, self.var, self.coeffs + (z,) * (d + 1 - len(self.coeffs)))

    def trim(self) -> "Poly":
        """Same value at its natural formal degree (ZERO when zero-valued)."""
        return Poly(self.ring, self.var, self.coeffs[: self.actual_degree() + 1])

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring.name()} vs {other.ring.name()}")
        if self.var != other.var:
            raise RingMismatchError(f"variable {self.var} vs {other.var}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        if other.is_canonical_zero():
            return self
        if self.is_canonical_zero():
            return other
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.ring, self.var, tuple(self.coeff(i) + other.coeff(i) for i in range(n))
        )

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        if other.is_canonical_zero():
            return self
        if self.is_canonical_zero():
            return -other
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            self.ring, self.var, tuple(self.coeff(i) - other.coeff(i) for i in range(n))
        )

    def __neg__(self) -> "Poly":
        return Poly(self.ring, self.var, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_canonical_zero() or other.is_canonical_zero():
            return Poly.zero(self.ring, self.var)
        # formal degree of a product is the sum of the formal degrees
        da, db = self.formal_degree, other.formal_degree
        z = self.ring.zero()
        out = [z] * (da + db + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.ring, self.var, out)

    def scale(self, s: Scalar) -> "Poly":
        if s.ring != self.ring:
            raise RingMismatchError(f"{s.ring.name()} vs {self.ring.name()}")
        return Poly(self.ring, self.var, tuple(c * s for c in self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponent")
        out = Poly.one(self.ring, self.var)
        for _ in range(n):
            out = out * self
        return out

    def eval(self, point: Scalar) -> Scalar:
        if point.ring != self.ring:
            raise RingMismatchError(f"{point.ring.name()} vs {self.ring.name()}")
        acc = self.ring.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact polynomial division; any remainder or inexact coefficient
        division is a hard error (it signals an elimination bug upstream)."""
        self._check(other)
        if other.is_zero():
            raise ExactDivisionError("division by the zero polynomial")
        rem = list(self.trim().coeffs)
        den = other.trim().coeffs
        dd = len(den) - 1
        lead = den[-1]
        if len(rem) - 1 < dd:
            if all(c.is_zero() for c in rem):
                return Poly.zero(self.ring, self.var)
            raise ExactDivisionError("degree of dividend below divisor")
        q = [self.ring.zero()] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c.is_zero():
                continue
            # exact overall division forces every step to divide exactly
            step = c.exact_div(lead)
            q[k - dd] = step
            for i in range(dd + 1):
                rem[k - dd + i] = rem[k - dd + i] - step * den[i]
        if any(not c.is_zero() for c in rem):
            raise ExactDivisionError("inexact polynomial division")
        return Poly(self.ring, self.var, q).trim()

    # -- value --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.var, self.coeffs))

    def __repr__(self):
        return f"Poly({self.ring.name()}, {self.var!r}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        from .exprio import print_poly

        return print_poly(self)
