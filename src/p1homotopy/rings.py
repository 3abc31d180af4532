"""Exact base rings: unbounded integers, rationals, and prime fields.

Every scalar is immutable and carries its ring tag; mixing rings raises
RingMismatchError instead of coercing.  The ring rules live on RingTag as
operations on raw values (`norm`, `exact_div`, `divider`); Poly, MPoly and
the resultants (from the Sylvester layout on) compute on raw values, and
Scalar is their boundary: a resultant over Z, Q or F_p builds one, its value.
"""

from __future__ import annotations

from fractions import Fraction


class RingMismatchError(ValueError):
    """Operands belong to different rings."""


class ExactDivisionError(ArithmeticError):
    """Division was requested that is not exact in the domain."""


class NotPrimeError(ValueError):
    """Modulus of a prime field is not prime."""


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; callers must keep p below _MR_BOUND."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RingTag:
    """Identifies one of the supported coefficient rings: Z, Q, or F_p."""

    __slots__ = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Fp":
            if modulus is not None and modulus >= _MR_BOUND:
                raise NotPrimeError(f"modulus {modulus!r} is too large to certify as prime")
            if modulus is None or not _is_prime(modulus):
                raise NotPrimeError(f"modulus {modulus!r} is not prime")
        elif modulus is not None:
            raise ValueError(f"ring {kind} takes no modulus")
        self.kind = kind
        self.modulus = modulus

    def __eq__(self, other):
        return (
            isinstance(other, RingTag)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        return f"RingTag({self.name()})"

    def name(self) -> str:
        if self.kind == "Fp":
            return f"Fp:{self.modulus}"
        return self.kind

    @staticmethod
    def from_name(text: str) -> "RingTag":
        """Parse 'z', 'q', or 'fp:P' (case-insensitive)."""
        t = text.strip().lower()
        if t == "z":
            return ZZ
        if t == "q":
            return QQ
        if t.startswith("fp:"):
            try:
                p = int(t[3:])
            except ValueError:
                raise ValueError(f"bad prime field spec {text!r}") from None
            return RingTag("Fp", p)
        raise ValueError(f"unknown ring {text!r} (expected z, q, or fp:P)")

    def one(self) -> "Scalar":
        return Scalar(self, 1)

    # -- raw values: int for Z, Fraction for Q, int in [0, p) for F_p -----

    def norm(self, value):
        """The raw value of an int, a Fraction or a Scalar of this ring;
        anything else (a float, a string, a bool) raises TypeError."""
        t, k = type(value), self.kind
        if t is not int and t is not Fraction:
            if t is Scalar:
                if value.ring is not self and value.ring != self:
                    raise RingMismatchError(f"{value.ring.name()} value in {self.name()}")
                return value.value
            if t is bool or not isinstance(value, (int, Fraction)):
                raise TypeError(f"{t.__name__} {value!r} is not an exact {self.name()} value")
        if k == "Q":
            return value if t is Fraction else Fraction(value)
        if t is not int and isinstance(value, Fraction):
            if k == "Fp":
                p = self.modulus
                if value.denominator % p == 0:
                    raise ExactDivisionError(f"{value} has no residue mod {p}")
                return value.numerator * pow(value.denominator, -1, p) % p
            if value.denominator != 1:
                raise ExactDivisionError(f"{value} is not an integer")
        if k == "Z":
            return value if t is int else int(value)
        return int(value) % self.modulus

    def exact_div(self, a, b):
        """a / b on raw values; raises ExactDivisionError when b does not divide a."""
        if b == 0:
            raise ExactDivisionError("division by zero")
        return self.divider(b)(a)

    def divider(self, b):
        """The map a -> exact_div(a, b), with b's inverse found once over F_p;
        b None gives the reduction alone (F_p residues, the identity elsewhere)."""
        k, p = self.kind, self.modulus
        if k == "Fp":
            inv = 1 if b is None else pow(b, -1, p)
            return lambda a: a * inv % p
        if b is None:
            return lambda a: a
        if k == "Q":
            return lambda a: Fraction(a) / b

        def div(a):
            q, r = divmod(a, b)
            if r:
                raise ExactDivisionError(f"{a} not divisible by {b}")
            return q

        return div


ZZ = RingTag("Z")
QQ = RingTag("Q")


class Scalar:
    """An exact element of Z, Q, or F_p.

    Rationals are kept in lowest terms with positive denominator (Fraction
    guarantees this); prime field residues are kept in [0, p).
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: RingTag, value):
        self.ring = ring
        self.value = ring.norm(value)

    def _check(self, other: "Scalar"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(f"{self.ring.name()} vs {other.ring.name()}")

    def __add__(self, other):
        self._check(other)
        return Scalar(self.ring, self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.ring, self.value - other.value)

    def __mul__(self, other):
        self._check(other)
        return Scalar(self.ring, self.value * other.value)

    def __neg__(self):
        return Scalar(self.ring, -self.value)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent")
        if self.ring.kind == "Fp":
            return Scalar(self.ring, pow(self.value, n, self.ring.modulus))
        return Scalar(self.ring, self.value**n)

    def exact_div(self, other: "Scalar") -> "Scalar":
        """Exact division; raises ExactDivisionError when b does not divide a."""
        self._check(other)
        return Scalar(self.ring, self.ring.exact_div(self.value, other.value))

    def is_zero(self) -> bool:
        return self.value == 0

    def is_unit(self) -> bool:
        """Invertibility in the ring: +-1 in Z, any nonzero element of a field."""
        if self.ring.kind == "Z":
            return self.value in (1, -1)
        return self.value != 0

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.ring == other.ring
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.ring, self.value))

    def __repr__(self):
        return f"Scalar({self.ring.name()}, {self.value})"

    def __str__(self):
        return str(self.value)
