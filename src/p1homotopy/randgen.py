"""Seeded random generation of polynomials and valid pointed maps."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .monoid import MapValidationError, PointedMap, oplus, validate
from .poly import Poly
from .rings import RingTag, Scalar, ZZ


class SamplingBudgetError(RuntimeError):
    def __init__(self, attempts: int):
        self.attempts = attempts
        super().__init__(f"no valid map found in {attempts} attempts")


@dataclass(frozen=True)
class RandomMapSpec:
    ring: RingTag
    min_degree: int = 0
    max_degree: int = 3
    coeff_bound: int = 5
    seed: int = 0
    budget: int = 500


def rand_scalar(rng: random.Random, ring: RingTag, bound: int) -> Scalar:
    if ring.kind == "Fp":
        return Scalar(ring, rng.randrange(ring.modulus))
    if ring.kind == "Q":
        num = rng.randint(-bound, bound)
        den = rng.randint(1, max(bound, 1))
        return Scalar(ring, Fraction(num, den))
    return Scalar(ring, rng.randint(-bound, bound))


def rand_poly(rng: random.Random, ring: RingTag, formal_degree: int, bound: int) -> Poly:
    """formal_degree + 1 random coefficients (zero when it is negative): the
    leading ones may be zero, so the degree may be lower, which is what the
    laws that pass formal_degree to the resultant need to see."""
    return Poly(
        ring, "X", tuple(rand_scalar(rng, ring, bound) for _ in range(formal_degree + 1))
    )


def _elementary_factor(rng: random.Random, bound: int) -> PointedMap:
    # (X + c)/u with u a unit: a degree-1 map with unit resultant by design
    c = rng.randint(-bound, bound)
    u = rng.choice((1, -1))
    f = Poly(ZZ, "X", (c, 1))
    g = Poly.constant(ZZ, "X", u)
    return validate(f, g)


def gen_valid_map(spec: RandomMapSpec) -> PointedMap:
    """Deterministic sampling of a valid map.

    Over a field: rejection sampling (a random pair rarely has resultant 0).
    Over Z a random pair almost never has unit resultant, so the map is
    assembled as a monoid sum of degree-1 maps (X+c)/(+-1), keeping the
    resultant a unit by construction.
    """
    rng = random.Random(spec.seed)
    return _gen_valid_map(rng, spec)


def _gen_valid_map(rng: random.Random, spec: RandomMapSpec) -> PointedMap:
    n = rng.randint(spec.min_degree, spec.max_degree)
    zero_map = validate(Poly.one(spec.ring, "X"), Poly.zero(spec.ring, "X"), spec.ring)
    if n == 0:
        return zero_map
    if spec.ring.kind == "Z":
        acc = zero_map
        for _ in range(n):
            acc = oplus(acc, _elementary_factor(rng, spec.coeff_bound))
        return acc
    for _ in range(spec.budget):
        f = rand_poly(rng, spec.ring, n - 1, spec.coeff_bound) + Poly(
            spec.ring, "X", (0,) * n + (1,)
        )
        g = rand_poly(rng, spec.ring, n - 1, spec.coeff_bound)
        try:
            return validate(f, g, spec.ring)
        except MapValidationError:
            continue
    raise SamplingBudgetError(spec.budget)
