import json
import random

import pytest

from p1homotopy import properties
from p1homotopy.monoid import PointedMap
from p1homotopy.properties import (
    IO_LAWS,
    MONOID_LAWS,
    PROPERTIES,
    RESULTANT_LAWS,
    UnknownPropertyError,
    bezout_unique,
    run_property,
)
from p1homotopy.randgen import RandomMapSpec, SamplingBudgetError, gen_valid_map
from p1homotopy.rings import QQ, ExactDivisionError, RingTag, ZZ

F5 = RingTag("Fp", 5)
F_BENCH = RingTag("Fp", 1000003)


class TestGenValidMap:
    def test_deterministic_from_seed(self):
        spec = RandomMapSpec(QQ, 1, 3, 4, seed=42)
        assert gen_valid_map(spec) == gen_valid_map(spec)
        other = RandomMapSpec(QQ, 1, 3, 4, seed=43)
        assert gen_valid_map(spec) != gen_valid_map(other)

    def test_validity_over_each_ring(self):
        for ring in (ZZ, QQ, F5):
            for seed in range(8):
                u = gen_valid_map(RandomMapSpec(ring, 0, 3, 3, seed=seed))
                assert isinstance(u, PointedMap)
                assert u.ring == ring

    def test_degree_range(self):
        for seed in range(6):
            u = gen_valid_map(RandomMapSpec(ZZ, 2, 4, 3, seed=seed))
            assert 2 <= u.n <= 4

    def test_degenerate_range_gives_the_zero_map(self):
        u = gen_valid_map(RandomMapSpec(ZZ, 0, 0, 3, seed=5))
        assert u.n == 0 and str(u.f) == "1" and u.g.is_zero()

    def test_z_maps_built_from_elementary_factors_are_unit(self):
        for seed in range(10):
            u = gen_valid_map(RandomMapSpec(ZZ, 3, 3, 4, seed=seed))
            assert u.n == 3
            assert u.res.is_unit()

    def test_budget_exhaustion_reports(self):
        # coefficient bound 0 over Q forces g = 0, so validation never succeeds
        spec = RandomMapSpec(QQ, 2, 2, 0, seed=1, budget=20)
        with pytest.raises(SamplingBudgetError) as err:
            gen_valid_map(spec)
        assert err.value.attempts == 20


class TestRunProperty:
    def test_unknown_name(self):
        with pytest.raises(UnknownPropertyError):
            run_property("no_such_law", 10, 1)

    @pytest.mark.parametrize("law", RESULTANT_LAWS + MONOID_LAWS + IO_LAWS)
    def test_each_law_passes_briefly(self, law):
        result = run_property(law, 40, seed=2024)
        assert result.passed, result.counterexample
        assert result.seed == 2024 and result.trials == 40

    def test_failure_dumps_json_counterexample(self, monkeypatch):
        def always_fails(rng):
            return {"reason": "synthetic failure"}

        monkeypatch.setitem(PROPERTIES, "synthetic_failure", always_fails)
        result = run_property("synthetic_failure", 5, 1)
        assert not result.passed
        assert result.counterexample == {"trial": 0, "reason": "synthetic failure"}
        assert "synthetic failure" in json.dumps(result.counterexample)
        assert "FAIL" in result.describe()

    def test_an_exception_fails_its_trial(self, monkeypatch):
        calls = []

        def raises_third(rng):
            calls.append(rng.random())
            if len(calls) == 3:
                raise ExactDivisionError("not exact")

        monkeypatch.setitem(PROPERTIES, "raises_third", raises_third)
        result = run_property("raises_third", 5, 1)
        assert not result.passed and len(calls) == 3
        assert result.counterexample == {"trial": 2, "error": "ExactDivisionError: not exact"}

    # first counterexamples with the cofactor oracle one too large whenever
    # n + m >= bump_from; the trial index, the keys in order and the values
    # pin the RNG stream each law draws from
    @pytest.mark.parametrize("law, bump_from, expected", [
        ("oracle_agreement", 0, {
            "trial": 0, "ring": "Fp:5", "f": "X^3 + X^2 + 3*X + 4 (formal degree 3)",
            "g": "3*X^4 + 4*X^3 + 3*X^2 + 4*X + 1 (formal degree 4)",
            "bareiss": "3", "cofactor": "4"}),
        ("swap_law", 0, {
            "trial": 0, "ring": "Z", "f": "4*X^4 - 3*X^3 + X^2 + 2*X - 1 (formal degree 4)",
            "g": "-3*X + 4 (formal degree 1)", "res(f,g)": "727", "(-1)^(nm) res(g,f)": "728"}),
        ("swap_law", 7, {
            "trial": 9, "ring": "Z", "f": "X^4 + 4*X^3 - 1 (formal degree 4)",
            "g": "4*X^3 - X^2 - X - 3 (formal degree 3)",
            "res(f,g)": "1823", "(-1)^(nm) res(g,f)": "1824"}),
        # the law passes its formal degree, above the degree of the value
        ("swap_law", 8, {
            "trial": 11, "ring": "Z", "f": "-2*X^3 - X^2 - 3*X - 3 (formal degree 4)",
            "g": "2*X^4 - 2*X^3 + 4*X^2 - X (formal degree 4)",
            "res(f,g)": "612", "(-1)^(nm) res(g,f)": "613"}),
        ("scaling_law", 0, {
            "trial": 0, "ring": "Z", "f": "-2*X^2 - 4*X + 2 (formal degree 2)",
            "g": "-X^3 - 2*X^2 + 3*X + 2 (formal degree 4)", "a": "2", "b": "-1",
            "res(af,bg)": "-2048", "a^m b^n res(f,g)": "-2032"}),
    ])
    def test_a_broken_oracle_gives_a_pinned_counterexample(self, monkeypatch, law, bump_from,
                                                           expected):
        oracle = properties.resultant_oracle

        def off_by_one(f, g, n, m):
            r = oracle(f, g, n, m)
            return r + r.ring.one() if n + m >= bump_from else r

        monkeypatch.setattr(properties, "resultant_oracle", off_by_one)
        result = run_property(law, 30, seed=11)
        assert not result.passed
        assert list(result.counterexample) == list(expected)
        assert result.counterexample == expected

    def test_same_seed_same_verdict_path(self):
        a = run_property("oracle_agreement", 25, seed=5)
        b = run_property("oracle_agreement", 25, seed=5)
        assert a.passed and b.passed and a.trials == b.trials


@pytest.mark.parametrize("n", [10, 12])
@pytest.mark.parametrize("ring", [ZZ, QQ, F_BENCH], ids=lambda r: r.kind)
def test_bezout_unique_above_the_oracle_cap(ring, n):
    # the cofactor oracle stops at 8x8; the field solve has no size cap
    rng = random.Random(n)
    for _ in range(2):
        counterexample = bezout_unique(rng, ring, (n, n))
        assert counterexample is None, counterexample
