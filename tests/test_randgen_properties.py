import json
import random

import pytest

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
from p1homotopy.rings import QQ, RingTag, ZZ

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

    def test_failure_dumps_json_counterexample(self):
        def always_fails(rng, trials):
            return {"trial": 0, "reason": "synthetic failure"}

        PROPERTIES["synthetic_failure"] = always_fails
        try:
            result = run_property("synthetic_failure", 5, 1)
            assert not result.passed
            blob = json.dumps(result.counterexample)
            assert "synthetic failure" in blob
            assert "FAIL" in result.describe()
        finally:
            del PROPERTIES["synthetic_failure"]

    def test_same_seed_same_verdict_path(self):
        a = run_property("oracle_agreement", 25, seed=5)
        b = run_property("oracle_agreement", 25, seed=5)
        assert a.passed and b.passed and a.trials == b.trials


@pytest.mark.parametrize("n", [10, 12])
@pytest.mark.parametrize("ring", [ZZ, QQ, F_BENCH], ids=lambda r: r.kind)
def test_bezout_unique_above_the_oracle_cap(ring, n):
    # the cofactor oracle stops at 8x8; the field solve has no size cap
    counterexample = bezout_unique(random.Random(n), 2, ring, (n, n))
    assert counterexample is None, counterexample
