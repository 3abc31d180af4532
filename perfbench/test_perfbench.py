"""Tests of the benchmark itself: generators, output checks and the tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import algebra as A  # noqa: E402
import speed as S  # noqa: E402
import tracing as T  # noqa: E402
import workloads as W  # noqa: E402
from p1homotopy import cli  # noqa: E402


def run(req, tmp_path):
    path = tmp_path / "input.json"
    if req.file is not None:
        path.write_text(req.file)
    argv = [str(path) if a == W.FILE else a for a in req.argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def assert_behaves(req, check, tmp_path):
    code, payload = run(req, tmp_path)
    assert code == req.expect_code, (req.label, req.argv)
    assert check(req.expect, payload) is None, (req.label, check(req.expect, payload))
    return payload


# ---------------------------------------------------------------------------
# verdict classes at small sizes


@pytest.mark.parametrize("ring", [W.ZZ, W.QQ, W.FP], ids=lambda r: r.kind)
@pytest.mark.parametrize("op,degrees", [("validate", (2,)), ("bezout", (3,)), ("oplus", (1, 2, 1))])
@pytest.mark.parametrize("bad", [None, *W.INVALID_KINDS])
def test_maps_verdicts(ring, op, degrees, bad, tmp_path):
    req = W._maps_request(random.Random(3), op, degrees, ring, bad)
    payload = assert_behaves(req, W.check_maps, tmp_path)
    assert payload.get("valid", True) is (bad is None)
    if bad:
        assert payload["error"] == bad


@pytest.mark.parametrize("control", [None, "scaled", "flip"])
@pytest.mark.parametrize("nlinks", [2, 3])
def test_chain_verdicts(control, nlinks, tmp_path):
    for seed in range(3):  # the broken link lands at different positions
        req = W.chain_request(random.Random(seed), 3, nlinks, control)
        payload = assert_behaves(req, W.check_chain, tmp_path)
        assert payload["passed"] is (control is None)


def test_chain_builtins(tmp_path):
    reqs = [r for r in W.chains_round(random.Random(0)) if "builtin" in r.label]
    assert len(reqs) == 3
    for req in reqs:
        assert_behaves(req, W.check_chain, tmp_path)


def test_plane_verdicts(tmp_path):
    rng = random.Random(5)
    for req in (W.automorphism_chain(rng, 2, 2, 2), W.line_family(rng, 3), W.modq_family(rng, 4)):
        payload = assert_behaves(req, W.check_plane, tmp_path)
        assert payload["passed"] is (req.label.startswith("plane.auto"))


def test_rounds_have_a_fixed_mix():
    labels = [sorted(r.label for r in W.maps_round(random.Random(s))) for s in (1, 2)]
    assert labels[0] == labels[1]
    assert sum(lbl.endswith(".invalid") for lbl in labels[0]) == 7


def test_checks_reject_wrong_outputs(tmp_path):
    from run import check

    def verdict(workload, req, code, payload):
        return check(workload, req, code, json.dumps(payload), "")

    req = W._maps_request(random.Random(1), "oplus", (2, 2), W.ZZ, None)
    code, payload = run(req, tmp_path)
    assert verdict("maps", req, code, payload) is None
    assert verdict("maps", req, 1, payload)
    assert verdict("maps", req, code, {**payload, "g": payload["g"] + " + 1"})
    assert verdict("maps", req, code, {**payload, "g": "X^9"})
    req = W.chain_request(random.Random(1), 3, 2, "flip")
    code, payload = run(req, tmp_path)
    assert verdict("chains", req, code, {**payload, "first_failure": None})
    req = W.automorphism_chain(random.Random(1), 1, 2, 2)
    code, payload = run(req, tmp_path)
    combo = payload["links"][0]["cert"]["combos"][0]
    combo["A"] = combo["A"] + " + T"
    assert verdict("plane", req, code, payload)


def test_canonical_text_round_trips():
    ring = W.QQ
    p = A.clean(ring, {(3,): 1, (1,): Fraction(-7, 2), (0,): 5})
    assert A.read(ring, "X^3 - 7/2*X + 5", "X") == p
    assert A.read(W.ZZ, "-T0^2*T + 3*T1 - 1", W.PV) == {(2, 0, 1): -1, (0, 1, 0): 3, (0, 0, 0): -1}


# ---------------------------------------------------------------------------
# resultants of generated certificates against sympy


def _sympy_poly(sp, p: dict, names):
    syms = sp.symbols(" ".join(names))
    syms = syms if isinstance(syms, tuple) else (syms,)
    return sum(sp.Rational(c) * sp.prod([s**e for s, e in zip(syms, exps)]) for exps, c in p.items())


def test_map_resultants_match_sympy():
    sp = pytest.importorskip("sympy")
    X = sp.Symbol("X")
    rng = random.Random(11)
    for ring in (W.ZZ, W.QQ):
        for k in (1, 2, 4):
            factors = W._factors(rng, ring, k)
            f, g = W._column(ring, factors)
            got = sp.resultant(_sympy_poly(sp, f, "X"), _sympy_poly(sp, g, "X"), X)
            assert got == sp.Rational(W._map_res(ring, factors))


def test_certificate_resultants_match_sympy():
    sp = pytest.importorskip("sympy")
    X = sp.Symbol("X")
    rng = random.Random(12)
    n = 3
    for scaled in (False, True):
        req = W.chain_request(rng, n, 2, "scaled" if scaled else None)
        doc = json.loads(req.file)
        res = sp.Integer(int(req.expect["res"]))
        link_ok = req.expect["link_ok"]
        assert all(link_ok) is not scaled
        for link, ok in zip(doc["links"], link_ok, strict=True):
            F = sp.sympify(link["cert"]["f"].replace("^", "**"))
            G = sp.sympify(link["cert"]["g"].replace("^", "**"))
            want = res if ok else 2**n * res  # a doubled G scales Res by 2^deg F
            assert sp.expand(sp.resultant(F, G, X)) == want


# ---------------------------------------------------------------------------
# tracer


def _traced_pass():
    """Spans of one pass: root -> (mid -> leaf, leaf), leaf; twice."""
    tracer = T.Tracer()

    def leaf():
        time.sleep(0.001)

    def mid():
        leaf()
        time.sleep(0.001)
        leaf()

    def root():
        mid()
        leaf()

    leaf, mid, root = tracer.wrap("leaf", leaf), tracer.wrap("mid", mid), tracer.wrap("root", root)
    root()
    root()
    return tracer.spans


@pytest.mark.parametrize("passes", [1, 2])
def test_self_times_sum_to_span_durations(passes):
    per_pass = [_traced_pass() for _ in range(passes)]
    spans = T.joined(per_pass)
    assert len(spans) == sum(len(p) for p in per_pass)
    # each joined span keeps the parent it had in its own pass
    originals = [(p, s) for p in per_pass for s in p]
    for s, (p, orig) in zip(spans, originals):
        want = p[orig.parent].name if orig.parent >= 0 else None
        assert (spans[s.parent].name if s.parent >= 0 else None) == want
        assert s.parent < 0 or spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end
    selfs = T.self_times(spans)
    assert all(s >= 0 for s in selfs)
    for i, s in enumerate(spans):
        subtree = [j for j in range(len(spans)) if _under(spans, j, i)]
        assert sum(selfs[j] for j in subtree) == s.end - s.start
    roots = [s for s in spans if s.parent < 0]
    assert len(roots) == 2 * passes
    assert T.covered_ns(spans) == sum(s.end - s.start for s in roots)


def _under(spans, j, i):
    while j >= 0:
        if j == i:
            return True
        j = spans[j].parent
    return False


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    from p1homotopy import homotopy, monoid, mpoly

    originals = (cli.validate, monoid.validate, homotopy.validate, mpoly.MPoly.__mul__)
    tracer = T.Tracer()
    with tracer.installed():
        assert cli.validate is monoid.validate is homotopy.validate
        assert cli.validate is not originals[0]
        req = W._maps_request(random.Random(2), "oplus", (1, 2), W.ZZ, None)
        assert_behaves(req, W.check_maps, tmp_path)
    assert (cli.validate, monoid.validate, homotopy.validate, mpoly.MPoly.__mul__) == originals
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "monoid.oplus", "monoid.bezout_pair", "resultants.res_bezout",
            "resultants.bareiss", "exprio.parse", "exprio.print"} <= names
    metrics = T.layer_metrics(tracer.spans)
    assert metrics["monoid.oplus.calls"][0] == 1
    assert metrics["monoid.bezout_pair_per_oplus"][0] == 2
    assert metrics["resultants.bareiss.ns_per_op.Z"][0] > 0


# ---------------------------------------------------------------------------
# machine-speed scaling


def test_speed_factor_uses_the_samples_around_a_time():
    speed = S.Speed()
    # a machine at the reference speed for 10 s, then twice as slow
    speed.at = [float(t) for t in range(20)]
    speed.ns = [S.REF_NS_PER_ITER] * 10 + [2 * S.REF_NS_PER_ITER] * 10
    assert speed.factor(2.5) == 1.0
    assert speed.factor(16.5) == 0.5
    assert speed.factor(-1.0) == 1.0 and speed.factor(99.0) == 0.5  # clamped at the ends
    assert speed.factor(9.5) == 0.5  # 3 of the 5 nearest samples are slow
    assert speed.factor() == 2 / 3  # median of all: 150 ns


def test_speed_samples_are_in_time_order():
    speed = S.Speed()
    for _ in range(3):
        speed.sample()
    assert speed.at == sorted(speed.at) and all(ns > 0 for ns in speed.ns)


# ---------------------------------------------------------------------------
# the runner against BENCHMARK.json


def _declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc[kind]]


def test_per_layer_names_match_the_declaration():
    emitted = list(T.layer_metrics([])) + ["trace.overhead_frac", "trace.unattributed_frac", "calib_s"]
    assert sorted(emitted) == sorted(_declared("per_layer"))


def test_runner_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "plane",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "maps", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode not in (0, None)
    assert not proc.stdout.strip()
