"""The benchmark tracer's view of the package.

`perfbench/tracing.py` wraps engine functions by module and attribute name,
so renaming one in `src/` would silently drop its spans.  These checks load
the tracer by path (reading it only) and pin the names and span counts the
benchmark's per-layer metrics rely on.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

import p1homotopy.cli  # noqa: F401  (the tracer patches every target module)
from p1homotopy.exprio import parse_poly
from p1homotopy.resultants import res_bezout, resultant
from p1homotopy.rings import ZZ

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    name = "_perfbench_tracing"
    module = types.ModuleType(name)
    module.__file__ = str(TRACING)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
        yield module
    finally:
        del sys.modules[name]


def test_every_target_resolves(tracing):
    for span, (modname, path) in tracing.TARGETS.items():
        owner = importlib.import_module(modname)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), span


def bareiss_spans(tracing, call):
    """The `resultants.bareiss` span infos recorded while `call` runs."""
    with tracing.Tracer().installed() as tracer:
        call()
    return [s.info for s in tracer.spans if s.name == "resultants.bareiss"]


def test_resultant_records_one_bareiss_span(tracing):
    f, g = parse_poly("X^2 - X + 1", ("X",), ZZ), parse_poly("X - 1", ("X",), ZZ)
    assert bareiss_spans(tracing, lambda: resultant(f, g)) == [(3, "Z")]


def test_resultant_tpoly_records_one_bareiss_span(tracing):
    F = parse_poly("X^2", ("X", "T"), ZZ)
    G = parse_poly("T*X + 1", ("X", "T"), ZZ)
    with tracing.Tracer().installed() as tracer:
        resultant(F, G)
    assert [s.name for s in tracer.spans if s.name == "resultants.tpoly"] == ["resultants.tpoly"]
    assert [s.info for s in tracer.spans if s.name == "resultants.bareiss"] == [(3, "ZT")]


def test_res_bezout_records_no_bareiss_span(tracing):
    f, g = parse_poly("X^2 - X + 1", ("X",), ZZ), parse_poly("X - 1", ("X",), ZZ)
    assert bareiss_spans(tracing, lambda: res_bezout(f, g)) == []
