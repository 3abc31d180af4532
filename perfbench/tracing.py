"""Span tracer that wraps the program's layer functions from outside.

`Tracer.installed()` replaces each traced function in every p1homotopy
module namespace that binds it (modules import with `from .x import y`, so
one name can live in several namespaces) and on its class for methods, and
restores every original on exit.  Untraced runs therefore execute the
program unpatched.

`rings` and `poly` get no spans: they are called millions of times per
request.  Their cost shows as the self time of the leaf spans, normalised
per computed operation (`resultants.bareiss.ns_per_op.*`).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field, replace

# span name -> (module, attribute path)
TARGETS = {
    "cli.main": ("p1homotopy.cli", "main"),
    "exprio.parse": ("p1homotopy.exprio", "parse_poly"),
    "exprio.print": ("p1homotopy.exprio", "print_poly"),
    "monoid.validate": ("p1homotopy.monoid", "validate"),
    "monoid.bezout_pair": ("p1homotopy.monoid", "bezout_pair"),
    "monoid.oplus": ("p1homotopy.monoid", "oplus"),
    "resultants.bareiss": ("p1homotopy.resultants", "bareiss_det"),
    "resultants.res_bezout": ("p1homotopy.resultants", "res_bezout"),
    "resultants.tpoly": ("p1homotopy.resultants", "resultant_tpoly"),
    "homotopy.validate_cert": ("p1homotopy.homotopy", "validate_cert"),
    "homotopy.endpoint": ("p1homotopy.homotopy", "endpoint"),
    "homotopy.verify_chain": ("p1homotopy.homotopy", "verify_chain"),
    "projlinear.verify_matrix_chain": ("p1homotopy.projlinear", "verify_matrix_chain"),
    "mpoly.mul": ("p1homotopy.mpoly", "MPoly.__mul__"),
    "mpoly.subst": ("p1homotopy.mpoly", "MPoly.subst"),
    "plane.find_membership": ("p1homotopy.plane", "find_membership"),
    "plane.verify_membership": ("p1homotopy.plane", "verify_membership"),
    "plane.verify_plane_chain": ("p1homotopy.plane", "verify_plane_chain"),
    "linsolve.feasible_mod_p": ("p1homotopy.linsolve", "feasible_mod_p"),
    "linsolve.echelon": ("p1homotopy.linsolve", "_echelon_transposed"),
    "linsolve.solve": ("p1homotopy.linsolve", "IntegerSolver.solve"),
}


def _domain(one) -> str:
    """Z, Q, Fp for scalar Bareiss; ZT for Bareiss over Z[T] (read from `one`)."""
    if hasattr(one, "coeffs"):
        return one.ring.kind + "T"
    return one.ring.kind


def _info(name: str, args, result):
    """Counts recorded at the span boundary, per layer."""
    if name == "resultants.bareiss":
        return (len(args[0]), _domain(args[1]))
    if name == "linsolve.feasible_mod_p":
        return not all(result)  # pruned
    if name == "linsolve.echelon":
        return args[1]  # columns
    if name == "linsolve.solve":
        return result is not None  # hit
    return None


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Tracer.spans, -1 for a root
    request: int
    info: object = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    request: int = -1
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0, stack[-1] if stack else -1, self.request)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            span.info = _info(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        undo = []
        try:
            for name, (modname, path) in TARGETS.items():
                owner = sys.modules[modname]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original)
                if outer:  # a method: patch the class
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, original))
                    continue
                for mod in list(sys.modules.values()):
                    modname_ = getattr(mod, "__name__", "")
                    if modname_ != "p1homotopy" and not modname_.startswith("p1homotopy."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def joined(passes) -> list:
    """The span lists of several traced passes as one list, with each parent
    index moved to point into the joined list."""
    out = []
    for spans in passes:
        base = len(out)
        out += [replace(s, parent=s.parent + base) if s.parent >= 0 else s
                for s in spans]
    return out


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children, in ns."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def entry_ops(size: int) -> int:
    """Bareiss inner-loop entry updates of a size x size determinant
    (computed, not counted): sum over pivots k of (size-1-k)^2."""
    return (size - 1) * size * (2 * size - 1) // 6


def layer_metrics(spans, passes: int = 1) -> dict:
    """Per-layer metrics from one or more identical traced passes.

    Counts are per pass (they repeat exactly); times are seconds per pass.
    Layers a workload never reaches report zero.
    """
    selfs = self_times(spans)
    calls = {name: 0 for name in TARGETS}
    self_ns = {name: 0 for name in TARGETS}
    ops = {d: 0 for d in ("Z", "Q", "Fp", "ZT")}
    ops_ns = dict.fromkeys(ops, 0)
    max_size = max_cols = pruned = hits = 0
    bareiss_in_bezout = pairs_in_oplus = 0
    for s, own in zip(spans, selfs):
        calls[s.name] += 1
        self_ns[s.name] += own
        if s.info is None and s.name != "monoid.bezout_pair":
            continue  # raised, or a layer without counts
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.name == "resultants.bareiss":
            size, domain = s.info
            ops[domain] = ops.get(domain, 0) + entry_ops(size)
            ops_ns[domain] = ops_ns.get(domain, 0) + own
            max_size = max(max_size, size)
            bareiss_in_bezout += parent == "resultants.res_bezout"
        elif s.name == "monoid.bezout_pair":
            pairs_in_oplus += parent == "monoid.oplus"
        elif s.name == "linsolve.feasible_mod_p":
            pruned += s.info
        elif s.name == "linsolve.echelon":
            max_cols = max(max_cols, s.info)
        elif s.name == "linsolve.solve":
            hits += s.info

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for name in TARGETS:
        put(f"{name}.calls", calls[name] // passes, "count")
        put(f"{name}.self_s", self_ns[name] / 1e9 / passes, "s")
    for name in ("cli.main", "homotopy.verify_chain"):
        del out[f"{name}.calls"]
    put("resultants.bareiss.entry_ops", sum(ops.values()) // passes, "count")
    put("resultants.bareiss.max_size", max_size, "count")
    for domain in ("Z", "Q", "Fp", "ZT"):
        put(f"resultants.bareiss.ns_per_op.{domain}", ratio(ops_ns[domain], ops[domain]), "ns/op")
    put("resultants.res_bezout.bareiss_per_call",
        ratio(bareiss_in_bezout, calls["resultants.res_bezout"]), "ratio")
    put("monoid.bezout_pair_per_oplus", ratio(pairs_in_oplus, calls["monoid.oplus"]), "ratio")
    put("linsolve.feasible_mod_p.prune_ratio", ratio(pruned, calls["linsolve.feasible_mod_p"]), "ratio")
    put("linsolve.echelon.max_cols", max_cols, "count")
    put("linsolve.solve.hit_ratio", ratio(hits, calls["linsolve.solve"]), "ratio")
    return out


def covered_ns(spans) -> int:
    """Wall time under some span: the summed duration of the root spans."""
    return sum(s.end - s.start for s in spans if s.parent < 0)
