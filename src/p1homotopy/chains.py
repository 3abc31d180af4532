"""Chains of every kind of certified family, and their verification.

A chain is a sequence of links, each a family traversed forward or reversed,
that should lead from one given end to another.  A kind (homotopy
certificates, projective-linear families, punctured-plane families) supplies
how one link is certified and how two ends are compared; walk_chain gives
every link, junction and end a verdict and orders the failures.
"""

from __future__ import annotations

from dataclasses import dataclass

FORWARD = "forward"
REVERSED = "reversed"
ORIENTATIONS = (FORWARD, REVERSED)


@dataclass(frozen=True)
class Link:
    """One family and the direction it is traversed in.  A homotopy link's
    family is the pair (F, G); proof is a plane link's supplied membership
    certificate (searched for when None) and None for every other kind."""

    family: object
    orientation: str
    proof: object = None

    def __post_init__(self):
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"orientation must be one of {ORIENTATIONS}")


@dataclass(frozen=True)
class Chain:
    """Links are stored unvalidated so verification can report defects; the
    ends are in the kind's end form (a homotopy end is a map pair (f, g))."""

    links: tuple
    from_: object
    to: object


def exact(a, b):
    """The match of kinds whose ends must be equal; no unit relates them."""
    return a == b, None


@dataclass
class LinkReport:
    """start/end are oriented and None when the link has no endpoints; fields
    holds the kind's link facts by name ({"res"} or {"error"}; {"det",
    "basepoint_ok"}; {"cert"} or {"note"}), which exprio writes into the
    link's entry of the report's document."""

    index: int
    ok: bool
    fields: dict
    start: object = None
    end: object = None


@dataclass
class JunctionReport:
    index: int  # junction between links index and index+1 (1-based)
    ok: bool
    unit: int | None = None

    @property
    def label(self) -> str:
        return f"{self.index}/{self.index + 1}"


@dataclass
class ChainReport:
    kind: str
    links: list
    junctions: list
    from_ok: bool
    to_ok: bool
    failures: list  # in walk order

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def first_failure(self) -> str | None:
        return self.failures[0] if self.failures else None


def walk_chain(kind, links, certified, match, from_, to, end_failure=None) -> ChainReport:
    """Take every link's certification, then check the junctions and both ends.

    certified holds one (reasons, ends, fields) per link, in order (a lazy
    map of the kind's certify serves): why the link fails (empty
    when it holds), its (T = 0, T = 1) endpoints or None, and the kind's
    link facts as a {field: value} dict, the LinkReport's fields.
    match(a, b) returns (ok, unit), unit being None for exact kinds.
    end_failure says why from_/to are unusable; it is reported first and the
    ends are not compared.  An empty chain compares from_ with to.

    Verification never stops early.  Failures are listed in walk order; a
    link without endpoints reports only its own reasons, not the junction
    or end mismatches that follow from them.
    """
    reports, junctions, failures = [], [], []
    for i, (link, (reasons, ends, fields)) in enumerate(zip(links, certified), start=1):
        start, end = (None, None) if ends is None else ends
        if link.orientation == REVERSED:
            start, end = end, start
        if reports:
            left = reports[-1]
            comparable = left.end is not None and start is not None
            ok, unit = match(left.end, start) if comparable else (False, None)
            junctions.append(JunctionReport(left.index, ok, unit))
            if comparable and not ok:
                failures.append(f"junction {junctions[-1].label}")
        reports.append(LinkReport(i, not reasons, fields, start, end))
        failures += [f"link {i}: {r}" for r in reasons]
    head = reports[0].start if reports else to
    tail = reports[-1].end if reports else from_
    from_ok = to_ok = False
    if end_failure is not None:
        failures.insert(0, end_failure)
    else:
        if head is not None:
            from_ok = match(head, from_)[0]
            if not from_ok:
                failures.insert(0, "from mismatch")
        if tail is not None:
            to_ok = match(tail, to)[0]
            if not to_ok:
                failures.append("to mismatch")
    return ChainReport(kind, reports, junctions, from_ok, to_ok, failures)
