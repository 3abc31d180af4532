"""The acceptance suite: every check the CLI selftest and the test suite run.

All checks are exact (tolerance zero).  Each returns a CheckResult; the CLI
prints one line per check and exits nonzero if any fails.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass

from . import exprio
from .chains import FORWARD, Chain, Link
from .exprio import BUILTIN_CHAINS, builtin_chain
from .homotopy import CertResultantNotUnitError, validate_cert, verify_chain
from .monoid import (
    ResultantNotUnitError,
    bezout_pair,
    homogenize,
    mat_mul,
    named,
    oplus,
    validate,
)
from .plane import verify_plane_chain
from .poly import Poly
from .projlinear import (
    Mat2,
    MatrixFamily,
    det_family,
    endpoint_matrix,
    image_of_infinity_in_open,
    projective_unit,
    verify_matrix_chain,
)
from .properties import IO_LAWS, MONOID_LAWS, RESULTANT_LAWS, run_property
from .resultants import resultant_oracle
from .rings import QQ, ZZ


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" - {self.detail}" if self.detail else ""
        return f"{status} {self.name}{tail}"


def _parse(text, variables, ring=ZZ):
    return exprio.parse_poly(text, variables, ring)


def _fail(name, detail):
    return CheckResult(name, False, detail)


def check_monoid_sum_reproduction(seed, trials) -> CheckResult:
    name = "monoid_sum_reproduction"
    u = named("identity")
    v = named("minus_epsilon")
    s = oplus(u, v)
    expected_f = _parse("X^2 - X + 1", ("X",))
    expected_g = _parse("X - 1", ("X",))
    if s.f != expected_f or s.g != expected_g:
        return _fail(name, f"sum is {s}, expected (X^2 - X + 1)/(X - 1)")
    mu = bezout_pair(u).matrix()
    mv = bezout_pair(v).matrix()
    prod = mat_mul(mu, mv)
    x = Poly.x(ZZ, "X")
    one = Poly.one(ZZ, "X")
    expected_mu = ((x, -one), (one, Poly.zero(ZZ, "X")))
    expected_mv = ((x - one, one), (-one, Poly.zero(ZZ, "X")))
    expected_prod = ((expected_f, x), (expected_g, one))
    for got, want, label in ((mu, expected_mu, "matrix of X/1"),
                             (mv, expected_mv, "matrix of (X-1)/(-1)"),
                             (prod, expected_prod, "matrix product")):
        for i in range(2):
            for j in range(2):
                if got[i][j] != want[i][j]:
                    return _fail(name, f"{label} entry ({i},{j}) is {got[i][j]}")
    ms = bezout_pair(validate(s.f, s.g)).matrix()  # s itself carries the product
    if ms != prod:
        return _fail(name, "witness matrix of the sum differs from the product")
    return CheckResult(name, True, "X/1 + (X-1)/(-1) = (X^2 - X + 1)/(X - 1)")


def check_builtin_cert_chain(seed, trials) -> CheckResult:
    name = "builtin_cert_chain"
    chain = builtin_chain("homotopy", "prop_3_4_3")
    report = verify_chain(chain)
    if not report.passed:
        return _fail(name, f"chain failed at {report.first_failure}")
    one_t = Poly.one(ZZ, "T")
    for link, lr in zip(chain.links, report.links):
        cert = validate_cert(*link.family, ZZ)
        oracle = resultant_oracle(cert.F, cert.G, cert.n, cert.n)
        if cert.res != one_t or oracle != one_t:
            return _fail(
                name,
                f"link {lr.index} resultant: bareiss {cert.res}, cofactor {oracle}",
            )
    return CheckResult(name, True, "4 certificates, all resultants 1, junctions exact")


def check_builtin_matrix_chain(seed, trials) -> CheckResult:
    name = "builtin_matrix_chain"
    chain = builtin_chain("matrix", "prop_3_4_2")
    h1 = chain.links[0].family
    h2 = chain.links[1].family
    one_t = Poly.one(ZZ, "T")
    for label, fam in (("H1", h1), ("H2", h2)):
        if det_family(fam) != one_t:
            return _fail(name, f"{label} determinant is {det_family(fam)}")
        if not image_of_infinity_in_open(fam):
            return _fail(name, f"{label} does not keep infinity in the T1-chart")
    if endpoint_matrix(h1, 1) != Mat2(1, -1, 1, 0):
        return _fail(name, f"H1 at T=1 is {endpoint_matrix(h1, 1)}")
    if endpoint_matrix(h2, 1) != Mat2(0, 1, -1, 1):
        return _fail(name, f"H2 at T=1 is {endpoint_matrix(h2, 1)}")
    u = projective_unit(endpoint_matrix(h1, 0), endpoint_matrix(h2, 0))
    if u != -1:
        return _fail(name, f"junction unit is {u}, expected -1")
    report = verify_matrix_chain(chain)
    if not report.passed:
        return _fail(name, f"chain failed at {report.first_failure}")
    return CheckResult(name, True, "dets 1, base point kept, junction unit -1")


def check_builtin_plane_chain(seed, trials) -> CheckResult:
    name = "builtin_plane_chain"
    chain = builtin_chain("plane", "prop_3_4_5")
    orientations = tuple(link.orientation[0].upper() for link in chain.links)
    if orientations != ("F", "R", "R", "F", "R", "R"):
        return _fail(name, f"orientations are {orientations}")
    if chain.from_ != (
        _parse("T0^2", ("T0", "T1")),
        _parse("T1", ("T0", "T1")),
    ) or chain.to != (
        _parse("T0", ("T0", "T1")),
        _parse("T1^2", ("T0", "T1")),
    ):
        return _fail(name, "end pairs are not (T0^2, T1) and (T0, T1^2)")
    report = verify_plane_chain(chain, n_max=2, d_max=4)
    if not report.passed:
        return _fail(name, f"chain failed at {report.first_failure}")
    for lr in report.links:
        cert = lr.fields["cert"]
        if cert.N > 2 or cert.coefficient_degree() > 4:
            return _fail(
                name,
                f"link {lr.index} certificate has N={cert.N}, "
                f"degree {cert.coefficient_degree()}",
            )
    return CheckResult(name, True, "6 certificates found with N <= 2, degree <= 4")


def check_homogenization(seed, trials) -> CheckResult:
    name = "homogenization"
    vars = ("T0", "T1")
    f0, f1 = homogenize(named("squaring"))
    if f0 != _parse("T0^2", vars) or f1 != _parse("T1^2", vars):
        return _fail(name, f"squaring homogenizes to ({f0}, {f1})")
    g0, g1 = homogenize(named("minus_epsilon"))
    if g0 != _parse("T0 - T1", vars) or g1 != _parse("-T1", vars):
        return _fail(name, f"minus_epsilon homogenizes to ({g0}, {g1})")
    return CheckResult(name, True, "squaring -> (T0^2, T1^2); minus_epsilon -> (T0 - T1, -T1)")


def _run_suite(name, laws, trials, seed) -> CheckResult:
    for law in laws:
        result = run_property(law, trials, seed)
        if not result.passed:
            return _fail(name, f"{law} failed: {json.dumps(result.counterexample)}")
    return CheckResult(name, True, f"{len(laws)} laws x {trials} trials")


def check_resultant_laws(seed, trials) -> CheckResult:
    return _run_suite("resultant_law_suite", RESULTANT_LAWS, trials, seed)


def check_monoid_laws(seed, trials) -> CheckResult:
    # the monoid laws cost far more per trial than the resultant laws
    return _run_suite("monoid_law_suite", MONOID_LAWS, max(1, trials * 3 // 10), seed)


def check_negative_controls(seed, trials) -> CheckResult:
    name = "negative_controls"
    x2 = _parse("X^2", ("X",))
    two = _parse("2", ("X",))
    try:
        validate(x2, two, ZZ)
        return _fail(name, "(X^2, 2) accepted over Z")
    except ResultantNotUnitError as exc:
        if str(exc.res) != "4":
            return _fail(name, f"(X^2, 2) rejected with resultant {exc.res}, expected 4")
    x2q = _parse("X^2", ("X",), QQ)
    twoq = _parse("2", ("X",), QQ)
    try:
        validate(x2q, twoq, QQ)
    except ResultantNotUnitError:
        return _fail(name, "(X^2, 2) rejected over Q")
    t2 = _parse("T^2", ("T",))
    try:
        validate_cert(_parse("X^2", ("X", "T")), _parse("X + T", ("X", "T")), ZZ)
        return _fail(name, "certificate X^2/(X+T) accepted")
    except CertResultantNotUnitError as exc:
        if exc.res not in (t2, -t2):
            return _fail(name, f"X^2/(X+T) rejected with resultant {exc.res}, expected +-T^2")
    chain = builtin_chain("homotopy", "prop_3_4_3")
    flipped = chain.links[:2] + (Link(chain.links[2].family, FORWARD),) + chain.links[3:]
    report = verify_chain(Chain(flipped, chain.from_, chain.to))
    if report.passed or report.first_failure != "junction 2/3":
        return _fail(name, f"orientation flip failed at {report.first_failure!r}, expected junction 2/3")
    mchain = builtin_chain("matrix", "prop_3_4_2")
    t = Poly.x(ZZ, "T")
    two_t = t + t
    perturbed = MatrixFamily(Poly.zero(ZZ, "T"), Poly.one(ZZ, "T"), -Poly.one(ZZ, "T"), two_t)
    links = (mchain.links[0], Link(perturbed, mchain.links[1].orientation))
    mutated = Chain(links, mchain.from_, mchain.to)
    mreport = verify_matrix_chain(mutated)
    if mreport.passed or "to mismatch" not in (mreport.first_failure or ""):
        return _fail(name, f"matrix perturbation failed at {mreport.first_failure!r}, expected to mismatch")
    pchain = builtin_chain("plane", "prop_3_4_5")
    plinks = (pchain.links[0], Link(pchain.links[1].family, FORWARD)) + pchain.links[2:]
    preport = verify_plane_chain(Chain(plinks, pchain.from_, pchain.to), n_max=2, d_max=4)
    if preport.passed or preport.first_failure != "junction 1/2":
        return _fail(name, f"plane flip failed at {preport.first_failure!r}, expected junction 1/2")
    return CheckResult(name, True, "all five controls rejected at the expected spot")


def check_io_and_cli(seed, trials) -> CheckResult:
    name = "io_roundtrip_and_cli"
    laws = _run_suite(name, IO_LAWS, trials, seed)
    if not laws.passed:
        return laws
    for kind, docs in BUILTIN_CHAINS.items():
        for builtin in docs:
            chain = builtin_chain(kind, builtin)
            blob = json.dumps(exprio.chain_to_json(chain, kind))
            if exprio.chain_from_json(exprio.loads(blob), kind) != chain:
                return _fail(name, f"builtin {kind} chain does not round-trip through JSON")
    from .cli import main

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = main(argv)
        return code, buf.getvalue()

    code, out = run(["oplus", "X/1", "(X-1)/(-1)"])
    if code != 0 or "(X^2 - X + 1)/(X - 1)" not in out:
        return _fail(name, f"oplus exit {code}, output {out!r}")
    code, _ = run(["verify-chain", "--builtin", "prop_3_4_3"])
    if code != 0:
        return _fail(name, f"verify-chain builtin exited {code}")
    code, _ = run(["verify-matrix-chain", "--builtin", "prop_3_4_2"])
    if code != 0:
        return _fail(name, f"verify-matrix-chain builtin exited {code}")
    code, _ = run(["verify-plane-chain", "--builtin", "prop_3_4_5", "--nmax", "2", "--dmax", "4"])
    if code != 0:
        return _fail(name, f"verify-plane-chain builtin exited {code}")
    code, _ = run(["validate", "X^2/2", "--ring", "z"])
    if code != 1:
        return _fail(name, f"validate X^2/2 over Z exited {code}, expected 1")
    code, _ = run(["validate", "X^2/2", "--ring", "q"])
    if code != 0:
        return _fail(name, f"validate X^2/2 over Q exited {code}, expected 0")
    code, _ = run(["validate", "X^2/((", "--ring", "z"])
    if code != 2:
        return _fail(name, f"parse error exited {code}, expected 2")
    code, _ = run(["res", "X^2", "W"])
    if code != 2:
        return _fail(name, f"undeclared variable exited {code}, expected 2")
    return CheckResult(name, True, f"round-trips x {trials}, CLI exit codes 0/1/2")


CHECKS = (
    check_monoid_sum_reproduction,
    check_builtin_cert_chain,
    check_builtin_matrix_chain,
    check_builtin_plane_chain,
    check_homogenization,
    check_resultant_laws,
    check_monoid_laws,
    check_negative_controls,
    check_io_and_cli,
)


def _run_check(check, seed, trials) -> CheckResult:
    try:
        return check(seed, trials)
    except Exception as exc:
        return _fail(check.__name__.removeprefix("check_"), f"{type(exc).__name__}: {exc}")


def run_all(seed: int = 7, trials: int = 1000):
    """Run every acceptance check; returns the list of CheckResults.  A check
    that raises is a FAIL, so the other checks still report."""
    return [_run_check(check, seed, trials) for check in CHECKS]
