"""The checks behind `p1homotopy selftest`: the seeded law suites (resultant,
monoid, I/O) and the replay of the end-to-end contract, the package directory
`contract/` (its cases are CLI invocations, pinned byte for byte).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from itertools import zip_longest

from .properties import IO_LAWS, MONOID_LAWS, RESULTANT_LAWS, run_property


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" - {self.detail}" if self.detail else ""
        return f"{status} {self.name}{tail}"


def _contract_file(path: str):
    """A file of the contract, looked up per call: importing the CLI reads
    nothing of the contract."""
    from importlib.resources import files

    return files(__package__).joinpath("contract", path)


def contract_cases() -> list:
    return json.loads(_contract_file("cases.json").read_text(encoding="utf-8"))


def contract_argv(argv) -> list:
    """argv with each argument "inputs/<file>" resolved to that contract file."""
    return [str(_contract_file(a)) if a.startswith("inputs/") else a for a in argv]


def replay(case, invoke, modes=("txt", "json")) -> str | None:
    """Run one case through invoke(argv) -> (exit, stdout, stderr) in each
    mode and return its first mismatch, or None."""
    argv = contract_argv(case["argv"])
    for mode in modes:
        code, out, err = invoke(argv + ["--json"] * (mode == "json"))
        want = _contract_file(f"expected/{case['name']}.{mode}").read_text(encoding="utf-8")
        if code != case["exit"]:
            return f"{mode}: exit {code}, expected {case['exit']}"
        if out != want:
            # with their ends kept, two different texts differ in some line
            lines = zip_longest(out.splitlines(True), want.splitlines(True), fillvalue="")
            k, a, b = next((k, a, b) for k, (a, b) in enumerate(lines, 1) if a != b)
            return f"{mode}: stdout line {k} is {a!r}, expected {b!r}"
        if err != case.get("stderr", err):
            return f"{mode}: stderr {err!r}, expected {case['stderr']!r}"
    return None


def invoke_in_process(argv):
    from .cli import main  # cli imports this module

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_suite(name, laws, trials, seed) -> CheckResult:
    for law in laws:
        result = run_property(law, trials, seed)
        if not result.passed:
            return CheckResult(name, False, f"{law} failed: {json.dumps(result.counterexample)}")
    return CheckResult(name, True, f"{len(laws)} laws x {trials} trials")


def check_resultant_law_suite(seed, trials) -> CheckResult:
    return _run_suite("resultant_law_suite", RESULTANT_LAWS, trials, seed)


def check_monoid_law_suite(seed, trials) -> CheckResult:
    # the monoid laws cost far more per trial than the resultant laws
    return _run_suite("monoid_law_suite", MONOID_LAWS, max(1, trials * 3 // 10), seed)


def check_io_law_suite(seed, trials) -> CheckResult:
    return _run_suite("io_law_suite", IO_LAWS, trials, seed)


LAW_SUITES = (check_resultant_law_suite, check_monoid_law_suite, check_io_law_suite)


def check_contract(seed, trials) -> CheckResult:
    """Every contract case but the selftest's own, through the CLI."""
    cases = [c for c in contract_cases() if c["argv"][0] != "selftest"]
    failed = [(c["name"], m) for c in cases if (m := replay(c, invoke_in_process))]
    if failed:
        detail = f"cases differ: {', '.join(n for n, _ in failed)}; first: {failed[0][1]}"
        return CheckResult("contract", False, detail)
    return CheckResult("contract", True, "every case replayed through the CLI")


CHECKS = (*LAW_SUITES, check_contract)


def _run_check(check, seed, trials) -> CheckResult:
    try:
        return check(seed, trials)
    except Exception as exc:  # a FAIL line; the other checks still report
        return CheckResult(check.__name__.removeprefix("check_"), False, f"{type(exc).__name__}: {exc}")


def run_all(seed: int = 7, trials: int = 1000):
    """Run every acceptance check; returns the list of CheckResults."""
    return [_run_check(check, seed, trials) for check in CHECKS]
