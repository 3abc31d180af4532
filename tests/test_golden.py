"""The end-to-end contract: golden outputs of every CLI command, replayed in
process.

The contract ships in the package, under src/p1homotopy/contract/.  Each
case in cases.json is one CLI invocation; its human stdout, its --json
stdout and its exit code are pinned byte for byte under expected/, and a
case that exits 2 also pins its stderr, the one `error:` line, in
cases.json.  Argument paths starting with "inputs/" are read from inputs/.
`p1homotopy.selftest.replay` compares one case; `selftest` replays the
same cases, and so does tests/replay_console.py through the installed
console script.  The text of every chain command's case is also rendered
from its json golden and compared with its txt golden.

To re-capture after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py``: it writes every expected
output and cases.json into src/p1homotopy/contract/.  Review the diff.
"""

import json
import sys
from importlib.resources import files

import pytest

from p1homotopy.exprio import print_chain_report
from p1homotopy.selftest import contract_argv, contract_cases, invoke_in_process, replay

CASES = contract_cases()
CONTRACT = files("p1homotopy") / "contract"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
@pytest.mark.parametrize("mode", ["txt", "json"])
def test_golden(case, mode):
    assert replay(case, invoke_in_process, modes=(mode,)) is None


def test_replay_returns_the_first_mismatch():
    case = next(c for c in CASES if c["name"] == "res_nf_below_degree")
    err = case["stderr"]
    assert replay(case, lambda argv: (2, "", err)) is None
    assert replay(case, lambda argv: (1, "", err)) == "txt: exit 1, expected 2"
    assert replay(case, lambda argv: (2, "1\n", err)) == "txt: stdout line 1 is '1\\n', expected ''"
    assert replay(case, lambda argv: (2, "", "")) == f"txt: stderr '', expected {err!r}"

    def wrong_json(argv):
        return 2, "{}" if "--json" in argv else "", err

    assert replay(case, wrong_json) == "json: stdout line 1 is '{}', expected ''"


def _expected(case, suffix):
    return CONTRACT / "expected" / f"{case['name']}.{suffix}"


# the chain commands' cases; one that exits 2 prints no document
REPORTS = [c for c in CASES if c["argv"][0].startswith("verify-") and c["exit"] != 2]


@pytest.mark.parametrize("case", REPORTS, ids=[c["name"] for c in REPORTS])
def test_the_text_is_rendered_from_the_json(case):
    doc = json.loads(_expected(case, "json").read_text(encoding="utf-8"))
    assert print_chain_report(doc) + "\n" == _expected(case, "txt").read_text(encoding="utf-8")


def test_every_contract_file_is_a_case_or_an_input():
    # every input and expected output of each case ships in the package,
    # and the package holds no file that no case reads
    assert len({c["name"] for c in CASES}) == len(CASES)
    needed = {"cases.json"}
    for case in CASES:
        needed |= {a for a in case["argv"] if a.startswith("inputs/")}
        needed |= {f"expected/{case['name']}.{mode}" for mode in ("txt", "json")}
    shipped = {p.relative_to(CONTRACT).as_posix() for p in CONTRACT.rglob("*") if p.is_file()}
    assert shipped == needed


def capture():
    """Run every case in both modes and write its outputs into the package."""
    for case in CASES:
        argv = contract_argv(case["argv"])
        code, out, err = invoke_in_process(argv)
        json_code, json_out, json_err = invoke_in_process(argv + ["--json"])
        assert (code, err) == (json_code, json_err), case["name"]
        case["exit"] = code
        if code == 2:
            case["stderr"] = err
        _expected(case, "txt").write_text(out, encoding="utf-8")
        _expected(case, "json").write_text(json_out, encoding="utf-8")
    (CONTRACT / "cases.json").write_text(json.dumps(CASES, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(capture())
