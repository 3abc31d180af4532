"""Golden outputs of the CLI commands: every chain verifier, `res`, `validate`,
`bezout` and `oplus`.

Each case in golden/cases.json is one CLI invocation; its human stdout,
its --json stdout and its exit code are pinned byte for byte under
golden/expected/.  A case that exits 2 also pins its stderr, the one
`error:` line, in cases.json.  Argument paths starting with "inputs/" are
read from golden/inputs/.  The text of every chain command's case is also
rendered from its json golden and compared with its txt golden.

To re-capture after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from p1homotopy.cli import main
from p1homotopy.exprio import print_chain_report

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _invoke(argv):
    argv = [str(GOLDEN / a) if a.startswith("inputs/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _expected(case, suffix):
    return GOLDEN / "expected" / f"{case['name']}.{suffix}"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
@pytest.mark.parametrize("mode", ["txt", "json"])
def test_golden(case, mode):
    argv = case["argv"] + (["--json"] if mode == "json" else [])
    code, out, err = _invoke(argv)
    assert code == case["exit"]
    assert out == _expected(case, mode).read_text(encoding="utf-8")
    if "stderr" in case:
        assert err == case["stderr"]


# the chain commands' cases; one that exits 2 prints no document
REPORTS = [c for c in CASES if c["argv"][0].startswith("verify-") and c["exit"] != 2]


@pytest.mark.parametrize("case", REPORTS, ids=[c["name"] for c in REPORTS])
def test_the_text_is_rendered_from_the_json(case):
    doc = json.loads(_expected(case, "json").read_text(encoding="utf-8"))
    assert print_chain_report(doc) + "\n" == _expected(case, "txt").read_text(encoding="utf-8")


def capture():
    (GOLDEN / "expected").mkdir(exist_ok=True)
    for case in CASES:
        code, out, err = _invoke(case["argv"])
        json_code, json_out, json_err = _invoke(case["argv"] + ["--json"])
        assert (code, err) == (json_code, json_err), case["name"]
        case["exit"] = code
        if code == 2:
            case["stderr"] = err
        _expected(case, "txt").write_text(out, encoding="utf-8")
        _expected(case, "json").write_text(json_out, encoding="utf-8")
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(capture())
