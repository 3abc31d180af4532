"""Golden outputs of the chain verifiers.

Each case in golden/cases.json is one CLI invocation; its human stdout,
its --json stdout and its exit code are pinned byte for byte under
golden/expected/.  Argument paths starting with "inputs/" are read from
golden/inputs/.

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

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def _invoke(argv):
    argv = [str(GOLDEN / a) if a.startswith("inputs/") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _expected(case, suffix):
    return GOLDEN / "expected" / f"{case['name']}.{suffix}"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
@pytest.mark.parametrize("mode", ["txt", "json"])
def test_golden(case, mode):
    argv = case["argv"] + (["--json"] if mode == "json" else [])
    code, out = _invoke(argv)
    assert code == case["exit"]
    assert out == _expected(case, mode).read_text(encoding="utf-8")


def capture():
    (GOLDEN / "expected").mkdir(exist_ok=True)
    for case in CASES:
        code, out = _invoke(case["argv"])
        json_code, json_out = _invoke(case["argv"] + ["--json"])
        assert code == json_code, case["name"]
        case["exit"] = code
        _expected(case, "txt").write_text(out, encoding="utf-8")
        _expected(case, "json").write_text(json_out, encoding="utf-8")
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(capture())
