"""Replay every contract case through the installed `p1homotopy` console
script, each run under one time bound, and exit 1 if any case differs.

Run it against an installed package, not the source tree, so that a
contract file missing from the package data fails it:

    pip install . && python tests/replay_console.py
"""

import subprocess
import sys

from p1homotopy.selftest import contract_cases, replay

TIMEOUT_S = 5


def invoke(argv):
    done = subprocess.run(["p1homotopy", *argv], capture_output=True, encoding="utf-8", timeout=TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    cases, failed = contract_cases(), 0
    for case in cases:
        try:
            mismatch = replay(case, invoke)
        except subprocess.TimeoutExpired:
            mismatch = f"took more than {TIMEOUT_S} s"
        except OSError as exc:  # the script or an expected output is missing
            mismatch = f"{type(exc).__name__}: {exc}"
        if mismatch:
            failed += 1
            print(f"FAIL {case['name']}: {mismatch}")
    print(f"{len(cases) - failed}/{len(cases)} contract cases replayed through the console script")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
