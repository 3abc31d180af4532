"""Set-up probe: import p1homotopy.cli and serve one request in a fresh process.

Usage: python3 setup_probe.py SRC_DIR ARGV_JSON
Prints {"setup_s": ..., "code": ..., "ns_per_iter": ...}.  Nothing but sys
and time is imported before the clock starts, so the program's own imports
count in full.  The calibration loop of speed.py runs right after, in the
same process, to give the machine's speed at the moment of the probe.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from p1homotopy import cli  # noqa: E402

import io  # noqa: E402  (already loaded by the interpreter)
import json  # noqa: E402  (already loaded by p1homotopy.cli)

argv = json.loads(sys.argv[2])
real_stdout, sys.stdout = sys.stdout, io.StringIO()
try:
    code = cli.main(argv)
finally:
    sys.stdout = real_stdout
setup_s = time.perf_counter() - t0

import statistics  # noqa: E402

import speed  # noqa: E402

ns = statistics.median(speed.ns_per_iter() for _ in range(3))
print(json.dumps({"setup_s": setup_s, "code": code, "ns_per_iter": ns}))
