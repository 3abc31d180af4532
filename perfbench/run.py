"""Benchmark of the p1homotopy CLI: one client, closed loop, in process.

    python3 perfbench/run.py --workload maps|chains|plane --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Inputs are generated from the seed before any timing; the program
receives only the generated files and argv.  Every request's exit code and
--json payload are checked against the outcome its input was built to have.

--trace 0 times requests for S seconds, unpatched, and reports the
end-to-end metrics.  --trace 1 runs a fixed, seed-determined request list
untraced and then traced, repeating the pair until S seconds have passed,
and reports the per-layer metrics per pass (counts repeat exactly at a
fixed seed), with the tracing overhead and the share of wall time under no
span.

A short calibration loop runs between requests (speed.py), and every
end-to-end time is reported at the speed of a reference machine: each
request's latency is scaled by the loop's speed around it, the timed phase
by its requests' factors and each set-up probe by the loop's speed in the
probe's process.  The times as measured are printed beside them.

Every metric is printed with its unit; the last line is one JSON object.
The exit code is 1 when any output is wrong, 2 when the program cannot be
loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed as S
import tracing as T
import workloads as W

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE / "config.json").read_text())
SETUP_PROBES = 20
TAIL_PERCENTILE = 95
CALIB_EVERY_S = 0.25  # least time between two calibration samples


def make_pool(workload: str, seed: int, rounds: int):
    rng = random.Random(f"{workload}:{seed}")
    return [req for _ in range(rounds) for req in W.ROUNDS[workload](rng)]


def check(workload: str, req, code, out: str, err: str) -> str | None:
    """None when the request behaved as built, else the reason."""
    if code != req.expect_code:
        return f"exit {code}, expected {req.expect_code}: {err.strip()[:200]}"
    try:
        payload = json.loads(out)
    except ValueError:
        return f"stdout is not JSON: {out[:200]!r}"
    try:
        return W.CHECKS[workload](req.expect, payload)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed payload ({exc!r}): {out[:200]!r}"


class Client:
    """Runs requests through cli.main with stdout and stderr captured."""

    def __init__(self, workload: str, pool, workdir: Path):
        from p1homotopy import cli

        self.cli = cli
        self.workload = workload
        self.argvs = []
        for i, req in enumerate(pool):
            path = workdir / f"{i}.json"
            if req.file is not None:
                path.write_text(req.file)
            self.argvs.append([str(path) if a == W.FILE else a for a in req.argv])
        self.pool = pool
        self.failures = []  # (request index, reason)

    def call(self, i: int):
        """One request; returns (latency_s, code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(self.argvs[i])  # looked up per call: tracing patches it
            except Exception:  # the program raised: a failed request, keep going
                code = None
                traceback.print_exc()
        return time.perf_counter() - t, code, out.getvalue(), err.getvalue()

    def run(self, indices, deadline=None, tracer=None, speed=None):
        """Run requests in order (until the deadline, if given), checking each
        output as soon as it arrives and then dropping it, so memory does not
        grow with the number of requests.  With a Speed, a calibration sample
        is taken before the first request and then at most every
        CALIB_EVERY_S.  Returns (latencies, wall seconds, midpoint of each
        request); the wall time leaves out the checking and the samples."""
        lat, mids = [], []
        excluded = 0.0
        last_sample = -math.inf
        start = time.perf_counter()
        for i in indices:
            if deadline is not None and lat and time.perf_counter() >= deadline:
                break
            if speed is not None and time.perf_counter() - last_sample >= CALIB_EVERY_S:
                last_sample = time.perf_counter()
                speed.sample()
                excluded += time.perf_counter() - last_sample
            if tracer is not None:
                tracer.request = i
            begun = time.perf_counter()
            t, code, out, err = self.call(i)
            lat.append(t)
            mids.append(begun + t / 2)
            c = time.perf_counter()
            reason = check(self.workload, self.pool[i], code, out, err)
            if reason:
                self.failures.append((i, reason))
            excluded += time.perf_counter() - c
        wall = time.perf_counter() - start - excluded
        if speed is not None:
            speed.sample()  # so the last requests have samples on both sides
        return lat, wall, mids


def setup_times(root: Path, workload: str, probes: int) -> tuple:
    """Times of import + one warm-up request, each in a fresh process, as
    measured and at the reference speed (from the probe's own calibration)."""
    argv = CONFIG["warmup_argv"][workload]
    # Bytecode is cached as for an installed program, whatever the caller's
    # environment says: the first probe writes src/**/__pycache__.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times, scaled = [], []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(root / "src"), json.dumps(argv)],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["code"] != 0:
            raise RuntimeError(f"warm-up request {argv} exited {result['code']}")
        times.append(result["setup_s"])
        scaled.append(result["setup_s"] * S.REF_NS_PER_ITER / result["ns_per_iter"])
    return times, scaled


def nearest_rank(sorted_values, pct: float):
    k = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def end_to_end(client: Client, root: Path, workload: str, seed: int, seconds: float, report):
    # Half the set-up probes run before the timed phase and half after it, so
    # they sample the machine at two moments.
    setup, setup_scaled = setup_times(root, workload, SETUP_PROBES // 2)
    n = len(client.pool)
    client.run(range(min(3, n)))  # warm-up: lazy imports and first-call costs
    client.failures.clear()
    speed = S.Speed()
    deadline = time.perf_counter() + seconds
    order = (i % n for i in range(10**9))  # cycles only if the pool runs out
    lat, wall, mids = client.run(order, deadline, speed=speed)
    more, more_scaled = setup_times(root, workload, SETUP_PROBES - SETUP_PROBES // 2)
    setup += more
    setup_scaled += more_scaled
    scaled = [t * speed.factor(m) for t, m in zip(lat, mids)]
    out = root / "perfbench" / "out"
    with open(out / f"requests-{workload}-seed{seed}.jsonl", "w") as fh:
        for i, (t, ts) in enumerate(zip(lat, scaled)):
            fh.write(json.dumps([i % n, client.pool[i % n].label, t, ts]) + "\n")
    tail, beyond = nearest_rank(sorted(scaled), TAIL_PERCENTILE)
    report(f"requests: {len(lat)} of a pool of {n}; "
           f"tail = p{TAIL_PERCENTILE} with {beyond} requests beyond it")
    if len(lat) > n:
        report("note: the pool ran out and was cycled")
    report(f"as measured: {len(lat) / wall:.6g} req/s, p50 {statistics.median(lat) * 1000:.6g} ms, "
           f"p{TAIL_PERCENTILE} {nearest_rank(sorted(lat), TAIL_PERCENTILE)[0] * 1000:.6g} ms, "
           f"set-up {statistics.median(setup):.6g} s; {len(speed.ns)} calibration samples, "
           f"median {statistics.median(speed.ns):.4g} ns/iteration "
           f"(reference {S.REF_NS_PER_ITER:g})")
    ok = len(lat) - len(client.failures)
    metrics = {
        # the wall time scaled by its requests' factors, weighted by latency
        "throughput_rps": (len(lat) / (wall * sum(scaled) / sum(lat)), "req/s"),
        "latency_p50_ms": (statistics.median(scaled) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "ok_frac": (ok / len(lat), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    return metrics, len(lat), speed


def per_layer(client: Client, root: Path, workload: str, seed: int, seconds: float, report):
    rounds = CONFIG["trace_rounds"][workload]
    per_round = len(client.pool) // CONFIG["pool_rounds"][workload]
    indices = range(rounds * per_round)
    client.run(range(min(3, len(indices))))  # warm-up, as in the untraced run
    client.failures.clear()
    traced, plain_wall, traced_wall, passes = [], 0.0, 0.0, 0
    plain_speed, traced_speed = S.Speed(), S.Speed()
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        _, wall, _ = client.run(indices, speed=plain_speed)
        plain_wall += wall
        tracer = T.Tracer()
        with tracer.installed():
            _, wall, _ = client.run(indices, tracer=tracer, speed=traced_speed)
        traced_wall += wall
        traced.append(tracer.spans)
        passes += 1
    with open(root / "perfbench" / "out" / f"trace-{workload}-seed{seed}.jsonl", "w") as fh:
        for s in tracer.spans:  # the last traced pass
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.request]) + "\n")
    report(f"traced {passes} pass(es) of {len(indices)} requests")
    spans = T.joined(traced)
    metrics = T.layer_metrics(spans, passes)
    # Both walls at the reference speed, so machine drift between the
    # untraced and the traced passes does not read as tracing cost.
    metrics["trace.overhead_frac"] = (
        traced_wall * traced_speed.factor() / (plain_wall * plain_speed.factor()) - 1, "ratio")
    metrics["trace.unattributed_frac"] = (1 - T.covered_ns(spans) / 1e9 / traced_wall, "ratio")
    plain_speed.at += traced_speed.at
    plain_speed.ns += traced_speed.ns
    return metrics, 2 * passes * len(indices), plain_speed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(W.ROUNDS), required=True)
    ap.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "p1homotopy" / "cli.py").is_file():
        print(f"error: no program source at {src}/p1homotopy; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import p1homotopy.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import p1homotopy from {src}: {exc}", file=sys.stderr)
        return 2

    def report(line):
        print(f"[{args.workload} seed={args.seed} trace={args.trace}] {line}")

    pool = make_pool(args.workload, args.seed, CONFIG["pool_rounds"][args.workload])
    workdir = root / "perfbench" / "out" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(args.workload, pool, workdir)
        if args.trace:
            metrics, attempted, speed = per_layer(client, root, args.workload, args.seed,
                                                  args.seconds, report)
        else:
            metrics, attempted, speed = end_to_end(client, root, args.workload, args.seed,
                                                   args.seconds, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # The time of a 10^6-iteration calibration loop, from the median sample.
    calib = sorted(ns * 1e-3 for ns in speed.ns)
    report(f"calib_s {statistics.median(calib):.4f} s (diagnostic, not gated; "
           f"{len(calib)} samples, range {calib[0]:.4f}-{calib[-1]:.4f} s)")
    if args.trace:
        metrics["calib_s"] = (statistics.median(calib), "s")
    for i, reason in client.failures[:10]:
        report(f"WRONG request {i} ({pool[i].label}): {reason}")
    for name, (value, unit) in metrics.items():
        report(f"{name} = {value:.6g} {unit}")
    failed = len(client.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
