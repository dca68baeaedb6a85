"""Benchmark of `mellinbarnes`: a single-process, single-thread, closed-loop,
one-client load generator over a seeded request pool.

    python3 perfbench/run.py --workload residue_engine --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare base.jsonl new.jsonl

A run builds the workload's pool from the seed (workloads.py), computes every
request's reference value before any timing (oracles.py), serves one request
of each kind to warm up, then sends requests one after another, cycling
through the pool in order, until --seconds have passed and the pool has been
served at least once.  Every output is checked against its reference.

With --trace 0 it reports the end-to-end metrics: throughput of correct
results, median and 90th-percentile latency, set-up time (median over fresh
interpreters, each timed from start to its first correct result) and peak
resident memory.  With --trace 1 it repeats the same requests with spans
recorded at each layer boundary (tracing.py) and reports the per-layer
metrics, per request, plus the tracing overhead.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is the full record (environment, digest of
the converged outputs of the first pass, failures by request kind, and how
many of the program's known wrong results, served once after timing, are
still wrong); --out
appends that record to a JSON-lines file, which --compare reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def serve(kind: str, p: dict):
    try:
        return workloads.serve(kind, p)
    except Exception:  # a failed request is counted, and the run goes on
        return (), False, False


def serve_checked(kind: str, p: dict, ref):
    """Serve one request; returns (latency s, values, converged, correct)."""
    t0 = perf_counter()
    values, ok, converged = serve(kind, p)
    latency = perf_counter() - t0
    return latency, values, converged, oracles.check(kind, p, ref, values, ok)


def serve_loop(reqs: list, refs: list, seconds=None, count=None, tracer=None) -> dict:
    """Closed loop over the pool in order: `count` requests, or until `seconds`
    have passed and every request has been served once."""
    latencies, failures = [], {}
    digest = hashlib.sha256()
    wrong = 0
    i = 0
    start = perf_counter()
    while (i < count) if count is not None else (i < len(reqs) or perf_counter() - start < seconds):
        kind, p = reqs[i % len(reqs)]
        latency, values, converged, correct = serve_checked(kind, p, refs[i % len(reqs)])
        if tracer is not None:
            tracer.end_request()
        latencies.append(latency)
        if not correct:
            failures[kind] = failures.get(kind, 0) + 1
            if converged and kind in workloads.RESIDUE_KINDS:
                wrong += 1
        if i < len(reqs) and converged:
            digest.update(f"{i}:{','.join(float(v).hex() for v in values)};".encode())
        i += 1
    elapsed = perf_counter() - start
    return {"latencies": latencies, "elapsed": elapsed, "failures": failures,
            "converged_wrong": wrong, "digest": digest.hexdigest(), "served": i}


def warm_up(reqs: list, refs: list) -> None:
    """Serve the first request of each kind, so lazy set-up ends before timing."""
    seen = set()
    for (kind, p), ref in zip(reqs, refs):
        if kind not in seen:
            seen.add(kind)
            serve_checked(kind, p, ref)


def known_defects() -> dict:
    """Serve each request of workloads.KNOWN_DEFECTS once, untimed; the count
    still wrong goes into the record, outside `failed`, since no pool holds them."""
    wrong = 0
    for kind, p in workloads.KNOWN_DEFECTS:
        _, _, _, correct = serve_checked(kind, p, oracles.reference(kind, p))
        wrong += not correct
    return {"served": len(workloads.KNOWN_DEFECTS), "wrong": wrong}


def probe(workload: str, seed: int, start: int) -> None:
    """Child of setup_seconds: serve the pool from request `start` on, one JSON
    line per result."""
    for kind, p in workloads.generate(workload, seed)[start:]:
        values, ok, _ = serve(kind, p)
        print(json.dumps([list(values), ok]), flush=True)


def setup_seconds(args, reqs: list, refs: list, start: int) -> float:
    """Seconds from starting a fresh interpreter to its first correct result,
    serving the pool from request `start` on."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe", str(start)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as proc:
        try:
            for (kind, p), ref, line in zip(reqs[start:], refs[start:], proc.stdout):
                values, ok = json.loads(line)
                if oracles.check(kind, p, ref, tuple(values), ok):
                    return perf_counter() - t0
        finally:
            proc.kill()
            proc.wait()
    raise RuntimeError("set-up probe produced no correct result")


def src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py")))


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "nproc": os.cpu_count(), "seed": seed,
            "src_lines": src_lines()}


def run(args) -> tuple:
    reqs = workloads.generate(args.workload, args.seed)
    refs = [oracles.reference(kind, p) for kind, p in reqs]
    # probe k starts with request k, so the median does not hang on one request's cost
    setups = [setup_seconds(args, reqs, refs, k) for k in range(0 if args.trace else SETUP_REPEATS)]
    warm_up(reqs, refs)
    base = serve_loop(reqs, refs, seconds=args.seconds)
    attempted = len(base["latencies"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "pool": len(reqs), "digest": base["digest"],
              "env": environment(args.seed)}
    if not args.trace:
        lat_ms = sorted(1e3 * t for t in base["latencies"])
        failed = sum(base["failures"].values())
        metrics = {
            "throughput_rps": (attempted - failed) / base["elapsed"],
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        failures = base["failures"]
        record["setup_samples_s"] = setups
    else:
        tracer = tracing.Tracer().install()
        try:
            traced = serve_loop(reqs, refs, count=attempted, tracer=tracer)
        finally:
            tracer.remove()
        metrics = tracer.metrics(traced["elapsed"] / base["elapsed"] - 1.0,
                                 traced["converged_wrong"])
        failures = traced["failures"]
        failed = sum(failures.values())
        record["traced"] = traced["served"]
    record.update({"attempted": attempted, "failed": failed, "error_rate": failed / attempted,
                   "failures_by_kind": failures, "known_defects": known_defects(),
                   "metrics": metrics})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _medians(path: str) -> dict:
    """workload -> metric name -> median value over the file's records."""
    values: dict = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in rec["metrics"].items():
                    if m["value"] is not None:
                        values.setdefault(rec["workload"], {}).setdefault(name, []).append(m["value"])
    return {w: {k: statistics.median(v) for k, v in ms.items()} for w, ms in values.items()}


def compare(base_path: str, new_path: str) -> str:
    """One row per workload: every metric as new/base ratio with its base.
    Information only; nothing here passes or fails."""
    base, new = _medians(base_path), _medians(new_path)
    rows = []
    for w in sorted(set(base) | set(new)):
        cells = []
        for name in sorted(set(base.get(w, {})) | set(new.get(w, {}))):
            b, n = base.get(w, {}).get(name), new.get(w, {}).get(name)
            if b is None or n is None:
                cells.append(f"{name}={'absent' if n is None else 'new'}")
            else:
                ratio = f"{n / b:.3f}" if b else "n/a"
                cells.append(f"{name}={ratio} (base {b:.6g})")
        rows.append(f"{w}: " + "  ".join(cells))
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the run's record to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="print the metric ratios of two --out files, per workload")
    ap.add_argument("--probe", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.compare:
        print(compare(*args.compare))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.probe is not None:
        probe(args.workload, args.seed, args.probe)
        return 0
    record, result = run(args)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
