"""kquant benchmark: seeded closed-loop workloads, one client each.

    python3 bench/run.py --workload qr_mixed --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; paths are resolved from this file.  The inputs are
generated here, from the seed and without importing kquant, and written
to ``.bench_out/``.  All engine work happens in fresh worker processes
(worker.py), so every run starts with cold engine caches:

* ``--trace 0``: a warm-up launch, then SETUP_LAUNCHES set-up-only
  launches and the timed launch; ``setup_s`` is the median set-up time
  of those, the other end-to-end metrics come from the timed launch.
* ``--trace 1``: the first TRACE_OPS operations run once untraced and
  once with spans on every traced kquant function, each in a fresh
  process; the per-layer metrics come from the spans, and the tracing
  overhead is the ratio of the two throughputs.

A readable report goes to stdout, and its last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

import gen  # noqa: E402  (needs BENCH on sys.path)

# The workloads of BENCHMARK.json.  EXTRA_WORKLOADS run the same way, by
# name or with "all", to load characters, orbits, moves and the exact
# linear algebra directly; their runs on this hardware spread too widely
# for the bounds in runs short enough to fit four workloads (README.md).
WORKLOADS = ["qr_mixed", "cli_demo"]
EXTRA_WORKLOADS = ["cycles", "vanishing_sets"]
DEFAULT_SEED = 1
DEFAULT_SECONDS = 60
SETUP_LAUNCHES = 5
MIN_OPS = 100   # so at least ten latency samples lie beyond the 90th percentile
# Operations in a traced run: fixed, so its work counts repeat exactly, and
# whole blocks (after the heavy model that opens qr_mixed), so its mix is
# that of a timed run.
TRACE_OPS = {"qr_mixed": 151, "cycles": 140, "vanishing_sets": 35, "cli_demo": 40}


class BenchError(Exception):
    """A worker failed or the checkout is incomplete; no result is printed."""


def launch(mode, inputs, workload, timeout, *extra):
    """Start a fresh worker; returns its result record."""
    t_launch = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), repr(t_launch),
           mode, inputs, "--workload", workload, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {timeout}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile; returns (value, samples strictly beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def timed_run(workload, inputs, seconds, min_ops):
    launch("setup", inputs, workload, 120)   # compiles bytecode; not counted
    setups = [launch("setup", inputs, workload, 120)["setup_s"]
              for _ in range(SETUP_LAUNCHES)]
    rec = launch("timed", inputs, workload, worker_timeout(seconds),
                 "--seconds", str(seconds), "--min-ops", str(min_ops))
    setups.append(rec["setup_s"])
    lat = rec["latencies_s"]
    p50 = statistics.median(lat)
    p90, beyond = percentile(lat, 0.9)
    n = rec["attempted"]
    metrics = {"setup_s": statistics.median(setups),
               "ops_per_s": n / rec["elapsed_s"],
               "latency_p50_s": p50,
               "latency_p90_s": p90,
               "peak_rss_mb": rec["peak_rss_mb"]}
    units = {"setup_s": "s", "ops_per_s": "ops/s", "latency_p50_s": "s",
             "latency_p90_s": "s", "peak_rss_mb": "MB"}
    notes = {"setup_s": f"median of {len(setups)} launches",
             "ops_per_s": f"{n} ops in {rec['elapsed_s']:.2f} s",
             "latency_p50_s": f"n={n}",
             "latency_p90_s": f"n={n}, {beyond} beyond",
             "peak_rss_mb": ("max over CLI child processes" if workload == "cli_demo"
                             else "worker process")}
    lines = [f"{name:<16}{value:>14.6g} {units[name]:<6} ({notes[name]})"
             for name, value in metrics.items()]
    lines.append(f"{'failed_frac':<16}{rec['failed'] / max(n, 1):>14.6g} {'ratio':<6}"
                 f" ({rec['failed']} of {n})")
    lines.append(f"output_digest   sha256:{rec['digest']} (first {rec['digest_ops']} ops)")
    if beyond < 10:
        lines.append(f"warning: only {beyond} samples beyond the 90th percentile")
    if rec["wrapped"]:
        lines.append("warning: the run wrapped around its inputs; repeats hit caches")
    return rec, {k: (v, units[k]) for k, v in metrics.items()}, lines


def traced_run(workload, inputs, ops, seconds):
    spans_path = inputs[:-len(".json")] + ".spans.gz"
    plain = launch("count", inputs, workload, worker_timeout(seconds), "--ops", str(ops))
    rec = launch("traced", inputs, workload, worker_timeout(seconds),
                 "--ops", str(ops), "--spans", spans_path)
    layers = dict(rec["layers"])
    # traced ops/s over untraced ops/s, on the same operations
    layers["trace.ops_per_s_ratio"] = plain["elapsed_s"] / rec["elapsed_s"]
    lines = [f"traced {rec['attempted']} ops: {rec['spans']} spans -> {spans_path}",
             f"untraced {plain['elapsed_s']:.3f} s, traced {rec['elapsed_s']:.3f} s"]
    lines.append(f"  {'traced function':<44}{'calls':>9}{'busy_s':>10}{'self_s':>10}{'errors':>7}")
    for name, row in sorted(rec["summary"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:<44}{row['calls']:>9}{row['busy_s']:>10.4f}"
                     f"{row['self_s']:>10.4f}{row['errors']:>7}")
    lines += [f"{k:<58}{v:>12.6g} {unit_of(k)}" for k, v in sorted(layers.items())]
    if not rec["restored"]:
        lines.append("error: a traced kquant name was not restored")
    rec["failed"] += plain["failed"]
    rec["attempted"] += plain["attempted"]
    rec["failures"] += plain["failures"]
    ok = rec["restored"]
    return rec, {k: (v, unit_of(k)) for k, v in layers.items()}, lines, ok


def worker_timeout(seconds):
    return 150 + seconds


def run_workload(workload, seed, seconds, trace, min_ops=MIN_OPS, trace_ops=None):
    """Generate, measure and report one workload; returns the result object."""
    items, props = gen.generate(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    inputs = os.path.join(OUT, f"{workload}-{seed}.json")
    with open(inputs, "w", encoding="utf-8") as fh:
        json.dump(items, fh)
    print(f"== {workload}  seed {seed}  seconds {seconds}  trace {trace}"
          f"  python {platform.python_version()}  nproc {os.cpu_count()}")
    print("inputs: " + json.dumps(props, sort_keys=True))
    ok = True
    if trace:
        ops = trace_ops or TRACE_OPS[workload]
        rec, metrics, lines, ok = traced_run(workload, inputs, ops, seconds)
    else:
        rec, metrics, lines = timed_run(workload, inputs, seconds, min_ops)
    for failure in rec["failures"]:
        lines.append(f"failed op {failure['op']} ({failure['kind']}): {failure['error']}")
    print("\n".join(lines))
    return {"correct": ok and rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def check_checkout():
    for rel in ("src/kquant/__init__.py", "demos/data"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} is missing; run from a full kquant checkout")


def main(argv=None, **overrides):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        names = WORKLOADS + EXTRA_WORKLOADS if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, **overrides)
                   for w in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
