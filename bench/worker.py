"""One benchmark process: set up cold, then run operations.

Run as ``python worker.py T_LAUNCH MODE INPUTS --workload NAME [options]`` by run.py,
which passes ``time.monotonic()`` read just before the launch, so the
set-up time covers interpreter start, ``import kquant`` and loading the
generated inputs (CLOCK_MONOTONIC is system-wide on Linux).  Modes:

* ``setup``  - stop after set-up;
* ``timed``  - closed loop, one client: run operations in input order
  for ``--seconds`` and at least ``--min-ops`` operations, then up to
  the end of the current block;
* ``count``  - run exactly ``--ops`` operations untraced;
* ``traced`` - the same operations with spans on every traced kquant
  function, written to ``--spans``.

The result is one JSON object on the last line of stdout.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

DIGEST_OPS = 100   # the output digest covers this many leading operations
HARD_CAP_S = 120   # a timed loop never runs longer, whatever --min-ops says


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run_ops(ops, count=None, seconds=None, min_ops=0, tracer=None, on_op=None):
    """Closed loop over ops (wrapping around); returns the run record.

    With ``count`` exactly that many operations run; otherwise the loop
    runs for ``seconds`` and at least ``min_ops`` operations and stops
    where the next operation starts a new block.
    """
    digest = hashlib.sha256()
    latencies = []
    failures = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        op = ops[i % len(ops)]
        if count is not None:
            if i >= count:
                break
        elif elapsed >= HARD_CAP_S or (elapsed >= seconds and 0 < i and i >= min_ops
                                       and op.block != ops[(i - 1) % len(ops)].block):
            break
        if tracer is not None:
            tracer.current_op = i
        error = None
        t0 = time.perf_counter()
        try:
            verdict, out = op.run()
        except Exception as exc:  # any failure of the engine counts against it
            verdict, out, error = None, None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if on_op is not None:
            on_op(i, t1 - t0, out)
        if verdict is not op.expect:
            failures.append({"op": i, "kind": op.kind,
                             "error": error or f"verdict {verdict}, expected {op.expect}"})
        if i < DIGEST_OPS:
            digest.update((canonical(op.canon(out) if error is None else error)
                           + "\n").encode("utf-8"))
        i += 1
    return {"elapsed_s": time.perf_counter() - start, "attempted": i,
            "failed": len(failures), "failures": failures[:5],
            "latencies_s": latencies, "digest": digest.hexdigest(),
            "digest_ops": min(i, DIGEST_OPS), "wrapped": i > len(ops)}


def peak_rss_mb(workload):
    """Peak RSS of the process that runs the operations (children for CLI)."""
    who = resource.RUSAGE_CHILDREN if workload == "cli_demo" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("t_launch", type=float)
    parser.add_argument("mode", choices=("setup", "timed", "count", "traced"))
    parser.add_argument("inputs")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import kquant  # noqa: F401  (set-up covers the import)
    import ops as ops_mod
    with open(args.inputs, encoding="utf-8") as fh:
        items = json.load(fh)
    prefix = None
    if args.mode == "traced":
        # traced CLI ops run probe.py, which leaves its spans in this file
        prefix = [sys.executable, os.path.join(BENCH, "probe.py"), args.spans + ".cli"]
    ops = ops_mod.build(args.workload, items, prefix)
    setup_s = time.monotonic() - args.t_launch
    if args.mode == "setup":
        print(canonical({"setup_s": setup_s}))
        return 0

    if args.mode == "timed":
        rec = run_ops(ops, seconds=args.seconds, min_ops=args.min_ops)
    elif args.mode == "count":
        rec = run_ops(ops, count=args.ops)
    else:
        rec = run_traced(ops, args)
    rec["setup_s"] = setup_s
    rec["peak_rss_mb"] = peak_rss_mb(args.workload)
    print(canonical(rec))
    return 0


def run_traced(ops, args):
    """Run ``--ops`` operations with spans on; the spans go to ``--spans``."""
    import spans
    tracer = spans.Tracer()
    cli = {"wall_s": 0.0, "stdout_bytes": 0}
    cli_spans = args.spans + ".cli"

    def on_op(i, wall, out):
        if args.workload == "cli_demo":
            cli["wall_s"] += wall
            cli["stdout_bytes"] += len(out or b"")
            if os.path.exists(cli_spans):
                tracer.read_into(cli_spans, i)
                os.remove(cli_spans)

    tracer.install()
    try:
        rec = run_ops(ops, count=args.ops, tracer=tracer, on_op=on_op)
    finally:
        restored = tracer.uninstall()
    tracer.write(args.spans)
    rec["layers"] = spans.layer_metrics(tracer, cli["wall_s"], cli["stdout_bytes"])
    rec["restored"] = restored
    rec["summary"] = tracer.summary()
    rec["spans"] = len(tracer.start)
    del rec["latencies_s"]
    return rec


if __name__ == "__main__":
    sys.exit(main())
