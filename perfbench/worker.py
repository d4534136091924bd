"""One benchmark process: import triprox, finish lazy set-up, run a workload.

Started by ``run.py`` in a fresh interpreter, with the checkout as working
directory and its ``src`` on ``PYTHONPATH``.  Prints one JSON object as its
last stdout line.

    worker.py setup --workload NAME
        Import and set up only; report when the first call could start.
    worker.py run --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
        Set up, then call ``triprox.cli.main`` on the workload's command line
        untraced until the next call would end after S seconds (at least
        twice).  With --trace 1, add the traced pass(es) and per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

from tracing import BOUNDARY_METRICS, Tracer, layer_metrics, traced
from workloads import WORKLOADS, Workload

MIN_CALLS = 2  # two records at the same inputs, for the byte-identity check


def _import_triprox(workload: Workload):
    """Import the package and the CLI, and run the lazy set-up the workload needs."""
    import triprox
    import triprox.cli

    src = os.path.realpath("src")
    if not os.path.realpath(triprox.__file__).startswith(src + os.sep):
        raise SystemExit(f"triprox was imported from {triprox.__file__}, not from {src}")
    if workload.kind == "predict":
        triprox.arith.prime_table()  # lru-cached sieve behind the Euler product
    return triprox


def run_call(cli, argv: list[str], store: str, tracer: Tracer | None = None) -> dict:
    """One ``triprox`` invocation; only ``cli.main`` is inside the timed span."""
    open(store, "w").close()
    rc, error = None, None
    captured = io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(captured):
            rc = cli.main(argv + ["--out", store])
    except SystemExit as exc:  # argparse rejects a command line this way
        rc = exc.code
    except Exception:  # a failed call is counted by the gate, and the run goes on
        error = "".join(traceback.format_exc(limit=4))
    seconds = time.perf_counter() - t0
    with open(store, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    return {"argv": argv, "seconds": seconds, "exit": rc, "error": error,
            "record": lines[-1] if lines else None}


def traced_pass(cli, argv, store, spans_path) -> tuple[dict, Tracer]:
    # Drop the cached prime table, so that the pass shows the table build a
    # fresh `triprox predict` pays (set-up, outside the untraced timings).
    getattr(sys.modules["triprox.arith"].prime_table, "cache_clear", lambda: None)()
    tracer = Tracer()
    with traced(tracer):
        call = run_call(cli, argv, store, tracer)
    tracer.write(spans_path)
    return call, tracer


def layer_split(cli, workload: Workload, seed: int, store: str, out_prefix: str,
                untraced_s: float) -> tuple[list[dict], dict]:
    """Traced pass(es) and the per-layer metrics they give.

    Worker-process spans are lost, so a multi-worker workload gets a second,
    single-worker pass: its stage split comes from there, while the main
    process's boundary metrics come from the pass at the workload's own
    worker count.
    """
    call, tracer = traced_pass(cli, workload.argv(seed), store, out_prefix + "-spans.jsonl.gz")
    calls = [call]
    metrics = layer_metrics(tracer)
    efficiency = 0.0  # zero: a single-worker workload has no parallel part
    if workload.threads > 1:
        call1, tracer1 = traced_pass(cli, workload.argv(seed, threads=1), store,
                                     out_prefix + "-threads1-spans.jsonl.gz")
        calls.append(call1)
        split = layer_metrics(tracer1)
        one_worker_s = split.get("counting.count_points.s")
        many_workers_s = metrics.get("counting.count_points.s")
        if one_worker_s and many_workers_s:
            efficiency = one_worker_s / (workload.threads * many_workers_s)
        split.update({k: metrics[k] for k in BOUNDARY_METRICS if k in metrics})
        metrics = split
    metrics["counting.parallel_efficiency"] = efficiency
    metrics["trace.overhead_s"] = call["seconds"] - untraced_s
    return calls, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    triprox = _import_triprox(workload)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    import numpy
    import scipy

    cli = triprox.cli
    store = os.path.join(args.out_dir, f"store-{os.getpid()}.jsonl")
    prefix = os.path.join(args.out_dir, f"{workload.name}-seed{args.seed}")
    out = {"ready": ready,
           "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "triprox": triprox.__version__}}
    try:
        calls, times = [], []
        start = time.perf_counter()
        while len(calls) < MIN_CALLS or time.perf_counter() - start + statistics.median(times) <= args.seconds:
            calls.append(run_call(cli, workload.argv(args.seed), store))
            times.append(calls[-1]["seconds"])
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        out.update(calls=calls, peak_rss_kb=max(self_kb, child_kb))
        if args.trace:
            traced_calls, layers = layer_split(cli, workload, args.seed, store, prefix,
                                               statistics.median(times))
            out.update(traced_calls=traced_calls, layers=layers)
    finally:
        if os.path.exists(store):
            os.remove(store)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
