"""triprox benchmark: run one workload through ``triprox.cli.main`` and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Set-up is measured in fresh interpreters, the workload in one more (see
``worker.py``).  Every call is checked by ``gate.py``.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full result set, with provenance and every
sample, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from gate import check_call
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
SETUP_SPAWNS = 5  # extra set-up-only interpreters; the run's own worker adds a sixth sample
TIME_LIMIT_S = 170.0  # the whole run, so that it ends within 180 s


class WorkerError(RuntimeError):
    pass


def spawn_worker(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; return its start time and JSON reply.

    The worker gets its own process group, so that on timeout its pool
    processes are killed along with it.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"worker {args[:3]} exceeded the run's time limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker {args[:3]} exited with {proc.returncode}:\n{err.strip()}")
    lines = out.strip().splitlines()
    try:
        return spawned, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError(f"worker {args[:3]} printed no result:\n{err.strip()}") from None


def tail_percentile(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it
    (None below eleven samples), with the sample count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs), "tail_percentile": None, "tail_value": None}
    if n >= 11:
        k = n - 11  # xs[k] has exactly ten samples above it
        out.update(tail_percentile=100.0 * (k + 1) / n, tail_value=xs[k])
    return out


def provenance(root: str, workload, seed: int, versions: dict) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "triprox", "*.py"))):
        with open(path, "rb") as fh:
            src_hash.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10)
            commit = git.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass  # provenance only: a missing git leaves the commit unknown
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), **versions, "git_commit": commit,
            "src_sha256": src_hash.hexdigest(), "workload": workload.name, "seed": seed,
            "threads": workload.threads if workload.kind == "count" else None,
            "argv": workload.argv(seed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "triprox", "cli.py")):
        print(f"error: no triprox sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    try:
        setup_s = []
        for _ in range(SETUP_SPAWNS):
            spawned, reply = spawn_worker(["setup", "--workload", workload.name], env, deadline)
            setup_s.append(reply["ready"] - spawned)
        spawned, result = spawn_worker(
            ["run", "--workload", workload.name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT_DIR],
            env, deadline)
        setup_s.append(result["ready"] - spawned)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    calls = result["calls"] + result.get("traced_calls", [])
    first = calls[0]["record"]
    failures = [(i, f) for i, call in enumerate(calls) for f in check_call(workload, call, first)]
    failed = len({i for i, _ in failures})
    wall_s = [call["seconds"] for call in result["calls"]]

    if args.trace:
        values = result["layers"]
    else:
        values = {"wall_s": statistics.median(wall_s), "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
    # BENCHMARK.json declares the metrics and their units.  A declared metric
    # the run could not measure (its function is gone) is absent, not an error.
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    absent = [m["name"] for m in declared if m["name"] not in values]

    rel_stderr = []
    for call in calls:
        try:
            rec = json.loads(call["record"] or "{}")
            rel_stderr.append(rec["C_stderr"] / rec["C"])
        except (json.JSONDecodeError, KeyError, TypeError, ZeroDivisionError):
            pass  # a count record, or a broken one the gate has failed already
    result_set = {
        "provenance": {**provenance(root, workload, args.seed, result["versions"]),
                       "run_seconds": args.seconds, "trace": args.trace, "timestamp": time.time()},
        "metrics": metrics,
        "timings": {"wall_s": tail_percentile(wall_s), "setup_s": tail_percentile(setup_s)},
        "samples": {"wall_s": wall_s, "setup_s": setup_s},
        "attempted": len(calls),
        "failed": failed,
        "error_rate": failed / len(calls),
        "failures": [{"call": i, "reason": f} for i, f in failures],
        "rel_stderr": rel_stderr or None,
        "absent_metrics": absent,
        "records": [c["record"] for c in calls],
    }
    out_path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result_set, fh, indent=1)

    for i, reason in failures:
        print(f"FAILED call {i}: {reason}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed}: {len(calls)} calls, {failed} failed; "
          f"wall median {statistics.median(wall_s):.3f} s over {len(wall_s)}; "
          f"result set {os.path.relpath(out_path, root)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
