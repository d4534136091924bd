"""Command-line entry point: exact counts, constant prediction, delta-identity
checks, the singular census, and empirical-versus-predicted comparisons.

Records are appended to a JSON-lines store (one self-describing record per
line, fixed key order); tabular exports are RFC-4180 CSV with a header row
and '.' decimal separator.  All randomness enters through --seed (default 0,
never time-based).  Exit codes: 0 success, 2 usage error, 3 numeric/overflow
error, 4 budget-guard refusal.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

from . import __version__
from .archimedean import sigma_infty_components  # noqa: F401 (not called; a perfbench trace boundary)
from .arith import is_prime
from .assembly import census, predicted_constant
from .counting import NAMED_CONVENTIONS, count_at_bounds, count_points, mobius_count
from .delta_method import KernelConfig, delta_series
from .errors import BudgetExceededError, OverflowGuardError
from .local_densities import local_density

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4


def _append_record(path: str | None, kind: str, parameters: dict, results: dict) -> None:
    """Append one self-describing record: parameters echoed next to results,
    flattened in fixed key order."""
    if not path:
        return
    record = {"kind": kind, **parameters, **results, "version": __version__, "timestamp": time.time()}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def _parse_l_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            hi = int(parts[0])
            return (-hi, hi)
        if len(parts) == 2:
            return (int(parts[0]), int(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 'L' or 'LO:HI', got {text!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_count(args) -> int:
    # One counting pass for all the bounds (one per bound for mobius); every
    # record of a pass carries its elapsed_ms.  A single bound goes through
    # count_points, the counting pass that perfbench traces.
    conv = NAMED_CONVENTIONS.get(args.convention)  # None for mobius
    for bounds in [[B] for B in args.bound] if conv is None else [args.bound]:
        t0 = time.perf_counter()
        if conv is None:
            values = [mobius_count(args.n, bounds[0], frozenset(), threads=args.threads)]
        elif len(bounds) == 1:
            values = [count_points(args.n, bounds[0], conv, threads=args.threads).count]
        else:
            values = count_at_bounds(args.n, bounds, conv, threads=args.threads)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        for B, value in zip(bounds, values):
            _append_record(args.out, "count",
                           {"n": args.n, "B": B, "convention": args.convention},
                           {"count": value, "elapsed_ms": round(elapsed_ms, 3)})
            print(f"count n={args.n} B={B} convention={args.convention}: {value}  ({elapsed_ms:.1f} ms)")
    return EXIT_OK


def cmd_predict(args) -> int:
    pred = predicted_constant(args.n, args.p_max, args.t_max, args.mc_samples, args.seed)
    ep = pred.euler_product
    arch = pred.sigma_inf_prime
    parts = arch.components
    print(f"predicted constant for n={args.n}")
    print("  rescaled local densities (p <= 20):")
    for p in filter(is_prime, range(2, min(20, args.p_max) + 1)):
        print(f"    p={p:<3d} sigma_p' = {local_density(p, args.n, args.t_max).sigma_p_prime:.12f}")
    print(f"  euler product (p <= {args.p_max}, t_max={args.t_max}) = {ep.value:.12f}  tail ~ {ep.tail:.3e}")
    print(f"  sigma_inf components: diagonal = {parts['diagonal_total']:.6f}, "
          f"off-diagonal = {parts['offdiagonal_total']:.6f}")
    print(f"  sigma_inf' = {arch.mean:.6f} +- {arch.stderr:.6f}  ({args.mc_samples} samples, seed {args.seed})")
    print(f"  C = {pred.C:.6f} +- {pred.C_stderr:.6f}")
    _append_record(args.out, "predict",
                   {"n": args.n, "p_max": args.p_max, "t_max": args.t_max,
                    "mc_samples": args.mc_samples, "seed": args.seed},
                   {"euler_product": ep.value, "euler_tail": ep.tail,
                    "sigma_inf_prime": arch.mean, "sigma_inf_prime_stderr": arch.stderr,
                    "C": pred.C, "C_stderr": pred.C_stderr})
    return EXIT_OK


def cmd_delta(args) -> int:
    lo, hi = args.l_range
    l_max = max(abs(lo), abs(hi)) if lo <= hi else 0  # an empty range evaluates l = 0 only
    config = KernelConfig.build(args.Q, q_max=args.q_max, l_max=l_max)
    rows = {l: delta_series(l, config=config) for l in range(lo, hi + 1)}
    raw0 = rows[0] if 0 in rows else delta_series(0, config=config)
    print(f"delta-series at Q={args.Q} (q_max={config.q_max}), raw(l) = delta_l / c_Q:")
    for l, value in rows.items():
        expect = 1.0 if l == 0 else 0.0
        print(f"  l={l:+d}  raw = {value:+.12e}  (target {expect:.0f})")
    if raw0 == 0.0:
        # No q <= q_max puts q*j/Q inside the window's support (e.g. Q=2).
        print("  empirical c_Q undefined: raw(0) = 0")
    else:
        print(f"  empirical c_Q ~ 1/raw(0) = {1.0 / raw0:.9f}")
    _append_record(args.out, "delta",
                   {"Q": args.Q, "q_max": config.q_max, "l_range": [lo, hi]},
                   {"raw": {str(l): value for l, value in rows.items()}})
    return EXIT_OK


def cmd_census(args) -> int:
    result = census(args.n, args.mode)
    print(f"singular index triples for n={args.n} ({args.mode}): {result.count}")
    if result.by_dimension is not None:
        for dim, cnt in result.by_dimension.items():
            print(f"  stratum dimension {dim}: {cnt}")
    print(f"  desingularized Picard rank: 3 + {result.count} = {3 + result.count}")
    _append_record(args.out, "census",
                   {"n": args.n, "mode": args.mode},
                   {"count": result.count, "by_dimension": result.by_dimension,
                    "picard_rank": 3 + result.count})
    return EXIT_OK


def cmd_compare(args) -> int:
    if any(B < 2 for B in args.bounds):
        raise ValueError("compare requires bounds >= 2 (log(B)^2 vanishes at B = 1)")
    pred = predicted_constant(args.n, args.p_max, args.t_max, args.mc_samples, args.seed)
    counts = count_at_bounds(args.n, args.bounds, NAMED_CONVENTIONS["primitive"], args.threads)
    rows = []
    for B, count in zip(args.bounds, counts):
        r = count / (B**args.n * math.log(B) ** 2)
        rows.append({"B": B, "count": count, "r": r, "predicted_C": pred.C})
        print(f"B={B:<8d} count={count:<16d} r=count/(B^n log^2 B)={r:.4f}  predicted C={pred.C:.4f}")
    ratios = [row["r"] for row in rows]
    print(f"trend: max r / min r = {max(ratios) / min(ratios):.4f};"
          f" r(last)/C = {ratios[-1] / pred.C:.4f}")

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["B", "count", "r", "predicted_C"])
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        print(f"wrote {args.csv}")

    _append_record(args.out, "compare",
                   {"n": args.n, "bounds": list(args.bounds), "p_max": args.p_max,
                    "t_max": args.t_max, "mc_samples": args.mc_samples, "seed": args.seed},
                   {"rows": rows})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triprox",
        description="Exact point counts and predicted leading constant for the "
                    "trilinear hypersurface in a triple product of projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="exact solution counts of bounded height")
    p_count.add_argument("--n", type=int, required=True, help="ambient dimension")
    p_count.add_argument("--bound", type=_parse_int_list, required=True,
                         help="height bound(s), comma-separated")
    p_count.add_argument("--convention", default="all",
                         choices=sorted(NAMED_CONVENTIONS) + ["mobius"],
                         help="which solutions to count")
    p_count.add_argument("--threads", type=int, default=1, help="counting threads in this process")
    p_count.add_argument("--out", default=None, help="JSON-lines store to append to")
    p_count.set_defaults(func=cmd_count)

    p_pred = sub.add_parser("predict", help="predicted leading constant")
    p_pred.add_argument("--n", type=int, required=True)
    p_pred.add_argument("--p-max", type=int, default=1000)
    p_pred.add_argument("--t-max", type=int, default=40)
    p_pred.add_argument("--mc-samples", type=int, default=1_000_000)
    p_pred.add_argument("--seed", type=int, default=0)
    p_pred.add_argument("--out", default=None)
    p_pred.set_defaults(func=cmd_predict)

    p_delta = sub.add_parser("delta", help="delta-series identity check")
    p_delta.add_argument("--Q", type=float, required=True)
    p_delta.add_argument("--l-range", type=_parse_l_range, default=(-8, 8),
                         help="'L' for -L..L or 'LO:HI'")
    p_delta.add_argument("--q-max", type=int, default=None)
    p_delta.add_argument("--out", default=None)
    p_delta.set_defaults(func=cmd_delta)

    p_census = sub.add_parser("census", help="singular index-triple census")
    p_census.add_argument("--n", type=int, required=True)
    p_census.add_argument("--mode", choices=["formula", "oracle"], default="formula")
    p_census.add_argument("--out", default=None)
    p_census.set_defaults(func=cmd_census)

    p_cmp = sub.add_parser("compare", help="empirical counts against the predicted constant")
    p_cmp.add_argument("--n", type=int, required=True)
    p_cmp.add_argument("--bounds", type=_parse_int_list, required=True)
    p_cmp.add_argument("--p-max", type=int, default=1000)
    p_cmp.add_argument("--t-max", type=int, default=40)
    p_cmp.add_argument("--mc-samples", type=int, default=1_000_000)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--threads", type=int, default=1, help="counting threads in this process")
    p_cmp.add_argument("--csv", default=None, help="CSV export path")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error (budget): {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OverflowGuardError as exc:
        print(f"error (overflow guard): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as exc:
        print(f"error (numeric): {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
