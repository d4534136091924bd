"""Correctness gate: every workload call is checked, so a fast wrong answer fails.

A call fails on an exception, a non-zero exit code, a missing store record, a
wrong answer, or a record that differs from the first record of the same run
in anything but its volatile fields.  Failed calls feed ``error_rate``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from workloads import (
    EULER_PRODUCT_N2,
    PREDICT_C_REF,
    PREDICT_C_REF_STDERR,
    PREDICT_SIGMAS,
    Workload,
)

# Record fields that legitimately differ between two calls with equal inputs.
VOLATILE_FIELDS = ("timestamp", "elapsed_ms")


@dataclass(frozen=True)
class PredictReference:
    """What a ``predict`` record is checked against."""

    euler_product: float = EULER_PRODUCT_N2
    C: float = PREDICT_C_REF
    C_stderr: float = PREDICT_C_REF_STDERR
    sigmas: float = PREDICT_SIGMAS


def stable_record(line: str) -> str:
    """The record with its volatile fields removed, key order kept."""
    rec = json.loads(line)
    for key in VOLATILE_FIELDS:
        rec.pop(key, None)
    return json.dumps(rec, ensure_ascii=False)


def check_answer(workload: Workload, rec: dict, ref: PredictReference = PredictReference()) -> list[str]:
    """Failures of one parsed store record against the golden answers."""
    if workload.kind == "count":
        if rec.get("count") != workload.expected_count:
            return [f"count {rec.get('count')} != expected {workload.expected_count}"]
        return []
    failures = []
    if rec.get("euler_product") != ref.euler_product:
        failures.append(f"euler_product {rec.get('euler_product')!r} != {ref.euler_product!r}")
    C, C_stderr = rec.get("C"), rec.get("C_stderr")
    if not isinstance(C, float) or not isinstance(C_stderr, float):
        return failures + ["record lacks C or C_stderr"]
    tol = ref.sigmas * math.hypot(C_stderr, ref.C_stderr)
    if not abs(C - ref.C) <= tol:
        failures.append(f"C {C!r} differs from reference {ref.C!r} by more than {tol:.6g}")
    return failures


def check_call(
    workload: Workload,
    call: dict,
    first_record: str | None = None,
    ref: PredictReference = PredictReference(),
) -> list[str]:
    """Failures of one workload call; an empty list means it passed.

    ``call`` holds ``exit`` (the CLI's return code), ``error`` (an exception
    text or None) and ``record`` (the JSONL line the CLI wrote, or None).
    ``first_record`` is the first record of the run with the same argv.
    """
    if call.get("error"):
        return [f"exception: {call['error']}"]
    if call.get("exit") != 0:
        return [f"exit code {call.get('exit')}"]
    line = call.get("record")
    if not line:
        return ["no store record written"]
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"unreadable store record: {exc}"]
    failures = check_answer(workload, rec, ref)
    if first_record is not None and stable_record(line) != stable_record(first_record):
        failures.append("record differs from the run's first record at the same inputs")
    return failures
