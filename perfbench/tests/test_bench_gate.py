"""The gate rejects wrong answers.  Faults are injected into the checker's
expectations or into the records it reads, never into the program."""

import dataclasses
import json
import math

import pytest

from gate import PredictReference, check_call
from workloads import COUNT_N3_B30_PRIMITIVE, WORKLOADS

COUNT = WORKLOADS["count-n2-primitive"]
PREDICT = WORKLOADS["predict-n2"]


def count_call(count=104027904, elapsed_ms=11000.0, timestamp=1.0, exit=0, error=None):
    rec = {"kind": "count", "n": 2, "B": 120, "convention": "primitive", "count": count,
           "elapsed_ms": elapsed_ms, "version": "0.1.0", "timestamp": timestamp}
    return {"exit": exit, "error": error, "record": json.dumps(rec)}


def predict_call(C=222.06, C_stderr=0.0224, euler=1.046388128921806, timestamp=1.0):
    rec = {"kind": "predict", "n": 2, "p_max": 1000000, "t_max": 40, "mc_samples": 4000000,
           "seed": 1, "euler_product": euler, "euler_tail": 2.3e-05, "sigma_inf_prime": 848.9,
           "sigma_inf_prime_stderr": 0.08, "C": C, "C_stderr": C_stderr, "version": "0.1.0",
           "timestamp": timestamp}
    return {"exit": 0, "error": None, "record": json.dumps(rec)}


def test_golden_count_passes():
    assert check_call(COUNT, count_call()) == []


def test_wrong_expected_count_fails():
    wrong = dataclasses.replace(COUNT, expected_count=104027905)
    assert check_call(wrong, count_call())


@pytest.mark.parametrize("call", [
    count_call(exit=3),
    count_call(error="Traceback: OverflowGuardError"),
    {"exit": 0, "error": None, "record": None},
    {"exit": 0, "error": None, "record": "{not json"},
])
def test_failed_invocation_fails(call):
    assert check_call(COUNT, call)


def test_predict_within_tolerance_passes():
    assert check_call(PREDICT, predict_call()) == []


def test_out_of_tolerance_C_fails():
    ref = PredictReference()
    tol = ref.sigmas * math.hypot(0.0224, ref.C_stderr)
    shifted = dataclasses.replace(ref, C=222.06 + 1.01 * tol)
    assert check_call(PREDICT, predict_call(), ref=shifted)
    inside = dataclasses.replace(ref, C=222.06 + 0.99 * tol)
    assert check_call(PREDICT, predict_call(), ref=inside) == []


def test_euler_product_must_be_bit_equal():
    ref = PredictReference()
    off_by_one_ulp = dataclasses.replace(ref, euler_product=math.nextafter(ref.euler_product, 2.0))
    assert check_call(PREDICT, predict_call(), ref=off_by_one_ulp)


def test_records_at_same_inputs_must_match_apart_from_volatile_fields():
    first = predict_call()["record"]
    assert check_call(PREDICT, predict_call(timestamp=2.0), first) == []
    assert check_call(PREDICT, predict_call(C=222.061), first)
    assert check_call(COUNT, count_call(elapsed_ms=9000.0, timestamp=5.0), count_call()["record"]) == []


def test_mobius_golden_matches_the_direct_primitive_path():
    from triprox import NAMED_CONVENTIONS, count_points

    assert count_points(3, 30, NAMED_CONVENTIONS["primitive"]).count == COUNT_N3_B30_PRIMITIVE
