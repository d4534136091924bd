import contextlib
import importlib
import io

import pytest

import triprox.cli
from tracing import BOUNDARIES, SPAN_METRICS, Tracer, layer_metrics, span_stats, traced


def boundary_attrs():
    out = {}
    for mod_name, attr, _, _ in BOUNDARIES:
        module = importlib.import_module(f"triprox.{mod_name}")
        out[(mod_name, attr)] = getattr(module, attr)
    return out


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return triprox.cli.main(argv)


def test_every_wrapper_is_installed_and_then_restored():
    before = boundary_attrs()
    with traced(Tracer()):
        during = boundary_attrs()
    assert all(during[key] is not fn for key, fn in before.items())
    after = boundary_attrs()
    assert all(after[key] is fn for key, fn in before.items())


def test_wrappers_are_restored_when_the_block_raises():
    before = boundary_attrs()
    with pytest.raises(RuntimeError), traced(Tracer()):
        raise RuntimeError("boom")
    assert all(boundary_attrs()[key] is fn for key, fn in before.items())


def test_self_time_subtracts_direct_children_and_nested_names_count_once():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("inner"):
                pass
    outer, inner, nested = tracer.spans
    outer.start, outer.end = 0.0, 10.0
    inner.start, inner.end = 2.0, 5.0
    nested.start, nested.end = 3.0, 4.0
    stats = span_stats(tracer)
    assert stats["outer"] == {"calls": 1, "s": 10.0, "self_s": 7.0, "counters": {}}
    assert stats["inner"]["calls"] == 2
    assert stats["inner"]["s"] == 3.0  # the nested span is inside the outer one
    assert stats["inner"]["self_s"] == 3.0  # (3 - 1) + 1


def test_traced_count_reports_every_counting_metric():
    tracer = Tracer()
    with traced(tracer), tracer.span("cli.main"):
        assert run_cli(["count", "--n", "2", "--bound", "12", "--convention", "primitive"]) == 0
    metrics = layer_metrics(tracer)
    assert {name for name, _, _ in SPAN_METRICS} <= set(metrics)
    assert metrics["counting.count_points.calls"] == 1
    assert metrics["arith.mobius_sieve.calls"] >= 1
    assert metrics["counting.kernel.calls"] >= metrics["counting.pair_block.calls"] > 0
    assert metrics["counting.kernel.cells"] >= metrics["counting.kernel.rows"] > 0
    assert metrics["counting.pair_block.self_s"] <= metrics["counting.count_points.s"]
    assert metrics["local_densities.local_density.calls"] == 0


def test_missing_stage_function_gives_absent_metrics_not_a_crash(monkeypatch):
    monkeypatch.delattr(triprox.counting, "_count_pair_block")
    tracer = Tracer()
    with traced(tracer), tracer.span("cli.main"):
        assert run_cli(["predict", "--n", "2", "--p-max", "50", "--mc-samples", "2000"]) == 0
    assert not hasattr(triprox.counting, "_count_pair_block")
    assert tracer.missing == {"counting.pair_block"}
    metrics = layer_metrics(tracer)
    for absent in ("counting.pair_block.calls", "counting.pair_block.self_s",
                   "counting.kernel.calls_per_block"):
        assert absent not in metrics
    assert metrics["archimedean.sigma_infty_components.calls"] == 2
    assert metrics["counting.kernel.calls"] == 0
