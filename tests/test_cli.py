import csv
import json
import re
import time

import pytest

import triprox.archimedean as archimedean
import triprox.cli as cli
import triprox.counting as counting
import triprox.delta_method as delta_method
from triprox import NAMED_CONVENTIONS, count_points
from triprox.cli import EXIT_BUDGET, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestCount:
    def test_parity_example(self, capsys):
        assert main(["count", "--n", "2", "--bound", "1", "--convention", "all"]) == EXIT_OK
        assert "0" in capsys.readouterr().out

    def test_unit_box_n3(self, capsys):
        assert main(["count", "--n", "3", "--bound", "1", "--convention", "all"]) == EXIT_OK
        assert "1536" in capsys.readouterr().out

    def test_mobius_equals_primitive(self, capsys):
        assert main(["count", "--n", "2", "--bound", "20", "--convention", "mobius"]) == EXIT_OK
        out1 = capsys.readouterr().out
        assert main(["count", "--n", "2", "--bound", "20", "--convention", "primitive"]) == EXIT_OK
        out2 = capsys.readouterr().out
        assert out1.split(":")[-1].split("(")[0].strip() == out2.split(":")[-1].split("(")[0].strip()

    def test_store_schema_and_key_order(self, tmp_path):
        store = tmp_path / "runs.jsonl"
        assert main(["count", "--n", "2", "--bound", "3,5", "--convention", "N",
                     "--out", str(store)]) == EXIT_OK
        records = read_jsonl(store)
        assert len(records) == 2
        for rec, B in zip(records, (3, 5)):
            assert list(rec)[:7] == ["kind", "n", "B", "convention", "count", "elapsed_ms", "version"]
            assert rec["kind"] == "count" and rec["B"] == B and rec["n"] == 2

    def test_store_append_only(self, tmp_path):
        store = tmp_path / "runs.jsonl"
        main(["count", "--n", "1", "--bound", "2", "--out", str(store)])
        main(["count", "--n", "1", "--bound", "3", "--out", str(store)])
        assert len(read_jsonl(store)) == 2

    def test_reproducible_results_fields(self, tmp_path):
        store = tmp_path / "runs.jsonl"
        main(["count", "--n", "2", "--bound", "6", "--convention", "E1", "--out", str(store)])
        main(["count", "--n", "2", "--bound", "6", "--convention", "E1", "--out", str(store)])
        a, b = read_jsonl(store)
        assert a["count"] == b["count"]

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "2", "--bound", "xyz"])
        assert exc.value.code == EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "2", "--bound", "4", "--convention", "bogus"])
        assert exc.value.code == EXIT_USAGE

    def test_invalid_dimension_maps_to_usage(self):
        assert main(["count", "--n", "0", "--bound", "4"]) == EXIT_USAGE

    def test_overflow_guard_maps_to_numeric_exit(self):
        assert main(["count", "--n", "2", "--bound", str(2**40)]) == EXIT_NUMERIC

    def test_z_grid_budget_exit(self, monkeypatch):
        def no_grid(ranges):
            raise AssertionError("the z-grid must not be built")

        monkeypatch.setattr(counting, "_grid", no_grid)
        assert main(["count", "--n", "3", "--bound", "2000"]) == EXIT_BUDGET

    @pytest.mark.parametrize("n", [10**8, 10**12])
    def test_huge_dimension_refused_quickly(self, n, capsys):
        t0 = time.perf_counter()
        assert main(["count", "--n", str(n), "--bound", "1"]) == EXIT_BUDGET
        assert time.perf_counter() - t0 < 1.0
        assert f"n={n}, Z=1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["count", "--n", "1", "--bound", "33554432"],
        ["count", "--n", "2", "--bound", "100000000", "--convention", "E3"],
    ])
    def test_bound_budget_exit(self, argv):
        start = time.perf_counter()
        assert main(argv) == EXIT_BUDGET
        assert time.perf_counter() - start < 1.0


class TestCensusAndDelta:
    def test_census_formula(self, capsys, tmp_path):
        store = tmp_path / "runs.jsonl"
        assert main(["census", "--n", "3", "--mode", "formula", "--out", str(store)]) == EXIT_OK
        assert "60" in capsys.readouterr().out
        rec = read_jsonl(store)[0]
        assert rec["count"] == 60 and rec["picard_rank"] == 63

    def test_census_budget_exit(self):
        assert main(["census", "--n", "6", "--mode", "oracle"]) == EXIT_BUDGET

    def test_delta_budget_exit(self, monkeypatch):
        def no_kernel(x, y, c0=None):
            raise AssertionError("the kernel's j-set must not be built")

        monkeypatch.setattr(delta_method, "kernel_h", no_kernel)
        start = time.perf_counter()
        assert main(["delta", "--Q", "1e9"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 1.0

    def test_delta_kernel_term_budget_exit(self):
        start = time.perf_counter()
        assert main(["delta", "--Q", "2", "--l-range", "1000000000:1000000000"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 1.0

    def test_delta_zero_raw0_writes_record(self, capsys, tmp_path):
        # At Q=2 no q <= q_max reaches the window's support, so raw(0) = 0.
        store = tmp_path / "runs.jsonl"
        assert main(["delta", "--Q", "2", "--l-range", "0:1", "--out", str(store)]) == EXIT_OK
        assert "c_Q undefined" in capsys.readouterr().out
        rec = read_jsonl(store)[0]
        assert rec["raw"] == {"0": 0.0, "1": 0.0}
        assert rec["Q"] == 2 and rec["l_range"] == [0, 1]

    def test_delta_identity_smoke(self, capsys, tmp_path):
        store = tmp_path / "runs.jsonl"
        assert main(["delta", "--Q", "8", "--l-range", "0:2", "--out", str(store)]) == EXIT_OK
        rec = read_jsonl(store)[0]
        raw = rec["raw"]
        assert abs(raw["0"] - 1.0) < 0.05
        assert abs(raw["1"]) < 1e-10 and abs(raw["2"]) < 1e-10


class TestPredictAndCompare:
    def test_predict_smoke(self, capsys, tmp_path):
        store = tmp_path / "runs.jsonl"
        assert main(["predict", "--n", "2", "--p-max", "30", "--t-max", "15",
                     "--mc-samples", "20000", "--seed", "0", "--out", str(store)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "C =" in out and "sigma_p'" in out
        rec = read_jsonl(store)[0]
        assert rec["C"] > 0

    def test_predict_reproducible(self, tmp_path):
        store = tmp_path / "runs.jsonl"
        args = ["predict", "--n", "2", "--p-max", "30", "--t-max", "15",
                "--mc-samples", "20000", "--seed", "3", "--out", str(store)]
        main(args)
        main(args)
        a, b = read_jsonl(store)
        assert a["C"] == b["C"] and a["sigma_inf_prime"] == b["sigma_inf_prime"]

    @pytest.mark.parametrize("t_max", ["0", "-2", "-3"])
    def test_predict_t_max_below_one_is_usage_error(self, tmp_path, t_max):
        assert main(["predict", "--n", "2", "--p-max", "30", "--t-max", t_max,
                     "--mc-samples", "2000", "--out", str(tmp_path / "runs.jsonl")]) == EXIT_USAGE
        assert not (tmp_path / "runs.jsonl").exists()

    def test_predict_runs_each_mc_target_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = archimedean._mc_blocks

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(archimedean, "_mc_blocks", counting)
        store = tmp_path / "runs.jsonl"
        assert main(["predict", "--n", "2", "--p-max", "30", "--t-max", "15",
                     "--mc-samples", "20000", "--seed", "3", "--out", str(store)]) == EXIT_OK
        assert len(calls) == 3  # diagonal plus the two off-diagonal branches
        out = capsys.readouterr().out
        diag, off = (float(v) for v in re.search(
            r"diagonal = ([0-9.]+), off-diagonal = ([0-9.]+)", out).groups())
        rec = read_jsonl(store)[0]
        n = 2  # sigma_inf' = (n/2) * (diagonal + off-diagonal), each printed to 6 decimals
        assert (diag + off) * n / 2 == pytest.approx(rec["sigma_inf_prime"], abs=2e-6)
        # pinned from the engine that ran the MC twice: one run changes no bit
        assert {k: rec[k] for k in ("euler_product", "euler_tail", "sigma_inf_prime", "C", "C_stderr")} == {
            "euler_product": 1.011812835765607,
            "euler_tail": 1.0947925027305738,
            "sigma_inf_prime": 849.4359088933247,
            "C": 214.86753894462268,
            "C_stderr": 232.48920661223409,
        }

    def test_predict_n3_record_pinned(self, tmp_path):
        # at n = 3 each slab sums more than one term per row, so the order of
        # the MC's additions shows in these bits
        store = tmp_path / "runs.jsonl"
        assert main(["predict", "--n", "3", "--p-max", "30", "--t-max", "15",
                     "--mc-samples", "20000", "--seed", "3", "--out", str(store)]) == EXIT_OK
        rec = read_jsonl(store)[0]
        assert {k: rec[k] for k in ("sigma_inf_prime", "C", "C_stderr")} == {
            "sigma_inf_prime": 17391.98733494012,
            "C": 3422.739091484518,
            "C_stderr": 73.32156321109339,
        }

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_predict_seed_outside_64_bits_is_usage_error(self, tmp_path, capsys, seed):
        # -1 and 2**64 - 1 once keyed the same streams
        store = tmp_path / "runs.jsonl"
        assert main(["predict", "--n", "2", "--p-max", "30", "--t-max", "15",
                     "--mc-samples", "2000", "--seed", seed, "--out", str(store)]) == EXIT_USAGE
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not store.exists()

    def test_compare_csv_roundtrip(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        out_csv = tmp_path / "compare.csv"
        assert main(["compare", "--n", "2", "--bounds", "8,16",
                     "--p-max", "30", "--t-max", "15", "--mc-samples", "20000",
                     "--seed", "0", "--csv", str(out_csv), "--out", str(store)]) == EXIT_OK
        rec = read_jsonl(store)[0]
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for parsed, stored in zip(rows, rec["rows"]):
            assert int(parsed["B"]) == stored["B"]
            assert int(parsed["count"]) == stored["count"]
            assert float(parsed["r"]) == pytest.approx(stored["r"], rel=1e-15)
            assert float(parsed["predicted_C"]) == pytest.approx(stored["predicted_C"], rel=1e-15)
        for row in rec["rows"]:
            if row["count"] > 0:
                assert row["r"] > 0

    def test_compare_makes_one_counting_pass(self, tmp_path, monkeypatch):
        calls = []
        real = cli._height_hist

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "_height_hist", counting)
        store = tmp_path / "runs.jsonl"
        assert main(["compare", "--n", "2", "--bounds", "12,24", "--p-max", "30", "--t-max", "15",
                     "--mc-samples", "20000", "--out", str(store)]) == EXIT_OK
        assert len(calls) == 1
        conv = NAMED_CONVENTIONS["primitive"]
        rows = read_jsonl(store)[0]["rows"]
        assert [(row["B"], row["count"]) for row in rows] == [
            (B, count_points(2, B, conv).count) for B in (12, 24)]
