import csv
import importlib.util
import json
import pathlib
import re
import sys
import time

import pytest

import triprox.archimedean as archimedean
import triprox.assembly as assembly
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

    def test_several_bounds_make_one_counting_pass(self, tmp_path, monkeypatch):
        calls = []
        real = cli.count_at_bounds

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "count_at_bounds", counting)
        store = tmp_path / "runs.jsonl"
        assert main(["count", "--n", "2", "--bound", "12,6,24", "--convention", "E2",
                     "--out", str(store)]) == EXIT_OK
        assert [args[1] for args in calls] == [[12, 6, 24]]
        records = read_jsonl(store)
        conv = NAMED_CONVENTIONS["E2"]
        assert [(rec["B"], rec["count"]) for rec in records] == [
            (B, count_points(2, B, conv).count) for B in (12, 6, 24)]
        assert len({rec["elapsed_ms"] for rec in records}) == 1

    def test_mobius_counts_each_bound_on_its_own(self, tmp_path):
        store = tmp_path / "runs.jsonl"
        assert main(["count", "--n", "2", "--bound", "20,25", "--convention", "mobius",
                     "--out", str(store)]) == EXIT_OK
        conv = NAMED_CONVENTIONS["primitive"]
        assert [(rec["B"], rec["count"]) for rec in read_jsonl(store)] == [
            (B, count_points(2, B, conv).count) for B in (20, 25)]

    @pytest.mark.parametrize("threads", ["2", "0", "-1"])
    def test_threads_is_accepted_and_ignored(self, tmp_path, threads):
        # the benchmark's mobius-n3 command passes --threads 2, and its gate
        # reads the record; a count runs on the calling thread either way,
        # and no value of the flag, not even a nonpositive one, changes it
        records = []
        for extra in ([], ["--threads", threads]):
            store = tmp_path / f"runs{len(records)}.jsonl"
            assert main(["count", "--n", "3", "--bound", "30", "--convention", "mobius",
                         "--out", str(store), *extra]) == EXIT_OK
            (record,) = read_jsonl(store)
            del record["timestamp"], record["elapsed_ms"]
            records.append(record)
        assert records[0] == records[1]
        assert records[0]["count"] == 950859264

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

    @pytest.mark.parametrize("argv", [
        ["count", "--n", "2", "--bound", "10", "--out"],
        ["census", "--n", "2", "--out"],
        ["compare", "--n", "2", "--bounds", "8", "--p-max", "30", "--mc-samples", "2000", "--out"],
        ["compare", "--n", "2", "--bounds", "8", "--p-max", "30", "--mc-samples", "2000", "--csv"],
    ], ids=lambda argv: f"{argv[0]} {argv[-1]}")
    def test_unwritable_output_path_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        # the file's directory is missing, or the path is a directory: one line
        # on stderr, no traceback, and no work is done before the refusal
        def no_work(*args, **kwargs):
            raise AssertionError("the output path must be checked before any work")

        for name in ("count_points", "count_at_bounds", "predicted_constant", "census"):
            monkeypatch.setattr(cli, name, no_work)
        for path in (tmp_path / "missing" / "x", tmp_path):
            assert main([*argv, str(path)]) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
            assert list(tmp_path.iterdir()) == []

    def test_invalid_dimension_maps_to_usage(self):
        assert main(["count", "--n", "0", "--bound", "4"]) == EXIT_USAGE

    def test_overflow_guard_maps_to_numeric_exit(self):
        assert main(["count", "--n", "2", "--bound", str(2**40)]) == EXIT_NUMERIC

    def test_z_grid_budget_exit(self, monkeypatch):
        def no_grid(ranges):
            raise AssertionError("the z-grid must not be built")

        monkeypatch.setattr(counting, "_grid", no_grid)
        assert main(["count", "--n", "3", "--bound", "2000"]) == EXIT_BUDGET

    @pytest.mark.parametrize("n, bound", [(24, 1), (10, 3), (13, 2)])
    def test_large_z_table_refused_quickly(self, n, bound, capsys):
        t0 = time.perf_counter()
        assert main(["count", "--n", str(n), "--bound", str(bound)]) == EXIT_BUDGET
        assert time.perf_counter() - t0 < 1.0
        assert f"z-table (2Z)^(n-1) (n={n}, Z={bound})" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [10**8, 10**12])
    def test_huge_dimension_refused_quickly(self, n, capsys):
        t0 = time.perf_counter()
        assert main(["count", "--n", str(n), "--bound", "1"]) == EXIT_BUDGET
        assert time.perf_counter() - t0 < 1.0
        assert f"n={n}, Z=1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["count", "--n", "1", "--bound", "33554432"],
        ["count", "--n", "2", "--bound", "100000000", "--convention", "E3"],
        # within the per-row z-grid budget, over the cells summed over blocks
        ["count", "--n", "2", "--bound", "3840"],
        # refused before the O(B) Mobius table is built
        ["count", "--n", "1", "--bound", "33554432", "--convention", "mobius"],
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
        assert rec["count"] == 60 and "picard_rank" not in rec

    def test_census_huge_n_refused_before_counting(self, capsys):
        # n=100000 has 60207 digits, past str()'s default limit of 4300;
        # n=7000 has 4215 and prints
        t0 = time.perf_counter()
        assert main(["census", "--n", "100000"]) == EXIT_BUDGET
        assert time.perf_counter() - t0 < 1.0
        assert "n=100000" in capsys.readouterr().err
        assert main(["census", "--n", "7000"]) == EXIT_OK
        assert str(4**7001 - 3 * 3**7001 + 3 * 2**7001 - 1) in capsys.readouterr().out

    def test_census_budget_exit(self):
        assert main(["census", "--n", "6", "--mode", "oracle"]) == EXIT_BUDGET

    def test_delta_budget_exit(self, monkeypatch):
        def no_kernel(x, y, c0=None):
            raise AssertionError("the kernel's j-set must not be built")

        monkeypatch.setattr(delta_method, "kernel_h", no_kernel)
        start = time.perf_counter()
        assert main(["delta", "--Q", "1e9"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("Q", ["inf", "nan"])
    def test_delta_non_finite_Q_is_a_usage_error(self, Q, capsys, tmp_path):
        store = tmp_path / "runs.jsonl"
        assert main(["delta", "--Q", Q, "--out", str(store)]) == EXIT_USAGE
        assert f"Q must be a finite number >= 2, got {Q}" in capsys.readouterr().err
        assert not store.exists()

    def test_delta_kernel_term_budget_exit(self):
        start = time.perf_counter()
        assert main(["delta", "--Q", "2", "--l-range", "1000000000:1000000000"]) == EXIT_BUDGET
        assert time.perf_counter() - start < 1.0

    def test_delta_zero_raw0_writes_record(self, capsys, tmp_path):
        # At Q=2 no q reaches the window's support, so raw(0) = 0.
        store = tmp_path / "runs.jsonl"
        assert main(["delta", "--Q", "2", "--l-range", "0:1", "--out", str(store)]) == EXIT_OK
        assert "c_Q undefined" in capsys.readouterr().out
        rec = read_jsonl(store)[0]
        assert rec["raw"] == {"0": 0.0, "1": 0.0}
        assert rec["Q"] == 2 and rec["l_range"] == [0, 1]

    def test_delta_sums_past_q_squared(self, tmp_path):
        # |l| > Q^2 = 16 needs q past ceil(2Q) = 8: raw(21) reads -0.1229 when the sum stops there
        store = tmp_path / "runs.jsonl"
        assert main(["delta", "--Q", "4", "--l-range", "18:22", "--out", str(store)]) == EXIT_OK
        rec = read_jsonl(store)[0]
        assert rec["q_max"] == 11  # ceil(2 * 22 / 4)
        assert list(rec["raw"]) == ["18", "19", "20", "21", "22"]
        assert all(abs(raw) <= 1e-12 for raw in rec["raw"].values())

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

    @pytest.mark.parametrize("bad", [["--seed=-1"], ["--seed", str(2**64)], ["--mc-samples", "1"]])
    def test_bad_mc_input_refused_before_the_euler_product(self, tmp_path, monkeypatch, bad):
        def no_product(*args, **kwargs):
            raise AssertionError("the Euler product must not run")

        monkeypatch.setattr(assembly, "euler_product", no_product)
        store = tmp_path / "runs.jsonl"
        assert main(["predict", "--n", "2", "--p-max", "1000000", *bad, "--out", str(store)]) == EXIT_USAGE
        assert not store.exists()

    def test_n_beyond_the_stream_tags_refused_before_the_euler_product(self, tmp_path, capsys, monkeypatch):
        def no_product(*args, **kwargs):
            raise AssertionError("the Euler product must not run")

        monkeypatch.setattr(assembly, "euler_product", no_product)
        store = tmp_path / "runs.jsonl"
        assert main(["predict", "--n", "64", "--p-max", "1000000", "--out", str(store)]) == EXIT_USAGE
        assert "MC stream tags need n < 64" in capsys.readouterr().err
        assert not store.exists()

    def test_predict_prints_the_parents_density_table(self, capsys):
        assert main(["predict", "--n", "2", "--p-max", "30", "--t-max", "15",
                     "--mc-samples", "20000", "--seed", "3"]) == EXIT_OK
        lines = [line for line in capsys.readouterr().out.splitlines() if "sigma_p' =" in line]
        assert lines == [
            "    p=2   sigma_p' = 0.792968699355",
            "    p=3   sigma_p' = 1.038256363359",
            "    p=5   sigma_p' = 1.071677440000",
            "    p=7   sigma_p' = 1.052375962327",
            "    p=11  sigma_p' = 1.027783402172",
            "    p=13  sigma_p' = 1.021255567708",
            "    p=17  sigma_p' = 1.013499508997",
            "    p=19  sigma_p' = 1.011108254030",
        ]
        # the table stops at p_max when p_max < 20
        assert main(["predict", "--n", "3", "--p-max", "7", "--mc-samples", "20000"]) == EXIT_OK
        lines = [line for line in capsys.readouterr().out.splitlines() if "sigma_p' =" in line]
        assert lines == [
            "    p=2   sigma_p' = 0.999750876913",
            "    p=3   sigma_p' = 1.089952138502",
            "    p=5   sigma_p' = 1.044115018355",
            "    p=7   sigma_p' = 1.021141591243",
        ]

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
            reader = csv.DictReader(fh)
            rows = list(reader)
        # the header is the row dict's keys, in their order
        assert reader.fieldnames == list(rec["rows"][0]) == ["B", "count", "r", "predicted_C"]
        assert len(rows) == 2
        for parsed, stored in zip(rows, rec["rows"]):
            assert int(parsed["B"]) == stored["B"]
            assert int(parsed["count"]) == stored["count"]
            assert float(parsed["r"]) == pytest.approx(stored["r"], rel=1e-15)
            assert float(parsed["predicted_C"]) == pytest.approx(stored["predicted_C"], rel=1e-15)
        for row in rec["rows"]:
            if row["count"] > 0:
                assert row["r"] > 0

    @pytest.mark.parametrize("argv", [
        ["count", "--n", "2", "--bound", "10"],
        ["predict", "--n", "2"],
        ["delta", "--Q", "4"],
        ["census", "--n", "2"],
        ["compare", "--n", "2", "--bounds", "10"],
    ], ids=lambda argv: argv[0])
    def test_prediction_option_defaults(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert args.out is None
        if argv[0] in ("predict", "compare"):
            assert (args.p_max, args.t_max, args.mc_samples, args.seed) == (1000, 40, 1_000_000, 0)
        if argv[1] == "--n":  # --n is required wherever it is an option
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args([argv[0], *argv[3:]])
            assert exc.value.code == EXIT_USAGE

    def test_option_surface(self):
        # every option each subcommand accepts: adding or removing one means editing this list
        surface = {
            "count": ["--n", "--out", "--bound", "--convention", "--threads"],
            "predict": ["--n", "--p-max", "--t-max", "--mc-samples", "--seed", "--out"],
            "delta": ["--out", "--Q", "--l-range"],
            "census": ["--n", "--out", "--mode"],
            "compare": ["--n", "--p-max", "--t-max", "--mc-samples", "--seed", "--out", "--bounds", "--csv"],
        }
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
        got = {name: [opt for a in p._actions for opt in a.option_strings if opt not in ("-h", "--help")]
               for name, p in sub.choices.items()}
        assert got == surface
        assert [opt for a in parser._actions for opt in a.option_strings] == ["-h", "--help"]

    def test_compare_makes_one_counting_pass(self, tmp_path, monkeypatch):
        calls = []
        real = cli.count_at_bounds

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "count_at_bounds", counting)
        store = tmp_path / "runs.jsonl"
        assert main(["compare", "--n", "2", "--bounds", "12,24", "--p-max", "30", "--t-max", "15",
                     "--mc-samples", "20000", "--out", str(store)]) == EXIT_OK
        assert [args[1] for args in calls] == [[12, 24]]
        conv = NAMED_CONVENTIONS["primitive"]
        rows = read_jsonl(store)[0]["rows"]
        assert [(row["B"], row["count"]) for row in rows] == [
            (B, count_points(2, B, conv).count) for B in (12, 24)]


class TestBenchmarkCounters:
    def test_predict_side_layer_counters_survive(self, capsys, monkeypatch):
        # The benchmark's tracer silently drops a counter whose result field is
        # gone; these four read the prediction results' fields and arguments.
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            assert main(["predict", "--n", "2", "--p-max", "50", "--mc-samples", "2000"]) == EXIT_OK
        metrics = tracing.layer_metrics(tracer)
        for name in ("local_densities.euler_product.rel_tail", "archimedean.sigma_inf_prime.rel_stderr",
                     "assembly.predicted_constant.rel_stderr", "archimedean.mc.samples"):
            assert metrics.get(name, 0) > 0, name
