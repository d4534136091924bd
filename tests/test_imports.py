"""Import hygiene: each command loads only what it uses.

Every check runs in a fresh interpreter, so that modules a previous test
imported cannot hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(code: str):
    """Run ``code`` in a new interpreter with this checkout's ``src`` on the
    path, and return the JSON value of its last stdout line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_thread_pool_unloaded():
    # the MC imports its thread pool when it runs
    code = "import json, sys, triprox.cli; print(json.dumps('concurrent.futures.thread' in sys.modules))"
    assert run_fresh(code) is False


def test_count_threads_leave_process_machinery_unloaded():
    # a count runs on the calling thread, and `count --threads` is ignored:
    # neither the import nor a `--threads 2` count loads a thread pool,
    # a process pool or multiprocessing
    code = ("import contextlib, io, json, sys\n"
            "import triprox.cli\n"
            "pools = ('multiprocessing', 'concurrent.futures.process', 'concurrent.futures.thread')\n"
            "loaded = lambda: [m in sys.modules for m in pools]\n"
            "after_import = loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = triprox.cli.main(['count', '--n', '3', '--bound', '30', '--convention', 'mobius',\n"
            "                           '--threads', '2'])\n"
            "print(json.dumps([rc, after_import, loaded()]))")
    assert run_fresh(code) == [0, [False] * 3, [False] * 3]


@pytest.mark.parametrize("argv", [
    ["count", "--n", "2", "--bound", "10", "--convention", "primitive"],
    ["compare", "--n", "2", "--bounds", "8,12", "--p-max", "30", "--t-max", "15",
     "--mc-samples", "20000"],
    ["predict", "--n", "2", "--p-max", "30", "--t-max", "15", "--mc-samples", "20000"],
    ["census", "--n", "2"],
    ["delta", "--Q", "4", "--l-range", "0:1"],
], ids=lambda argv: argv[0])
def test_no_command_loads_scipy(argv):
    # sys.modules only grows, so this covers the bare import of triprox.cli
    code = ("import contextlib, io, json, sys\n"
            "from triprox.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = main({argv!r})\n"
            "print(json.dumps([rc, 'scipy' in sys.modules]))")
    assert run_fresh(code) == [0, False]


def test_count_worker_imports_nothing():
    # _count_pair_block scans one cap group; a module it, or the planning
    # and summing around it, imports lazily (numpy.ma behind np.unique,
    # say) is paid by every count command, inside its own time.  The counts
    # run with it stubbed out, and it then scans the groups they recorded.
    code = ("import json, sys, triprox.cli\n"
            "import triprox.counting as counting\n"
            "from triprox.counting import NAMED_CONVENTIONS, count_points, mobius_count\n"
            "scan, groups, marks = counting._count_pair_block, [], []\n"
            "counting._count_pair_block = lambda *group: groups.append(group)\n"
            "before = set(sys.modules)\n"
            "count_points(3, 30, NAMED_CONVENTIONS['primitive'])\n"
            "marks.append(len(groups))\n"
            "count_points(3, 30, NAMED_CONVENTIONS['E3'])\n"
            "marks.append(len(groups))\n"
            "mobius_count(3, 30)\n"
            "marks.append(len(groups))\n"
            "for group in groups:\n"
            "    scan(*group)\n"
            "print(json.dumps([marks, sorted(set(sys.modules) - before)]))")
    marks, imported = run_fresh(code)
    assert 0 < marks[0] < marks[1] < marks[2]
    assert imported == []


def test_prime_table_is_a_small_read_only_int32_view():
    # 78,498 primes at 4 bytes each: a tuple of Python ints added about 4.6 MB
    code = ("import json, resource\n"
            "from triprox.arith import prime_table\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "table = prime_table()\n"
            "grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024\n"
            "try:\n"
            "    table[0] = 2\n"
            "    refused = False\n"
            "except TypeError:\n"
            "    refused = True\n"
            "types = sorted({type(p).__name__ for p in table})\n"
            "print(json.dumps([grown, len(table), table[-1], types, refused]))")
    grown, size, last, types, refused = run_fresh(code)
    assert grown < 1.5
    assert (size, last, types, refused) == (78498, 999983, ["int"], True)


def test_count_adds_little_resident_memory():
    # count-n2-primitive grows the peak RSS of a fresh process by 1.26-1.52
    # MB over `import triprox.cli` alone.  Its arrays are small; the growth
    # is mostly numpy code pages, and a numpy routine the count did not call
    # before can add up to 0.5 MB more (a default int64 sort did at n=3),
    # which the bound catches while leaving about 0.3 MB for spread.
    code = ("import contextlib, io, json, resource\n"
            "import triprox.cli\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = triprox.cli.main(['count', '--n', '2', '--bound', '120', '--convention', 'primitive'])\n"
            "print(json.dumps([rc, (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024]))")
    rc, grown = run_fresh(code)
    assert rc == 0
    assert grown < 1.8


def test_every_traced_boundary_exists():
    # perfbench/tracing.py wraps each (module, name) of BOUNDARIES and skips
    # a missing one, so a rename would only drop metrics from the benchmark;
    # here it fails the tests.  The file is loaded by path, as it stands.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    code = ("import importlib, importlib.util, json, sys\n"
            f"spec = importlib.util.spec_from_file_location('tracing', {str(path)!r})\n"
            "tracing = importlib.util.module_from_spec(spec)\n"
            "sys.modules['tracing'] = tracing\n"
            "spec.loader.exec_module(tracing)\n"
            "names = [(mod, attr) for mod, attr, *_ in tracing.BOUNDARIES]\n"
            "missing = [[mod, attr] for mod, attr in names\n"
            "           if not callable(getattr(importlib.import_module('triprox.' + mod), attr, None))]\n"
            "print(json.dumps([len(names), missing]))")
    size, missing = run_fresh(code)
    assert size > 0
    assert missing == []
