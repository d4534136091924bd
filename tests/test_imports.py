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


def test_cli_import_leaves_scipy_unloaded():
    assert run_fresh("import json, sys, triprox.cli; print(json.dumps('scipy' in sys.modules))") is False


def test_cli_import_leaves_thread_pool_unloaded():
    # the MC imports its thread pool when it runs
    code = "import json, sys, triprox.cli; print(json.dumps('concurrent.futures.thread' in sys.modules))"
    assert run_fresh(code) is False


def test_count_threads_leave_process_machinery_unloaded():
    # count workers are threads of the calling process: neither the import
    # nor a two-worker count loads multiprocessing or the process pool
    code = ("import contextlib, io, json, sys\n"
            "import triprox.cli\n"
            "loaded = lambda: [m in sys.modules for m in ('multiprocessing', 'concurrent.futures.process')]\n"
            "after_import = loaded()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = triprox.cli.main(['count', '--n', '3', '--bound', '30', '--convention', 'mobius',\n"
            "                           '--threads', '2'])\n"
            "print(json.dumps([rc, after_import, loaded()]))")
    assert run_fresh(code) == [0, [False, False], [False, False]]


@pytest.mark.parametrize("argv, loads_scipy", [
    (["count", "--n", "2", "--bound", "10", "--convention", "primitive"], False),
    (["compare", "--n", "2", "--bounds", "8,12", "--p-max", "30", "--t-max", "15",
      "--mc-samples", "20000", "--threads", "2"], False),
    (["predict", "--n", "2", "--p-max", "30", "--t-max", "15", "--mc-samples", "20000"], False),
    (["census", "--n", "2"], False),
    (["delta", "--Q", "4", "--l-range", "0:1"], True),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_only_delta_loads_scipy(argv, loads_scipy):
    code = ("import contextlib, io, json, sys\n"
            "from triprox.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = main({argv!r})\n"
            "print(json.dumps([rc, 'scipy' in sys.modules]))")
    assert run_fresh(code) == [0, loads_scipy]


def test_count_worker_imports_nothing():
    # _count_share is what each count worker thread runs; a module it, or
    # the planning and summing around it, imports lazily (numpy.ma behind
    # np.unique, say) is paid by every count command, inside its own time.
    # The counts run with the worker stubbed out, and the worker then runs
    # on the shares they dealt.
    code = ("import json, sys, triprox.cli\n"
            "import numpy as np\n"
            "import triprox.counting as counting\n"
            "from triprox.counting import NAMED_CONVENTIONS, count_points, mobius_count\n"
            "worker, payloads = counting._count_share, []\n"
            "def stub(size, digits, start, caps, groups):\n"
            "    payloads.append((size, digits, start, caps, groups))\n"
            "    return np.zeros(size, dtype=np.int64)\n"
            "counting._count_share = stub\n"
            "before = set(sys.modules)\n"
            "count_points(3, 30, NAMED_CONVENTIONS['primitive'])\n"
            "count_points(3, 30, NAMED_CONVENTIONS['E3'])\n"
            "mobius_count(3, 30)\n"
            "groups = [len(p[4]) for p in payloads]\n"
            "for p in payloads:\n"
            "    worker(*p)\n"
            "print(json.dumps([groups, sorted(set(sys.modules) - before)]))")
    groups, imported = run_fresh(code)
    assert len(groups) == 3 and min(groups) > 0
    assert imported == []
