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
    # _count_blocks is what a forked count worker runs; a module it imports
    # lazily (numpy.ma behind np.unique, say) is paid again by every worker.
    # The payloads come from the planner, with the worker stubbed out.
    code = ("import json, sys, triprox.cli\n"
            "import triprox.counting as counting\n"
            "from triprox.counting import NAMED_CONVENTIONS, count_points, mobius_count\n"
            "worker, payloads = counting._count_blocks, []\n"
            "counting._count_blocks = lambda p: payloads.append(p) or [0] * p[2]\n"
            "count_points(3, 30, NAMED_CONVENTIONS['primitive'])\n"
            "count_points(3, 30, NAMED_CONVENTIONS['E3'])\n"
            "mobius_count(3, 30)\n"
            "before = set(sys.modules)\n"
            "for p in payloads:\n"
            "    worker(p)\n"
            "print(json.dumps([[p[2] for p in payloads], sorted(set(sys.modules) - before)]))")
    nbounds, imported = run_fresh(code)
    assert nbounds[:2] == [1, 1] and nbounds[2] > 1
    assert imported == []
