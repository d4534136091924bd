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
    # _run_tasks is what a forked count worker runs; a module it imports
    # lazily (numpy.ma behind np.unique, say) is paid again by every worker.
    code = ("import json, sys, triprox.cli\n"
            "from triprox.counting import NAMED_CONVENTIONS, _run_tasks\n"
            "before = set(sys.modules)\n"
            "for name in ('primitive', 'E1', 'E3'):\n"
            "    c = NAMED_CONVENTIONS[name]\n"
            "    _run_tasks((3, 30, c.primitive, c.sign_fix, c.domain, range(1, 31)))\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    assert run_fresh(code) == []
