"""scipy and thread machinery stay off the run-time path.

No import or CLI command loads scipy or ``concurrent``, and each ends with
the one thread it started on.  Each case runs in a fresh interpreter, since
this test session has scipy loaded already (the oracles in ``_threshold.py``
use it).  The interpreter runs with ``-W error``, so a command that warns
fails here as well.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import boundstates
from test_cli import HEADER_RUNS

# Imports the package, runs the CLI on the arguments if there are any, and
# prints the exit code, the count of live threads and the loaded scipy and
# concurrent modules as its last line.
_PROBE = """
import sys
import threading
import boundstates
code = 0
if sys.argv[1:]:
    from boundstates.cli import main
    code = main(sys.argv[1:])
loaded = (m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent"))
print(code, threading.active_count(), *sorted(loaded))
"""


def _probe(*argv):
    """Exit code of ``boundstates *argv``, its live threads at the end, and
    the scipy and concurrent modules it loaded."""
    env = dict(os.environ)
    src = str(Path(boundstates.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    code, threads, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), int(threads), set(modules)


def test_import_loads_no_scipy():
    assert _probe() == (0, 1, set())


# The coupling-curve commands run with their header-test arguments; "{tmp}"
# stands for the test's directory.
_CURVE_COMMANDS = ("sweep", "invert", "threshold")


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--potential", "gaussian", "--lambda", "1", "--parity", "even"),
        ("solve-waxman", "--potential", "gaussian", "--epsilon", "0.5"),
        ("solve-lanczos", "--potential", "gaussian", "--n-points", "161"),
        *((name, *HEADER_RUNS[name].split()) for name in _CURVE_COMMANDS),
    ],
    ids=["oracle-shooting", "solve-waxman", "solve-lanczos", *_CURVE_COMMANDS],
)
def test_kernel_and_shooting_commands_load_no_scipy(argv, tmp_path):
    code, _, modules = _probe(*(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 0
    assert modules == set()


def test_reproduce_paper_loads_no_scipy(tmp_path):
    code, threads, modules = _probe("reproduce-paper", "--output-dir", str(tmp_path))
    assert code == 2  # the excited_threshold row fails the published value
    assert threads == 1
    assert modules == set()


def test_large_lanczos_history_stays_on_one_thread_and_loads_no_scipy():
    # n * m = 240100 is above the gemm gate.  The history reads no core count,
    # so it scores on the calling thread on any host.
    argv = ("--potential", "gaussian", "--n-points", "2401", "-m", "100")
    assert _probe("solve-lanczos", *argv) == (0, 1, set())
