"""The CLI as a separate process: exit statuses, stdout and the stderr run report.

``tests/test_cli.py`` checks ``main()`` in-process; this module checks only
what a process of its own can show: that the exit status is the report's
``exit_code`` and that the report is the last stderr line, whatever the
code.  Each case runs ``python -m signedcut.cli`` in an empty directory,
with ``PYTHONPATH`` set to the directory that holds the ``signedcut``
package this test process imported, so a run against an installed
package checks that package and nothing from a source tree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signedcut
from signedcut import cobra, save_graph

PACKAGE_ROOT = str(Path(signedcut.__file__).resolve().parent.parent)


def child(cwd, *argv) -> subprocess.CompletedProcess:
    """Run ``python argv...`` in ``cwd``, importing signedcut from PACKAGE_ROOT only."""
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def cli(cwd, *argv) -> tuple[subprocess.CompletedProcess, dict]:
    """Run the CLI; check that its exit status is the ``exit_code`` of its run
    report, the last stderr line, and return both."""
    proc = child(cwd, "-m", "signedcut.cli", *argv)
    report = json.loads(proc.stderr.splitlines()[-1])
    assert proc.returncode == report["exit_code"]
    assert report["command"] == ["signedcut", *argv]
    return proc, report


def test_child_imports_this_package(tmp_path):
    proc = child(tmp_path, "-c", "import signedcut; print(signedcut.__file__)")
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(signedcut.__file__).resolve()


def test_version(tmp_path):
    proc, report = cli(tmp_path, "--version")
    assert proc.returncode == 0
    assert proc.stdout == f"signedcut {signedcut.__version__}\n"


def test_demo_into_its_default_directory(tmp_path):
    proc, report = cli(tmp_path, "demo", "cobra")
    assert proc.returncode == 0 and report["error"] is None
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["signed_first_bisects"] is False
    assert report["outputs"] == [os.path.join("demo-cobra", name) for name in ("cobra.mtx", "cobra.json")]
    assert all((tmp_path / path).is_file() for path in report["outputs"])


@pytest.mark.parametrize("argv, code, error", [
    (["compare", "cobra.mtx", "--seed", "1"], 2, "signedcut: unrecognized arguments: --seed 1"),
    (["partition", "no-such-file.mtx"], 3, "No such file or directory: 'no-such-file.mtx'"),
    # the paper's degenerate example: cobra's signed Fiedler vector has no sign change
    (["partition", "cobra.mtx", "--laplacian", "signed"], 4, "all components fall on one side"),
    (["partition", "two.csv"], 5, "graph is disconnected"),
], ids=["usage", "missing-file", "solver", "disconnected"])
def test_failure_exit_status(tmp_path, argv, code, error):
    save_graph(cobra(), tmp_path / "cobra.mtx")
    (tmp_path / "two.csv").write_text("i,j,w\n0,1,1.0\n2,3,1.0\n")
    proc, report = cli(tmp_path, *argv)
    assert proc.returncode == code and proc.stdout == ""
    assert error in report["error"]
