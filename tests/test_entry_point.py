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
import textwrap
from pathlib import Path

import pytest

import signedcut
from signedcut import cobra, save_graph
from test_cli import strict_json

PACKAGE_ROOT = str(Path(signedcut.__file__).resolve().parent.parent)


def child(cwd, *argv) -> subprocess.CompletedProcess:
    """Run ``python argv...`` in ``cwd``, importing signedcut from PACKAGE_ROOT only."""
    env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def cli(cwd, *argv) -> tuple[subprocess.CompletedProcess, dict]:
    """Run the CLI; check that its exit status is the ``exit_code`` of its run
    report, the last stderr line, in strict JSON, and return both."""
    proc = child(cwd, "-m", "signedcut.cli", *argv)
    report = strict_json(proc.stderr.splitlines()[-1])
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
    (["compare", "cobra.mtx", "--seed", "1"], 2, "signedcut compare: unrecognized arguments: --seed 1"),
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


@pytest.mark.skipif(sys.platform != "linux", reason="reads the resident set from /proc/self/status")
def test_dense_spectrum_holds_no_eigenbasis(tmp_path):
    """``spectrum --k 5`` at n = 1200 holds the matrix and one LAPACK copy of
    it, about 2 n^2 doubles; a full ``eigh`` holds at least 4 n^2 (its copy,
    the eigenbasis and syevd's 2 n^2 workspace).  The peak resident set
    (``VmHWM``) after the call may exceed the resident set (``VmRSS``) just
    before it by at most 3 n^2 doubles.  ``ru_maxrss`` would not do: a child
    can inherit its parent's, here the test runner's, through fork and exec.
    A smaller spectrum runs first, so that the measured call finds the
    modules and the BLAS buffers it uses already in place."""
    n = 1200
    for m in (400, n):
        proc, _ = cli(tmp_path, "gen", "path", "--n", str(m), "--out", f"p{m}.mtx")
        assert proc.returncode == 0, proc.stderr
    probe = textwrap.dedent(f"""
        import os
        from signedcut.cli import main

        def kib(field):
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))

        main(["spectrum", "p400.mtx", "--k", "5", "--out", os.devnull])
        before = kib("VmRSS")
        code = main(["spectrum", "p{n}.mtx", "--k", "5", "--out", "modes.csv"])
        print(code, kib("VmHWM") - before)
    """)
    proc = child(tmp_path, "-c", probe)
    assert proc.returncode == 0, proc.stderr
    code, growth_kib = map(int, proc.stdout.split())
    assert code == 0 and (tmp_path / "modes.csv").is_file()
    assert growth_kib * 1024 <= 3 * n * n * 8
