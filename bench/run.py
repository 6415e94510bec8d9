"""Run one signedcut benchmark workload and print its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --list

Run it from the repository root; the program is imported from ``src/``.
One process runs one workload as a closed loop with a single caller: each
op is one ``signedcut.cli.main(argv)`` call, issued when the previous one
has returned, and passes over the op list repeat until ``--seconds`` have
passed (at least three passes).  The outputs are then checked against
references the benchmark computes itself.  With ``--trace 1`` each op runs
untraced and traced back to back; the per-layer metrics come from the
traced runs and the tracing overhead from the paired differences.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A table of the same metrics
goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_PAIRED_PASSES = 4  # and an even number, so each order runs equally often
COMMANDS = ("partition", "compare", "spectrum", "metrics", "gen", "demo")


def import_seconds() -> float:
    """Interpreter start-up plus ``import signedcut.cli``, in a fresh process."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import signedcut.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src")], check=True)
    return time.perf_counter() - t0


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true", help="print every metric and workload, then exit")
    args = p.parse_args()
    if not args.list and args.workload is None:
        p.error("--workload is required")
    return args


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def units_of(group: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec()[group]}


def print_catalogue() -> None:
    doc = spec()
    for group in ("end_to_end", "per_layer"):
        print(f"{group}:")
        for m in doc[group]:
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:<34} {m['unit']:<6} {m['better']}{bound}")
    print("workloads:")
    for w in doc["workloads"]:
        print(f"  {w['name']:<14} {w['why']}")


def import_program():
    """Import signedcut from this checkout's src/, never from elsewhere."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import signedcut
    import signedcut.cli

    here = os.path.dirname(os.path.abspath(signedcut.__file__))
    if os.path.commonpath([here, src]) != src:
        raise ImportError(f"signedcut imported from {here}, not from {src}")
    return signedcut.cli


def machine() -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    info["blas_threads"] = int(getattr(lib, sym)())
                    break
    except OSError:
        pass
    return info


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, path).encode())
            with open(name, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Attempt:
    """One executed op: exit code, wall time, captured stdout, error, output digest."""

    __slots__ = ("op", "op_id", "code", "seconds", "stdout", "error", "digest")

    def __init__(self, op, op_id, code, seconds, stdout, error, digest):
        self.op, self.op_id, self.code, self.seconds = op, op_id, code, seconds
        self.stdout, self.error, self.digest = stdout, error, digest


def run_op(cli, op, op_id: int, log, tracer=None) -> Attempt:
    log.op = op_id
    if tracer is not None:
        tracer.op = op_id
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(list(op.argv))
            else:
                code = tracer.call("cli.main", cli.main, list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            code = -1
            print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        seconds = time.perf_counter() - t0
    error = None
    lines = err.getvalue().strip().splitlines()
    if lines:
        try:
            error = json.loads(lines[-1]).get("error")
        except ValueError:
            error = lines[-1]
    present = [p for p in op.outputs if os.path.exists(p)]
    return Attempt(op, op_id, code, seconds, out.getvalue(), error, digest(present) if present else "")


def run_pass(cli, ops, first_id: int, log) -> list[Attempt]:
    return [run_op(cli, op, first_id + k, log) for k, op in enumerate(ops)]


def run_traced(cli, op, op_id: int, log, tracer) -> Attempt:
    """One op with spans on."""
    tracer.install()
    log.tracer = tracer
    try:
        return run_op(cli, op, op_id, log, tracer)
    finally:
        log.tracer = None
        tracer.uninstall()


def run_passes(cli, ops, seconds: float, log) -> list[list[Attempt]]:
    """Closed loop over the op list until the time is up; at least MIN_PASSES."""
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < seconds:
        passes.append(run_pass(cli, ops, len(passes) * len(ops), log))
    return passes


def run_paired(cli, ops, seconds: float, log, tracer):
    """An untraced warm-up pass, then passes that run each op untraced and traced.

    The two runs of an op are back to back, so a slow stretch of the machine
    hits both; which one goes first alternates from pass to pass.  Returns
    the untraced passes (warm-up first) and the traced passes.
    """
    plain = [run_pass(cli, ops, 0, log)]
    traced = []
    started = time.perf_counter()
    while (len(traced) < MIN_PAIRED_PASSES or len(traced) % 2
           or time.perf_counter() - started < seconds):
        first_id = (len(plain) + len(traced)) * len(ops)
        untraced_pass, traced_pass = [], []
        for k, op in enumerate(ops):
            for with_spans in ((True, False) if len(traced) % 2 else (False, True)):
                if with_spans:
                    traced_pass.append(run_traced(cli, op, first_id + len(ops) + k, log, tracer))
                else:
                    untraced_pass.append(run_op(cli, op, first_id + k, log))
        plain.append(untraced_pass)
        traced.append(traced_pass)
    return plain, traced


def unconverged_error(attempt) -> bool:
    return attempt.code == 4 and "unconverged" in (attempt.error or "").lower()


def judge(ops, attempts, log, max_iter: int) -> tuple[int, int, list[str]]:
    """Count failed attempts and pinned stalls; collect messages.

    An iterative op that exits 4 as unconverged fails, unless the op is
    pinned as stalling at this commit and every solve of the attempt ran
    all max_iter iterations.
    """
    by_op = defaultdict(list)
    for a in attempts:
        by_op[id(a.op)].append(a)
    failed, stalls, messages = 0, 0, []
    for op in ops:
        tries = by_op[id(op)]
        stalled = [a for a in tries if op.stalls and unconverged_error(a) and log.of(a.op_id)
                   and all(r["iterations"] == max_iter for r in log.of(a.op_id))]
        # the reference behind expect() is only needed for other exit codes
        odd = [a for a in tries if a.code != 0 and a not in stalled]
        bad = [a for a in odd if a.code not in op.expect() or unconverged_error(a)]
        stalls += len(stalled)
        if stalled:
            messages.append(f"stalled as pinned {op.name}: {stalled[0].error}")
        if bad:
            failed += len(bad)
            want = f"{sorted(op.expect())}" + (f" or a stall at {max_iter} iterations" if op.stalls else "")
            messages.append(f"FAILED {op.name}: exit {bad[0].code} (expected {want}): {bad[0].error}")
            continue
        ok = [a for a in tries if a.code == 0]
        if not ok or op.check is None:
            continue
        if len({a.digest for a in ok}) > 1:
            failed += len(tries)
            messages.append(f"FAILED {op.name}: outputs differ between passes")
            continue
        try:
            problem = op.check(ok[-1])
        except Exception as exc:  # malformed output
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failed += len(tries)
            messages.append(f"FAILED {op.name}: {problem}")
    return failed, stalls, messages


def pass_seconds(passes) -> list[float]:
    return [sum(a.seconds for a in done) for done in passes]


def op_means(passes) -> list[float]:
    """Each op's mean time over the passes, in op-list order."""
    return [statistics.fmean(done[k].seconds for done in passes) for k in range(len(passes[0]))]


def mean_pass(passes, command: str | None = None) -> float:
    """Mean time of one pass over the op list, or over its ops of one subcommand.

    The machine's speed switches between states that last seconds to
    minutes; a mean weighs each state by the time spent in it, where a
    median jumps to whichever state held for most passes.
    """
    return sum(t for a, t in zip(passes[0], op_means(passes)) if command in (None, a.op.command))


def main() -> int:
    args = parse_args()
    if args.list:
        print_catalogue()
        return 0
    cli = import_program()
    from spans import SolveLog, Tracer
    from workloads import MAX_ITER, WORKLOADS

    build = WORKLOADS.get(args.workload)
    if build is None:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    units = units_of("end_to_end") | units_of("per_layer")
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            t0 = time.perf_counter()
            ops = build(args.seed, work)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(["gen", "cobra", "--out", os.path.join(work, "warm-up.mtx")])
            setups.append(time.perf_counter() - t0 + import_seconds())

        log = SolveLog()
        log.install()
        if args.trace:
            tracer = Tracer()
            plain_passes, traced_passes = run_paired(cli, ops, args.seconds, log, tracer)
        else:
            plain_passes, traced_passes = run_passes(cli, ops, args.seconds, log), []
        log.uninstall()
        attempts = [a for done in plain_passes + traced_passes for a in done]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed, stalled, messages = judge(ops, attempts, log, MAX_ITER)
        if args.trace:
            layer = tracer.per_pass(traced_passes)
            layer.update({f"cmd.{cmd}_s": mean_pass(plain_passes, cmd) for cmd in COMMANDS})
            layer["trace.run_s"] = mean_pass(traced_passes)
            layer["trace.overhead_s"] = sum(
                statistics.median(t[k].seconds - p[k].seconds for p, t in zip(plain_passes[1:], traced_passes))
                for k in range(len(ops)))
            metrics = {name: layer.get(name, 0.0) for name in units_of("per_layer")}
            traced_ids = {a.op_id for done in traced_passes for a in done}
            out_path = os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(out_path, {"workload": args.workload, "seed": args.seed, "machine": machine(),
                                    "ops": [op.name for op in ops]},
                         [r for r in log.records if r["op"] in traced_ids])
        else:
            found = {"run_s": mean_pass(plain_passes), "setup_s": statistics.median(setups),
                     "peak_rss_mb": peak_rss_mb}
            metrics = {name: found[name] for name in units_of("end_to_end")}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(args, metrics, units, attempts, plain_passes, traced_passes, failed, stalled, messages)
    result = {
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report(args, metrics, units, attempts, passes, traced_passes, failed, stalled, messages) -> None:
    err = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} untraced, {len(traced_passes)} traced  "
          f"ops/pass {len(passes[0])}  attempted {len(attempts)}  "
          f"failed {failed}  stalled {stalled}", file=err)
    # read by baseline.py, whose fail fraction counts stalled solves too
    print("summary " + json.dumps({"attempted": len(attempts), "failed": failed, "stalled": stalled}), file=err)
    print("machine " + json.dumps(machine()), file=err)
    print("pass seconds " + " ".join(f"{s:.4f}" for s in pass_seconds(passes)), file=err)
    if traced_passes:
        print("traced pass seconds " + " ".join(f"{s:.4f}" for s in pass_seconds(traced_passes)), file=err)
    for a, each in zip(passes[0], op_means(passes)):
        print(f"  op {a.op.name:<44} {each:10.4f} s", file=err)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}", file=err)
    for line in messages:
        print(line, file=err)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
