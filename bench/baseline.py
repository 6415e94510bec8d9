"""Record a baseline: every workload, untraced and traced, into one JSON file.

    python3 bench/baseline.py [--seeds 1 2 3] [--out bench/baseline.json]

Each run is a fresh ``bench/run.py`` process started from the repository
root.  The file keeps, per workload, the median of each metric over the
seeds, the attempted, failed and stalled op counts of the untraced runs, and
the solver facts of every iterative solve (iterations, matmat calls and
columns, converged flags, final residuals) of the first traced pass, taken
from the traced run's span file.  ``fail_frac`` counts wrong answers and
unconverged solves (the pinned stalls) over the ops attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    summary = next(json.loads(line.split(" ", 1)[1]) for line in proc.stderr.splitlines()
                   if line.startswith("summary "))
    return json.loads(proc.stdout.strip().splitlines()[-1]), summary


def solver_facts(workload: str, seed: int) -> dict:
    """Per op name: one record per iterative solve of the first traced pass."""
    with open(os.path.join(ROOT, ".bench_out", f"trace-{workload}-seed{seed}.json")) as fh:
        doc = json.load(fh)
    names = doc["meta"]["ops"]
    first = min((s["op"] for s in doc["solves"]), default=0) // len(names) * len(names)
    out: dict[str, list] = {}
    for s in doc["solves"]:
        if s["op"] < first + len(names):
            out.setdefault(names[s["op"] % len(names)], []).append(
                {k: s[k] for k in ("n", "k", "iterations", "matmat_calls", "matmat_columns",
                                   "converged", "residuals")})
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--out", default=os.path.join(ROOT, "bench", "baseline.json"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import run as bench_run  # for the machine record only

    doc = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        results, summaries = {0: [], 1: []}, []
        for seed in args.seeds:
            for trace in (0, 1):
                result, summary = run(name, seed, spec["run_seconds"], trace)
                results[trace].append(result)
                if trace == 0:
                    summaries.append(summary)
        entry = {"why": w["why"]}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rs = results[trace]
            entry[group] = {
                m["name"]: {"median": statistics.median(r["metrics"][m["name"]]["value"] for r in rs),
                            "values": [r["metrics"][m["name"]]["value"] for r in rs],
                            "unit": m["unit"]}
                for m in spec[group]
            }
        for key in ("attempted", "failed", "stalled"):
            entry[key] = [s[key] for s in summaries]
        entry["fail_frac"] = (sum(entry["failed"]) + sum(entry["stalled"])) / sum(entry["attempted"])
        entry["solves"] = {str(seed): solver_facts(name, seed) for seed in args.seeds}
        doc["workloads"][name] = entry
    doc["machine"] = bench_run.machine()
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
