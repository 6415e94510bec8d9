"""Byte battery: a digest of every benchmark op and a fixed list of extra commands.

    python3 tools/battery.py [--seeds 1 2 3] [--out FILE] [--against FILE]

Run it from the root of a checkout; it imports that checkout's ``src/``
and ``bench/`` and writes into neither.  Each op runs in process through
``signedcut.cli.main`` under a temporary directory: every op of the
benchmark workloads (``bench/workloads.py``'s ``WORKLOADS``) for each seed,
then ``partition`` with both kinds and both solvers, and ``compare``, on
the all-negative K3-K6, K4, a unit 10-path and a 30-vertex unit ring with
one -1e-8 edge, and on the path and the ring ``spectrum`` with both kinds,
both solvers, ``--k`` 2 and 7 (7 is past the shifted solves, so the dense
route takes ``eigh``), with and without ``--deflate-ones``.  An op's digest is the sha256 of its exit code, its stdout,
and the relative path and bytes of each file it wrote.  ``--out`` writes
the manifest ``{op: digest}`` as JSON; ``--against`` lists the ops whose
digest differs from (or is missing in) another checkout's manifest, and
exits 1 when there is one.

Dense outputs depend on the BLAS thread count, so OPENBLAS_NUM_THREADS is
set to 1 before numpy loads, unless it is already set: compare manifests
made at one count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _graphs(sc) -> dict:
    """The extra commands' graphs by file stem."""
    def clique(n: int, w: float):
        return sc.graph_from_edges(n, [(i, j, w) for i, j in itertools.combinations(range(n), 2)])

    ring = [(i, i + 1, 1.0) for i in range(29)] + [(0, 29, -1e-8)]
    return {
        **{f"negative-k{n}": clique(n, -1.0) for n in (3, 4, 5, 6)},
        "k4": clique(4, 1.0),
        "path-10": sc.path_string(sc.StringSpec(10)),
        "ring-30": sc.graph_from_edges(30, ring),
    }


def _extra_ops(sc, work: str) -> list[tuple[str, list[str]]]:
    ops = []
    for stem, g in _graphs(sc).items():
        path = os.path.join(work, f"{stem}.mtx")
        sc.save_graph(g, path)
        for kind, solver in itertools.product(("standard", "signed"), ("dense", "lobpcg")):
            ops.append((f"extra/partition/{solver}/{kind}:{stem}",
                        ["partition", path, "--laplacian", kind, "--solver", solver]))
        ops.append((f"extra/compare:{stem}", ["compare", path]))
        if stem in ("path-10", "ring-30"):
            for kind, solver, k, deflate in itertools.product(
                    ("standard", "signed"), ("dense", "lobpcg"), ("2", "7"), ((), ("--deflate-ones",))):
                ops.append((f"extra/spectrum/{solver}/{kind}/k{k}{''.join(deflate)}:{stem}",
                            ["spectrum", path, "--laplacian", kind, "--solver", solver, "--k", k, *deflate]))
    return ops


def _files(work: str) -> dict[str, tuple[int, int]]:
    """Each file under ``work`` by relative path, with its modification time and size."""
    stamps = {}
    for d, _, names in os.walk(work):
        for f in names:
            st = os.stat(os.path.join(d, f))
            stamps[os.path.relpath(os.path.join(d, f), work)] = (st.st_mtime_ns, st.st_size)
    return stamps


def _digest(cli, argv: list[str], work: str) -> str:
    """The op's digest: exit code, stdout, and each file it wrote, by relative path."""
    before = _files(work)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an outcome to compare, not the battery's failure
            code = f"crash {type(exc).__name__}: {exc}"
    h = hashlib.sha256(f"{code}\n".encode())
    h.update(out.getvalue().encode())
    for name, stamp in sorted(_files(work).items()):
        if before.get(name) != stamp:
            h.update(f"\n{name}\n".encode())
            with open(os.path.join(work, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def manifest(seeds: list[int]) -> dict[str, str]:
    for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")):
        sys.path.insert(0, path)
    sys.dont_write_bytecode = True  # bench/ and src/ stay as they are
    import signedcut as sc
    import signedcut.cli
    from workloads import WORKLOADS

    digests: dict[str, str] = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, seed in itertools.product(WORKLOADS, seeds):
                work = tempfile.mkdtemp(dir=tmp)
                for op in WORKLOADS[name](seed, work):
                    digests[f"{name}/{seed}/{op.name}"] = _digest(signedcut.cli, op.argv, work)
            work = tempfile.mkdtemp(dir=tmp)
            for op_name, argv in _extra_ops(sc, work):
                digests[op_name] = _digest(signedcut.cli, argv, work)
        finally:
            os.chdir(home)
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--out", help="write the manifest here")
    parser.add_argument("--against", help="a manifest to compare with")
    args = parser.parse_args()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    digests = manifest(args.seeds)
    print(f"{len(digests)} ops at OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
    if args.against:
        with open(args.against) as fh:
            other = json.load(fh)
        differ = sorted(k for k in digests.keys() | other.keys() if digests.get(k) != other.get(k))
        for k in differ:
            print(f"differs: {k}")
        print(f"{len(differ)} of {len(digests.keys() | other.keys())} ops differ")
        return int(bool(differ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
