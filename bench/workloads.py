"""The benchmark workloads: their inputs, their CLI ops and the checks.

``build`` is the set-up: it makes the seeded inputs with the program's own
``graph_from_edges``/generators and writes them with ``save_graph``.  Each
op is one ``signedcut.cli.main(argv)`` call.  Its check compares the
outputs with a reference the benchmark computes itself, after the timed
passes.  Every function called from a check returns an error string, or
None when the output is right.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from inputs import EdgeArrays, random_sides, random_signed_graph

# The lobpcg-8k graph is one fixed draw of the random family; --seed draws
# its vertex labels and the solver's start block, because independent draws
# of the family differ about 2x in iterations.  The CLI defaults (block 2 or
# 3, tol 1e-8) need two to three times the iterations of block size 5 and
# tol 1e-5 on it, with a wider spread between start blocks.
LOBPCG_FAMILY_SEED = 0
# Sizes are set so that several passes fit in one 30 s run on a 2-core
# machine.
DENSE_N, DENSE_M = 1200, 7200
LOBPCG_N, LOBPCG_M = 8000, 48000
DEFAULT_TOL = 1e-8  # the CLI's --tol default
MAX_ITER = 200  # passed explicitly, so a change of the CLI default cannot change the work
LOBPCG_FLAGS = ("--block-size", "5", "--tol", "1e-5")


@dataclass
class Op:
    """One CLI call, the files it writes, and how to judge its outcome."""

    name: str
    argv: list[str]
    outputs: tuple[str, ...] = ()
    # called with the last successful attempt (its .stdout is the op's stdout)
    check: Callable[[object], str | None] | None = None
    expect: Callable[[], set[int]] = lambda: {0}
    # Pinned: at this commit the iterative solve stops unconverged at
    # MAX_ITER.  Only such an op may exit 4 as unconverged without failing,
    # and only after MAX_ITER iterations; a right answer is accepted too.
    stalls: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


# --- input helpers -------------------------------------------------------------


def _to_arrays(g) -> EdgeArrays:
    ii, jj, ww = g.edge_arrays()
    return EdgeArrays(g.n, np.asarray(ii, np.int64), np.asarray(jj, np.int64), np.asarray(ww, float))


def _write(sc, arrays: EdgeArrays, *paths: str) -> None:
    graph = sc.graph_from_edges(arrays.n, arrays.triples())
    for path in paths:
        sc.save_graph(graph, path)


def _write_sides(side: np.ndarray, path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"n": len(side), "side": [int(s) for s in side]}, fh)


def _close(a: float, b: float, rel: float, scale: float = 1.0) -> bool:
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(scale, abs(a), abs(b))


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# --- checks --------------------------------------------------------------------


def _spread_scale(f: ref.Fiedler) -> float:
    return max(1.0, abs(f.spread) if math.isfinite(f.spread) else abs(f.eigenvalue))


def check_partition(path: str, g: EdgeArrays, signed: bool, fref: Callable[[], ref.Fiedler],
                    tol: float | None) -> str | None:
    """Check a partition file; ``tol`` is the iterative solver's tolerance.

    The residual r of the reported pair must meet the solver's (or, for the
    dense route, rounding-level) tolerance; the eigenvalue must then lie
    within r^2/gap of the reference and the vector within angle r/gap.
    """
    doc = _load_json(path)
    f = fref()
    if doc["n"] != g.n or doc["kind"] != ("signed" if signed else "standard"):
        return f"partition header n={doc['n']} kind={doc['kind']}"
    v = np.asarray(doc["fiedler"], dtype=float)
    lam = float(doc["eigenvalue"])
    scale = _spread_scale(f)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        return "Fiedler vector is not unit norm"
    L = ref.dense_laplacian(g, signed) if g.n <= ref.DENSE_LIMIT else ref.sparse_laplacian(g, signed)
    res = float(np.linalg.norm(L @ v - lam * v))
    limit = 2.0 * tol * max(1.0, abs(lam)) if tol else 1e-8 * scale
    if res > limit:
        return f"Fiedler residual {res:.2e} above {limit:.2e}"
    gap = max(f.gap, 1e-300)
    if abs(lam - f.eigenvalue) > max(1e-9 * scale, 2.0 * res * res / gap):
        return f"eigenvalue {lam!r}, reference {f.eigenvalue!r}"
    if not signed and abs(v.sum()) > 1e-6:
        return "standard Fiedler vector not orthogonal to ones"
    if not np.array_equal(np.asarray(doc["side"]), ref.bisect_signs(v)):
        return "side does not follow the signs of the Fiedler vector"
    sin_bound = 2.0 * max(res, 1e-12 * scale) / gap
    if f.vector is not None and sin_bound < 1.0:
        if abs(float(v @ f.vector)) < math.sqrt(1.0 - sin_bound**2) - 1e-9:
            return "Fiedler vector differs from the reference eigenvector"
    return None


def expect_partition(fref) -> Callable[[], set[int]]:
    """Exit codes a right answer may give.

    Exit 4 when the reference Fiedler vector has one sign, so there is no
    bisection.  When it has one sign only up to components at rounding level
    (cobra's signed vector is exactly zero at vertex 1), the computed sign of
    those components decides, and either outcome is right.
    """
    def expect() -> set[int]:
        f = fref()
        if f.vector is None or ref.bisect_signs(f.vector) is not None:
            return {0}
        v = np.abs(f.vector)
        return {0, 4} if (v <= 1e-10 * v.max()).any() else {4}
    return expect


def check_spectrum(path: str, g: EdgeArrays, signed: bool, k: int) -> str | None:
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    evals = np.asarray(rows[1][1:], dtype=float)
    vecs = np.asarray([r[1:] for r in rows[2:]], dtype=float)
    if vecs.shape != (g.n, k) or len(evals) != k:
        return f"spectrum shape {vecs.shape}"
    L = ref.dense_laplacian(g, signed)
    want = np.linalg.eigvalsh(L)[:k]
    scale = max(1.0, float(np.abs(want).max()))
    if np.abs(evals - want).max() > 1e-9 * scale:
        return f"eigenvalues {evals} vs reference {want}"
    if np.linalg.norm(L @ vecs - vecs * evals, axis=0).max() > 1e-8 * scale:
        return "eigenvector residual too large"
    return None


def _same_split(side, want_side, confident) -> bool:
    side = np.asarray(side)
    same = (side == want_side)[confident]
    return bool(same.all() or (~same).all())


def _check_block(block: dict, g: EdgeArrays, f: ref.Fiedler, label: str) -> str | None:
    scale = _spread_scale(f)
    if not _close(block["fiedler_eigenvalue"], f.eigenvalue, 1e-9, scale):
        return f"{label}: eigenvalue {block['fiedler_eigenvalue']} vs {f.eigenvalue}"
    if abs(block["gap"] - f.gap) > 1e-9 * scale:
        return f"{label}: gap {block['gap']} vs {f.gap}"
    small = np.asarray(block["smallest_eigenvalues"])
    if np.abs(small - f.smallest[: len(small)]).max() > 1e-9 * scale:
        return f"{label}: smallest eigenvalues differ"
    # a gap at rounding level (a disconnected baseline) has no meaningful ratio
    if f.gap > 1e-6 * scale and not _close(block["condition_number"], f.spread / f.gap, 1e-6):
        return f"{label}: condition number {block['condition_number']} vs {f.spread / f.gap}"
    if "side" not in block:
        return None
    want = ref.bisect_signs(f.vector)
    if block["side"] is None or want is None:
        # one sign up to rounding-level components: either outcome is right
        ambiguous = (np.abs(f.vector) <= 1e-10 * np.abs(f.vector).max()).any()
        if (block["side"] is None) != (want is None) and not ambiguous:
            return f"{label}: bisection degenerate in one of output and reference"
        if block["side"] is None:
            return None
    elif f.gap > 1e-6 * scale:
        confident = np.abs(f.vector) > 1e-8
        if not _same_split(block["side"], want, confident):
            return f"{label}: side differs from the reference bisection"
    m = ref.cut_metrics(g, np.asarray(block["side"]))
    tot = float(np.abs(g.w).sum())
    for key in ("cut", "signed_cut", "ratio_cut"):
        if not _close(block[key], m[key], 1e-9, tot):
            return f"{label}: {key} {block[key]} vs {m[key]}"
    if block["clustered_warning"] != (f.gap <= ref.CLUSTERED_GAP_FRACTION * f.spread):
        return f"{label}: clustered warning"
    return None


def check_compare(path: str, g: EdgeArrays, std, sgn) -> str | None:
    doc = _load_json(path)
    if doc["n"] != g.n or doc["edges"] != g.m:
        return "compare header"
    base = EdgeArrays(g.n, g.i[g.w > 0], g.j[g.w > 0], g.w[g.w > 0])
    blocks = (("standard", std()), ("signed", sgn()), ("baseline", ref.dense_fiedler(base, False)))
    for label, f in blocks:
        err = _check_block(doc[label], g, f, label)
        if err:
            return err
    if doc["baseline"]["removed_edges"] != g.m - base.m:
        return "baseline removed_edges"
    gb = doc["baseline"]["gap"]
    ratio = doc["standard"]["gap"] / gb if gb else math.inf
    if not _close(doc["ratios"]["gap_standard_over_baseline"], ratio, 1e-12):
        return "ratios"
    return None


def check_metrics(path: str, g: EdgeArrays, side: np.ndarray) -> str | None:
    doc = _load_json(path)
    want = ref.cut_metrics(g, side)
    tot = float(np.abs(g.w).sum())
    for key, value in want.items():
        if not _close(doc.get(key), value, 1e-9, tot if isinstance(value, float) else 0.0):
            return f"metrics {key}: {doc.get(key)} vs {value}"
    return None


def check_file(path: str, want: EdgeArrays) -> str | None:
    got = ref.read_graph_file(path)
    return None if ref.same_graph(got, want) else f"{os.path.basename(path)} differs from the expected graph"


# --- reference graphs -----------------------------------------------------------


def path_arrays(n: int, overrides: dict[int, float] = {}) -> EdgeArrays:
    i = np.arange(n - 1, dtype=np.int64)
    w = np.ones(n - 1)
    for e, x in overrides.items():
        w[e] = x
    return EdgeArrays(n, i, i + 1, w)


def noisy_arrays(n: int, edge: int, weight: float, amp: float, seed: int) -> EdgeArrays:
    """The documented noisy string: unit path, one replaced edge, symmetric noise."""
    W = np.zeros((n, n))
    for e in range(n - 1):
        W[e, e + 1] = W[e + 1, e] = weight if e == edge else 1.0
    R = np.random.default_rng(seed).uniform(0.0, amp, size=(n, n))
    np.fill_diagonal(R, 0.0)
    W = W + (R + R.T) / 2.0
    i, j = np.triu_indices(n, k=1)
    keep = W[i, j] != 0.0
    return EdgeArrays(n, i[keep].astype(np.int64), j[keep].astype(np.int64), W[i, j][keep])


COBRA = EdgeArrays(6, np.array([0, 0, 1, 2, 3, 4]), np.array([1, 2, 3, 3, 4, 5]),
                   np.array([1.0, -1.0, 1.0, 1.0, 0.2, 1.0]))


def dumbbell_arrays() -> EdgeArrays:
    edges = [(i, j, 1.0) for lo, hi in ((0, 6), (6, 13)) for i in range(lo, hi) for j in range(i + 1, hi)]
    edges += [(2, 8, 1.0), (3, 9, 1.0), (0, 6, -1.0), (1, 7, -1.0)]
    edges.sort()
    i, j, w = (np.asarray(c) for c in zip(*edges))
    return EdgeArrays(13, i.astype(np.int64), j.astype(np.int64), w.astype(float))


# --- demo checks (the outcomes tests/test_acceptance.py asserts) ----------------


def _csv_eigenvalues(path: str) -> np.ndarray:
    with open(path) as fh:
        fh.readline()
        return np.asarray(fh.readline().split(",")[1:], dtype=float)


def _eig_check(path: str, g: EdgeArrays, signed: bool) -> str | None:
    got = _csv_eigenvalues(path)
    want = np.linalg.eigvalsh(ref.dense_laplacian(g, signed))[: len(got)]
    return None if np.abs(got - want).max() <= 1e-10 else f"{os.path.basename(path)} eigenvalues"


def demo_check(name: str, out: str, seed: int) -> Callable[[object], str | None]:
    def p(*parts):
        return os.path.join(out, *parts)

    def check(o) -> str | None:
        if name == "string-modes":
            n = 75
            want = 2.0 - 2.0 * np.cos(np.arange(5) * np.pi / n)
            ok = np.abs(_csv_eigenvalues(p("string-modes.csv")) - want).max() <= 1e-10
            return None if ok else "string modes differ from 2-2cos(k pi/n)"
        if name == "weak-link":
            return _eig_check(p("weak-link-modes.csv"), path_arrays(75, {36: 0.05}), False)
        if name == "negative-edge":
            g = path_arrays(75, {36: -0.05})
            return (_eig_check(p("negative-edge-standard.csv"), g, False)
                    or _eig_check(p("negative-edge-signed.csv"), g, True))
        if name == "noisy-string":
            g = noisy_arrays(12, 7, -0.5, 1e-2, seed)
            summary = json.loads(o.stdout.splitlines()[-1])
            side = ref.bisect_signs(ref.dense_fiedler(g, False).vector)
            want_a = sorted(int(v) + 1 for v in np.flatnonzero(side == 0))
            if summary["standard_side_a"] != want_a:
                return f"noisy-string split {summary['standard_side_a']} vs {want_a}"
            f = ref.dense_fiedler(g, True)
            if summary["signed_clustered_warning"] != (f.gap <= ref.CLUSTERED_GAP_FRACTION * f.spread):
                return "noisy-string signed cluster warning"
            return check_file(p("noisy-string.mtx"), g)
        if name == "cobra":
            doc = _load_json(p("cobra.json"))
            a = set(doc["standard_side_a"])
            if not ({1, 2} <= a and not a & {3, 4} or {3, 4} <= a and not a & {1, 2}):
                return "cobra standard split is not {1,2}|{3,4}"
            if doc["nullified_side_a"] not in ([1, 2, 3, 4], [5, 6]):
                return "cobra split after deletion is not {1,2,3,4}|{5,6}"
            s = doc["signed_second_signs"]
            if not (s[2] != s[0] == s[1] != 0):
                return "cobra signed second eigenvector does not cut vertex 3"
            return None
        if name == "dumbbell":
            doc = _load_json(p("dumbbell.json"))
            if doc["standard_side_a"] not in (list(range(1, 7)), list(range(7, 14))):
                return "dumbbell standard split is not the two cliques"
            a, b = set(doc["signed_side_a"]), set(range(7, 14))
            b_in_a = b <= a
            if not (b_in_a or not a & b):
                return "dumbbell signed vector splits clique B"
            if ({3, 4} <= a) != b_in_a or (not b_in_a and {3, 4} & a):
                return "dumbbell signed vector puts 3, 4 apart from clique B"
            if set(range(1, 7)) <= a or not a & set(range(1, 7)):
                return "dumbbell signed vector is constant on clique A"
            return None
        if name == "gap-study":
            row = _load_json(p("gap-study.json"))["sweep"][1]
            ok = (3.0 <= row["gap_standard_over_baseline"] <= 5.0
                  and 1 / 4.5 <= row["gap_signed_over_baseline"] <= 1 / 2.2
                  and 7.0 <= row["condition_signed_over_standard"] <= 18.0)
            return None if ok else f"gap-study ratios {row}"
        if name == "lobpcg-30":
            c = _load_json(p("lobpcg-30.json"))["sign_change_counts"]
            ok = (c["standard_negative"] >= 18 and c["baseline_zero"] < c["standard_negative"]
                  and c["signed_negative"] < c["standard_negative"])
            return None if ok else f"lobpcg-30 counts {c}"
        return f"no check for demo {name}"

    return check


# --- workloads -----------------------------------------------------------------


def _graph_ops(tag: str, path: str, g: EdgeArrays, work: str, *,
               solvers=("dense",), spectrum=False, compare=False, metrics_side=None,
               extra=(), stalls=()) -> list[Op]:
    """partition (both kinds, each solver), plus optional spectrum/compare/metrics.

    ``stalls`` names the kinds whose iterative solve is pinned as stalling.
    """
    refs = {signed: functools.cache(functools.partial(ref.fiedler_reference, g, signed)) for signed in (False, True)}
    ops = []
    for solver in solvers:
        for signed in (False, True):
            kind = "signed" if signed else "standard"
            out = os.path.join(work, f"{tag}-{solver}-{kind}.json")
            iterative = solver == "lobpcg"
            argv = ["partition", path, "--laplacian", kind, "--solver", solver, "--out", out]
            tol = None
            if iterative:
                argv += [*extra, "--max-iter", str(MAX_ITER)]
                tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else DEFAULT_TOL
            ops.append(Op(
                f"partition/{solver}/{kind}:{tag}", argv, (out,),
                _bind(check_partition, out, g, signed, refs[signed], tol),
                expect_partition(refs[signed]),
                stalls=iterative and kind in stalls,
            ))
    if spectrum:
        out = os.path.join(work, f"{tag}-spectrum.csv")
        signed = spectrum == "signed"
        ops.append(Op(f"spectrum/{spectrum}:{tag}",
                      ["spectrum", path, "--laplacian", spectrum, "--k", "5", "--out", out], (out,),
                      _bind(check_spectrum, out, g, signed, 5)))
    if compare:
        out = os.path.join(work, f"{tag}-compare.json")
        ops.append(Op(f"compare:{tag}", ["compare", path, "--out", out], (out,),
                      _bind(check_compare, out, g, refs[False], refs[True])))
    if metrics_side is not None:
        side_path = os.path.join(work, f"{tag}-side.json")
        _write_sides(metrics_side, side_path)
        out = os.path.join(work, f"{tag}-metrics.json")
        ops.append(Op(f"metrics:{tag}", ["metrics", path, "--partition", side_path, "--out", out], (out,),
                      _bind(check_metrics, out, g, metrics_side)))
    return ops


def _bind(fn, *args):
    return lambda outcome: fn(*args)


def build_paper_small(seed: int, work: str) -> list[Op]:
    import signedcut as sc

    graphs = {
        "string": (sc.path_string(sc.StringSpec(75, overrides=((36, -0.05),))), "string.mtx"),
        "cobra": (sc.cobra(), "cobra.mtx"),
        "dumbbell": (sc.dumbbell(), "dumbbell.csv"),
        "noisy": (sc.noisy_string(12, (7, -0.5), 1e-2, seed), "noisy.mtx"),
    }
    # The iterative ops keep the CLI's default start seed: whether the 75-mass
    # string converges within 200 iterations would otherwise change per run.
    # At this commit its standard-kind solve stalls at 200 iterations.
    ops: list[Op] = []
    for k, (tag, (graph, fname)) in enumerate(graphs.items()):
        path = os.path.join(work, fname)
        sc.save_graph(graph, path)
        g = _to_arrays(graph)
        ops += _graph_ops(tag, path, g, work, solvers=("dense", "lobpcg"), spectrum="signed",
                          compare=True, metrics_side=random_sides(g.n, seed * 8 + k),
                          stalls=("standard",) if tag == "string" else ())
    gens = (
        ("path", ["--n", "75", "--override", "37:-0.05"], "gen-string.mtx", path_arrays(75, {36: -0.05})),
        ("noisy-string", ["--seed", str(seed)], "gen-noisy.csv", noisy_arrays(12, 7, -0.5, 1e-2, seed)),
        ("cobra", [], "gen-cobra.mtx", COBRA),
        ("dumbbell", [], "gen-dumbbell.csv", dumbbell_arrays()),
    )
    for kind, args, fname, want in gens:
        out = os.path.join(work, fname)
        ops.append(Op(f"gen/{kind}", ["gen", kind, *args, "--out", out], (out,), _bind(check_file, out, want)))
    for name in ("string-modes", "weak-link", "negative-edge", "noisy-string",
                 "cobra", "dumbbell", "gap-study", "lobpcg-30"):
        out = os.path.join(work, f"demo-{name}")
        ops.append(Op(f"demo/{name}", ["demo", name, "--out", out, "--seed", str(seed)], (out,),
                      demo_check(name, out, seed)))
    return ops


def build_dense(seed: int, work: str) -> list[Op]:
    import signedcut as sc

    g = random_signed_graph(DENSE_N, DENSE_M, seed)
    path = os.path.join(work, "random-dense.mtx")
    _write(sc, g, path)
    ops = _graph_ops("random-dense", path, g, work, compare=True)
    out = os.path.join(work, "random-dense-spectrum.csv")
    ops.append(Op("spectrum/standard:random-dense", ["spectrum", path, "--k", "5", "--out", out], (out,),
                  _bind(check_spectrum, out, g, False, 5)))
    return ops


def build_lobpcg(seed: int, work: str) -> list[Op]:
    import signedcut as sc

    base = random_signed_graph(LOBPCG_N, LOBPCG_M, LOBPCG_FAMILY_SEED)
    g = base.permuted(np.random.default_rng(seed).permutation(base.n))
    path = os.path.join(work, "random-lobpcg.mtx")
    _write(sc, g, path)
    string = sc.path_string(sc.StringSpec(3000, overrides=((1499, -0.05),)))
    string_path = os.path.join(work, "string-3k.mtx")
    sc.save_graph(string, string_path)
    extra = (*LOBPCG_FLAGS, "--seed", str(seed))
    # at this commit both string solves stall at 200 iterations
    return (_graph_ops("random-lobpcg", path, g, work, solvers=("lobpcg",), extra=extra)
            + _graph_ops("string-3k", string_path, _to_arrays(string), work,
                         solvers=("lobpcg",), extra=extra, stalls=("standard", "signed")))


# name -> set-up function; BENCHMARK.json says why each workload was chosen
WORKLOADS = {
    "paper-small": build_paper_small,
    "dense-1200": build_dense,
    "lobpcg-8k": build_lobpcg,
}
