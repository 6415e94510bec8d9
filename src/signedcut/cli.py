"""Command-line front end: generate graphs, compute spectra and partitions,
emit metrics and figure-reproduction CSVs.

Every invocation writes one JSON-line run report to stderr (command echo,
input digest, config, outputs, timing).  Vertex labels in human-facing
output are 1-based; graph files store 0-based indices.  Exit codes: 0 ok,
2 bad parameters, 3 I/O failure, 4 solver failure, 5 disconnected graph.
Warnings never change the exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .eigen import (
    SolverConfig,
    dense_spectrum,
    lobpcg_smallest,
    solve_space_dimension,
)
from .errors import (
    DegenerateVectorError,
    MultiComponentError,
    SignedCutError,
    SolverFailedError,
)
from .experiments import gap_study, truncated_iteration_study
from .generators import (
    DEFAULT_SPECIAL_EDGE,
    DEFAULT_STRING_LENGTH,
    NEGATIVE_EDGE_WEIGHT,
    WEAK_LINK_WEIGHT,
    StringSpec,
    cobra,
    dumbbell,
    noisy_string,
    path_string,
)
from .graph import SignedGraph, nullify_negative
from .io import CHUNK_LINES, load_graph, save_graph
from .laplacian import LaplacianKind, laplacian
from .partition import (
    FiedlerResult,
    baseline_gap,
    bisect,
    confidence,
    cut_metrics,
    fiedler,
    partition_json,
    select_fiedler,
)

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ``SignedCutError``, after argparse's usage text,
    so that it gets exit code 2 and a run report like any other bad parameter."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SignedCutError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` leaves it unchanged."""
    parser = _Parser(
        prog="signedcut",
        description="Spectral bisection of signed graphs.",
    )
    parser.add_argument("--version", action="version", version=f"signedcut {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an example graph file")
    p_gen.add_argument("kind", choices=["path", "noisy-string", "cobra", "dumbbell"])
    p_gen.add_argument("--n", type=int, default=None,
                       help="vertex count (default: 75 for path, 12 for noisy-string)")
    p_gen.add_argument("--override", action="append", default=[], metavar="EDGE:W",
                       help="path edge override; EDGE is the 1-based edge number "
                            "(edge k joins vertices k and k+1)")
    p_gen.add_argument("--neg-edge", default="8:-0.5", metavar="EDGE:W",
                       help="noisy-string replaced edge, 1-based edge number")
    p_gen.add_argument("--noise-amp", type=float, default=1e-2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output graph file (.mtx/.mm/.csv)")

    for name in ("spectrum", "partition", "compare"):
        p = sub.add_parser(name, help=f"{name} of a graph file")
        p.add_argument("graph", help="input graph file (.mtx/.mm/.csv)")
        if name != "compare":
            p.add_argument("--laplacian", choices=["standard", "signed"], default="standard")
            p.add_argument("--solver", choices=["dense", "lobpcg"], default="dense")
            p.add_argument("--tol", type=float, default=1e-8)
            p.add_argument("--max-iter", type=int, default=200)
            p.add_argument("--block-size", type=int, default=None)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        if name == "spectrum":
            p.add_argument("--k", type=int, default=5)
            p.add_argument("--deflate-ones", action="store_true",
                           help="leave out the ones vector (dense: it must be an eigenvector)")
        if name == "partition":
            p.add_argument("--emit-confidence", action="store_true")
            p.add_argument("--zero-policy", choices=["positive-side", "negative-side"],
                           default="positive-side")

    p_met = sub.add_parser("metrics", help="cut metrics of a stored partition")
    p_met.add_argument("graph")
    p_met.add_argument("--partition", required=True, help="partition JSON file")
    p_met.add_argument("--out", default=None)

    p_demo = sub.add_parser("demo", help="run a named end-to-end experiment")
    p_demo.add_argument("name", choices=list(_DEMOS))
    p_demo.add_argument("--out", default=None, help="output directory (default: demo-<name>)")
    p_demo.add_argument("--n", type=int, default=None, help="string length where applicable")
    p_demo.add_argument("--seed", type=int, default=0)
    return parser


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _emit_text(chunks: Iterable[str], out: str | None, outputs: list[str]) -> None:
    """Write the text's pieces, as they are made, to ``out`` or to stdout."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.writelines(chunks)
        outputs.append(out)


def _emit_json(doc: dict, out: str | None, outputs: list[str]) -> None:
    _emit_text(itertools.chain(_json_chunks(doc), ("\n",)), out, outputs)


def _json_chunks(obj, level: int = 0) -> Iterator[str]:
    """``json.dumps(obj, indent=2)``, byte for byte, at nesting depth ``level``,
    in pieces of at most ``CHUNK_LINES`` list items.

    An indent makes ``json`` use its pure-Python encoder, slow on a long
    list.  A run of scalar list items is written by the C encoder instead,
    with the newline and indent as its item separator; the run's item types,
    not its items, are tested for containers.  Lists and dicts with string
    keys recurse; anything else is the stdlib's own output, re-indented.
    """
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        sep = "{" + pad
        for k, v in obj.items():
            yield sep + json.dumps(k) + ": "
            yield from _json_chunks(v, level + 1)
            sep = "," + pad
        yield pad[:-2] + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "[" + pad
        for start in range(0, len(obj), CHUNK_LINES):
            part = obj[start : start + CHUNK_LINES]
            if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, part))):
                for x in part:
                    yield sep
                    yield from _json_chunks(x, level + 1)
                    sep = "," + pad
            else:
                yield sep + json.dumps(part, separators=("," + pad, ": "))[1:-1]
                sep = "," + pad
        yield pad[:-2] + "]"
    else:
        yield json.dumps(obj, indent=2).replace("\n", "\n" + "  " * level)


def _modes_csv(eigenvalues: np.ndarray, vectors: np.ndarray) -> Iterator[str]:
    """The eigenmode CSV, in pieces of at most ``CHUNK_LINES`` vertex rows."""
    k = len(eigenvalues)
    yield "vertex," + ",".join(f"mode_{c}" for c in range(k)) + "\n"
    yield "eigenvalue," + ",".join(map(repr, eigenvalues.tolist())) + "\n"
    line = "%d" + ",%r" * k + "\n"
    for start in range(0, vectors.shape[0], CHUNK_LINES):
        rows = vectors[start : start + CHUNK_LINES, :k].tolist()
        yield "".join(line % (start + r + 1, *row) for r, row in enumerate(rows))


def _parse_edge_weight(text: str, flag: str) -> tuple[int, float]:
    """Parse a 1-based EDGE:WEIGHT argument into a 0-based edge index."""
    try:
        idx_s, w_s = text.split(":", 1)
        idx, w = int(idx_s), float(w_s)
    except ValueError:
        raise SignedCutError(f"{flag} expects EDGE:WEIGHT, got {text!r}") from None
    if idx < 1:
        raise SignedCutError(f"{flag} edge numbers are 1-based, got {idx}")
    return idx - 1, w


def _solver_config(args) -> SolverConfig | None:
    """The LOBPCG settings, or None for ``--solver dense``; built, and so checked, on both routes."""
    cfg = SolverConfig(block_size=args.block_size, tol=args.tol, max_iter=args.max_iter,
                       seed=args.seed, precondition=True)
    return cfg if args.solver == "lobpcg" else None


def cmd_gen(args, outputs: list[str], warnings: list[str]) -> dict:
    if args.kind == "path":
        overrides = tuple(_parse_edge_weight(o, "--override") for o in args.override)
        g = path_string(StringSpec(n=args.n or DEFAULT_STRING_LENGTH, overrides=overrides))
    elif args.kind == "noisy-string":
        idx, w = _parse_edge_weight(args.neg_edge, "--neg-edge")
        g = noisy_string(args.n or 12, (idx, w), args.noise_amp, args.seed)
    elif args.kind == "cobra":
        g = cobra()
    else:
        g = dumbbell()
    save_graph(g, args.out)
    outputs.append(args.out)
    return {"n": g.n, "edges": g.m}


def cmd_spectrum(args, outputs: list[str], warnings: list[str]) -> dict:
    g = load_graph(args.graph)
    top = solve_space_dimension(g.n, args.deflate_ones)
    if not 1 <= args.k <= top:
        raise SignedCutError(f"k={args.k} outside [1, {'n-1' if args.deflate_ones else 'n'}={top}]")
    solver = _solver_config(args)
    op = laplacian(g, LaplacianKind(args.laplacian))
    if solver is None:
        s = dense_spectrum(op, args.deflate_ones)
    else:
        s, _ = lobpcg_smallest(op, args.k, solver, args.deflate_ones)
        # the spectrum holds the whole block; the first k pairs are the wanted ones
        converged = s.converged[: args.k]
        if not converged.all():
            warnings.append(
                f"{int((~converged).sum())} of {args.k} eigenpairs unconverged "
                f"after {args.max_iter} iterations"
            )
    evals, evecs = s.eigenvalues[: args.k], s.eigenvectors[:, : args.k]
    _emit_text(_modes_csv(evals, evecs), args.out, outputs)
    return {"eigenvalues": [float(v) for v in evals]}


def _side_sizes(side: np.ndarray) -> tuple[int, int]:
    """Vertex counts of sides A and B of a side array of 0s and 1s."""
    size_a = int(np.count_nonzero(side == 0))
    return size_a, len(side) - size_a


def _side_a(side: np.ndarray) -> list[int]:
    """The 1-based vertex labels of side A, ascending."""
    return (np.flatnonzero(side == 0) + 1).tolist()


def cmd_partition(args, outputs: list[str], warnings: list[str]) -> dict:
    g = load_graph(args.graph)
    f = fiedler(g, LaplacianKind(args.laplacian), solver=_solver_config(args))
    side = bisect(f, zero_policy=args.zero_policy)
    conf = confidence(f) if args.emit_confidence else None
    if f.clustered_warning:
        warnings.append(
            "clustered eigenvalues: the Fiedler vector is numerically unstable "
            f"(gap {f.gap:.3e})"
        )
    if f.gap_converged is False:
        warnings.append(
            "the gap partner is unconverged: the gap is an upper estimate, "
            "so clustered eigenvalues may go unflagged"
        )
    doc = partition_json(f, side, conf)
    _emit_json(doc, args.out, outputs)
    size_a, size_b = _side_sizes(side)
    return {"side_a_size": size_a, "side_b_size": size_b}


def cmd_metrics(args, outputs: list[str], warnings: list[str]) -> dict:
    g = load_graph(args.graph)
    with open(args.partition) as fh:
        pdoc = json.load(fh)
    if not isinstance(pdoc, dict):
        raise SignedCutError("partition file must hold a JSON object")
    labels = pdoc.get("side")
    if not isinstance(labels, list) or pdoc.get("n") != g.n or len(labels) != g.n:
        raise SignedCutError(
            f"partition file does not match graph size n={g.n}"
        )
    # bool is an int subclass: the type test rejects true and false too
    if not all(type(s) is int and s in (0, 1) for s in labels):
        raise SignedCutError("partition side values must be the integers 0 and 1")
    side = np.asarray(labels, dtype=np.int8)
    m = cut_metrics(g, side)
    size_a, size_b = _side_sizes(side)
    doc = {"n": g.n, "size_a": size_a, "size_b": size_b, **dataclasses.asdict(m)}
    _emit_json(doc, args.out, outputs)
    return doc


def _finite_or_null(x: float) -> float | None:
    """JSON has no infinity or NaN: a non-finite number is written as null."""
    return float(x) if math.isfinite(x) else None


def _ratio(a: float, b: float) -> float | None:
    return _finite_or_null(a / b) if b else None


def _fiedler_block(f: FiedlerResult) -> dict:
    return {
        "fiedler_eigenvalue": f.eigenvalue,
        "gap": _finite_or_null(f.gap),
        "condition_number": _finite_or_null(f.condition_number),
        "smallest_eigenvalues": [float(v) for v in f.eigenvalues[:5]],
    }


def _partition_block(
    g: SignedGraph, kind: LaplacianKind, warnings: list[str]
) -> tuple[dict, FiedlerResult]:
    f = fiedler(g, kind)
    block = _fiedler_block(f)
    block["clustered_warning"] = f.clustered_warning
    if f.clustered_warning:
        warnings.append(f"{kind.value}: clustered eigenvalues, unstable Fiedler vector")
    try:
        side = bisect(f)
        m = cut_metrics(g, side)
        block["side"] = side.tolist()
        block["cut"] = m.cut
        block["signed_cut"] = m.signed_cut
        block["ratio_cut"] = m.ratio_cut
    except DegenerateVectorError:
        block["side"] = None
        warnings.append(f"{kind.value}: Fiedler components all one sign; no bisection")
    return block, f


def cmd_compare(args, outputs: list[str], warnings: list[str]) -> dict:
    g = load_graph(args.graph)
    doc = {"n": g.n, "edges": g.m}
    doc["standard"], f_std = _partition_block(g, LaplacianKind.STANDARD, warnings)
    doc["signed"], f_sgn = _partition_block(g, LaplacianKind.SIGNED, warnings)
    f_base = baseline_gap(g)
    doc["baseline"] = _fiedler_block(f_base)
    doc["baseline"]["removed_edges"] = int((g.edge_arrays()[2] < 0).sum())
    doc["ratios"] = {
        "gap_standard_over_baseline": _ratio(f_std.gap, f_base.gap),
        "gap_signed_over_baseline": _ratio(f_sgn.gap, f_base.gap),
        "condition_signed_over_standard": _ratio(f_sgn.condition_number, f_std.condition_number),
    }
    _emit_json(doc, args.out, outputs)
    return doc["ratios"]


# --- demos -----------------------------------------------------------------


def _demo_dir(args) -> str:
    out = args.out or f"demo-{args.name}"
    os.makedirs(out, exist_ok=True)
    return out


def _write_modes(g: SignedGraph, kind: LaplacianKind, k: int, path: str,
                 outputs: list[str]) -> np.ndarray:
    s = dense_spectrum(laplacian(g, kind))
    _emit_text(_modes_csv(s.eigenvalues[:k], s.eigenvectors[:, :k]), path, outputs)
    return s.eigenvalues[:k]


def demo_string_modes(args, outputs, warnings) -> dict:
    n = args.n or DEFAULT_STRING_LENGTH
    g = path_string(StringSpec(n=n))
    ev = _write_modes(g, LaplacianKind.STANDARD, 5,
                      os.path.join(_demo_dir(args), "string-modes.csv"), outputs)
    return {"n": n, "eigenvalues": [float(v) for v in ev]}


def demo_weak_link(args, outputs, warnings) -> dict:
    n = args.n or DEFAULT_STRING_LENGTH
    g = path_string(StringSpec(n=n, overrides=((DEFAULT_SPECIAL_EDGE, WEAK_LINK_WEIGHT),)))
    ev = _write_modes(g, LaplacianKind.STANDARD, 5,
                      os.path.join(_demo_dir(args), "weak-link-modes.csv"), outputs)
    return {"n": n, "weak_weight": WEAK_LINK_WEIGHT, "eigenvalues": [float(v) for v in ev]}


def demo_negative_edge(args, outputs, warnings) -> dict:
    n = args.n or DEFAULT_STRING_LENGTH
    g = path_string(StringSpec(n=n, overrides=((DEFAULT_SPECIAL_EDGE, NEGATIVE_EDGE_WEIGHT),)))
    out = _demo_dir(args)
    ev_std = _write_modes(g, LaplacianKind.STANDARD, 5,
                          os.path.join(out, "negative-edge-standard.csv"), outputs)
    ev_sgn = _write_modes(g, LaplacianKind.SIGNED, 5,
                          os.path.join(out, "negative-edge-signed.csv"), outputs)
    return {
        "n": n,
        "negative_weight": NEGATIVE_EDGE_WEIGHT,
        "standard_eigenvalues": [float(v) for v in ev_std],
        "signed_eigenvalues": [float(v) for v in ev_sgn],
    }


def demo_noisy_string(args, outputs, warnings) -> dict:
    n = args.n or 12
    g = noisy_string(n, (7, -0.5), 1e-2, args.seed)
    out = _demo_dir(args)
    save_graph(g, os.path.join(out, "noisy-string.mtx"))
    outputs.append(os.path.join(out, "noisy-string.mtx"))
    _write_modes(g, LaplacianKind.STANDARD, 3,
                 os.path.join(out, "noisy-string-standard.csv"), outputs)
    _write_modes(g, LaplacianKind.SIGNED, 2,
                 os.path.join(out, "noisy-string-signed.csv"), outputs)
    f_std = fiedler(g, LaplacianKind.STANDARD)
    side = bisect(f_std)
    _emit_json(partition_json(f_std, side), os.path.join(out, "noisy-string-partition.json"), outputs)
    f_sgn = fiedler(g, LaplacianKind.SIGNED)
    if f_sgn.clustered_warning:
        warnings.append("signed: two smallest eigenvalues form a cluster")
    return {
        "n": n,
        "standard_side_a": _side_a(side),
        "signed_clustered_warning": f_sgn.clustered_warning,
        "signed_gap": f_sgn.gap,
    }


def demo_cobra(args, outputs, warnings) -> dict:
    g = cobra()
    out = _demo_dir(args)
    save_graph(g, os.path.join(out, "cobra.mtx"))
    outputs.append(os.path.join(out, "cobra.mtx"))
    doc: dict = {"n": g.n}
    side_std = bisect(fiedler(g, LaplacianKind.STANDARD))
    doc["standard_side_a"] = _side_a(side_std)
    m = cut_metrics(g, side_std)
    doc["standard_metrics"] = {"cut": m.cut, "signed_cut": m.signed_cut}
    side_null = bisect(fiedler(nullify_negative(g), LaplacianKind.STANDARD))
    doc["nullified_side_a"] = _side_a(side_null)
    s = dense_spectrum(laplacian(g, LaplacianKind.SIGNED))
    try:
        # select_fiedler makes a rounding-level component an exact zero, not a sign
        bisect(select_fiedler(s, LaplacianKind.SIGNED))
        doc["signed_first_bisects"] = True
    except DegenerateVectorError:
        doc["signed_first_bisects"] = False
        warnings.append("signed: first eigenvector has one sign, bisection degenerate")
    second = s.eigenvectors[:, 1]
    doc["signed_second_signs"] = [int(v) for v in np.sign(np.round(second, 12))]
    _emit_json(doc, os.path.join(out, "cobra.json"), outputs)
    return doc


def demo_dumbbell(args, outputs, warnings) -> dict:
    g = dumbbell()
    out = _demo_dir(args)
    save_graph(g, os.path.join(out, "dumbbell.mtx"))
    outputs.append(os.path.join(out, "dumbbell.mtx"))
    side_std = bisect(fiedler(g, LaplacianKind.STANDARD))
    side_sgn = bisect(fiedler(g, LaplacianKind.SIGNED))
    m = cut_metrics(g, side_std)
    doc = {
        "n": g.n,
        "standard_side_a": _side_a(side_std),
        "signed_side_a": _side_a(side_sgn),
        "standard_metrics": {
            "cut": m.cut,
            "cut_plus": m.cut_plus,
            "cut_minus_cross": m.cut_minus_cross,
            "signed_cut": m.signed_cut,
        },
    }
    _emit_json(doc, os.path.join(out, "dumbbell.json"), outputs)
    return doc


def demo_gap_study(args, outputs, warnings) -> dict:
    n = args.n or 100
    doc = gap_study(n, DEFAULT_SPECIAL_EDGE, (-0.01, -0.05, -0.1))
    _emit_json(doc, os.path.join(_demo_dir(args), "gap-study.json"), outputs)
    return {
        "n": n,
        "ratios_at_-0.05": {
            k: v
            for k, v in doc["sweep"][1].items()
            if k.startswith(("gap_s", "condition_s"))
        },
    }


def demo_lobpcg_30(args, outputs, warnings) -> dict:
    n = args.n or DEFAULT_STRING_LENGTH
    doc = truncated_iteration_study(n, DEFAULT_SPECIAL_EDGE, NEGATIVE_EDGE_WEIGHT)
    _emit_json(doc, os.path.join(_demo_dir(args), "lobpcg-30.json"), outputs)
    return doc["sign_change_counts"]


_DEMOS = {
    "string-modes": demo_string_modes,
    "weak-link": demo_weak_link,
    "negative-edge": demo_negative_edge,
    "noisy-string": demo_noisy_string,
    "cobra": demo_cobra,
    "dumbbell": demo_dumbbell,
    "gap-study": demo_gap_study,
    "lobpcg-30": demo_lobpcg_30,
}


def cmd_demo(args, outputs: list[str], warnings: list[str]) -> dict:
    return _DEMOS[args.name](args, outputs, warnings)


_HANDLERS = {
    "gen": cmd_gen,
    "spectrum": cmd_spectrum,
    "partition": cmd_partition,
    "metrics": cmd_metrics,
    "compare": cmd_compare,
    "demo": cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    args = argparse.Namespace()
    outputs: list[str] = []
    warnings: list[str] = []
    code = 0
    error: str | None = None
    try:
        args = build_parser().parse_args(argv)
        summary = _HANDLERS[args.command](args, outputs, warnings)
        if args.command in ("gen", "demo") and summary:
            print(json.dumps(summary))
    except MultiComponentError as exc:
        code, error = 5, str(exc)
    except (SolverFailedError, DegenerateVectorError, np.linalg.LinAlgError) as exc:
        # a LAPACK failure is a solver failure, not a bad parameter
        code, error = 4, str(exc)
    except (SignedCutError, ValueError) as exc:
        # includes usage errors, empty partition sides, size mismatches, bad flags
        code, error = 2, str(exc)
    except OSError as exc:
        code, error = 3, str(exc)
    finally:
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
        graph_path = getattr(args, "graph", None)
        digest = None
        if graph_path is not None and os.path.exists(graph_path):
            try:
                digest = _digest(graph_path)
            except OSError:
                digest = None
        report = {
            "command": ["signedcut"] + argv,
            "input_digest": digest,
            "config": {
                k: v
                for k, v in sorted(vars(args).items())
                if k != "command" and not callable(v)
            },
            "outputs": outputs,
            "warnings": warnings,
            "error": error,
            "exit_code": code,
            "elapsed_s": round(time.perf_counter() - started, 6),
        }
        print(json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
