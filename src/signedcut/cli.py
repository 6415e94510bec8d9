"""Command-line front end: generate graphs, compute spectra and partitions,
emit metrics and figure-reproduction CSVs.

Each ``gen`` kind and each demo is a subcommand that declares only the flags
it reads, with its defaults.  Every invocation writes one JSON-line run report
to stderr (command echo, input digest, every declared flag's value as used,
outputs, timing).  Vertex labels in human-facing output are 1-based; graph
files store 0-based indices.  Exit codes: 0 ok, 2 bad parameters, 3 I/O
failure, 4 solver failure, 5 disconnected graph.  Warnings never change the
exit code.
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
from typing import Iterator

import numpy as np

from . import __version__
from .eigen import (
    SolverConfig,
    Spectrum,
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
from .experiments import DEMOS, compare
from .generators import (
    DEFAULT_STRING_LENGTH,
    StringSpec,
    cobra,
    dumbbell,
    noisy_string,
    path_string,
)
from .graph import SignedGraph
from .io import CHUNK_LINES, load_graph, save_graph
from .laplacian import LaplacianKind, laplacian
from .partition import (
    ZERO_POLICIES,
    bisect,
    confidence,
    cut_metrics,
    fiedler,
    finite_or_null,
    partition_json,
)

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ``SignedCutError``, after argparse's usage text,
    so that it gets exit code 2 and a run report like any other bad parameter.
    Each parser refuses the arguments it does not know itself, so a subcommand
    reports a flag it does not declare after its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

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
    kinds = p_gen.add_subparsers(dest="kind", required=True)
    p_path = kinds.add_parser("path", help="a unit path with edge overrides")
    p_noisy = kinds.add_parser("noisy-string", help="a unit path with one replaced edge, and noise")
    for p, n in ((p_path, DEFAULT_STRING_LENGTH), (p_noisy, 12)):
        p.add_argument("--n", type=int, default=n, help="vertex count (default %(default)s)")
    p_path.add_argument("--override", action="append", default=[], metavar="EDGE:W",
                        help="edge override; EDGE is the 1-based edge number "
                             "(edge k joins vertices k and k+1)")
    p_noisy.add_argument("--neg-edge", default="8:-0.5", metavar="EDGE:W",
                         help="replaced edge, 1-based edge number (default %(default)s)")
    p_noisy.add_argument("--noise-amp", type=float, default=1e-2, help="(default %(default)s)")
    p_noisy.add_argument("--seed", type=int, default=0, help="the noise draw (default %(default)s)")
    kinds.add_parser("cobra", help="the fixed six-vertex cobra graph")
    kinds.add_parser("dumbbell", help="the fixed 13-vertex dumbbell graph")
    for p in kinds.choices.values():
        p.add_argument("--out", required=True, help="output graph file (.mtx/.mm/.csv)")
        p.set_defaults(handler=cmd_gen)

    for name, handler in (("spectrum", cmd_spectrum), ("partition", cmd_partition),
                          ("compare", cmd_compare), ("metrics", cmd_metrics)):
        p = sub.add_parser(name, help=f"{name} of a graph file")
        p.set_defaults(handler=handler)
        p.add_argument("graph", help="input graph file (.mtx/.mm/.csv)")
        if name in ("spectrum", "partition"):
            p.add_argument("--laplacian", choices=[k.value for k in LaplacianKind], default="standard")
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
            p.add_argument("--zero-policy", choices=ZERO_POLICIES, default="positive-side")
        if name == "metrics":
            p.add_argument("--partition", required=True, help="partition JSON file to score")

    p_demo = sub.add_parser("demo", help="run a named end-to-end experiment")
    demos = p_demo.add_subparsers(dest="name", required=True)
    for name, (_, default_n, _) in DEMOS.items():
        p = demos.add_parser(name)
        p.set_defaults(handler=cmd_demo)
        p.add_argument("--out", default=None, help=f"output directory (default: demo-{name})")
        if default_n is not None:  # cobra and the dumbbell are fixed graphs
            p.add_argument("--n", type=int, default=default_n,
                           help="string length (default %(default)s)")
        p.add_argument("--seed", type=int, default=0, help="the noise draw (default %(default)s)"
                       if name == "noisy-string" else "accepted and ignored")
    return parser


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _emit(content: SignedGraph | Spectrum | dict, out: str | None, outputs: list[str]) -> None:
    """Write a graph file, or an eigenmode CSV or JSON document, as it is made, to
    ``out``; without ``out`` the text goes to stdout."""
    if isinstance(content, SignedGraph):
        save_graph(content, out)
        outputs.append(out)
        return
    if isinstance(content, Spectrum):
        chunks = _modes_csv(content.eigenvalues, content.eigenvectors)
    else:
        chunks = itertools.chain(_json_chunks(content), ("\n",))
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.writelines(chunks)
        outputs.append(out)


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


def _parse_edge_weight(text: str, flag: str, n: int) -> tuple[int, float]:
    """Parse a 1-based EDGE:WEIGHT argument, an edge of an n-vertex string and a finite weight, into a 0-based edge index."""
    try:
        idx_s, w_s = text.split(":", 1)
        idx, w = int(idx_s), float(w_s)
    except ValueError:
        raise SignedCutError(f"{flag} expects EDGE:WEIGHT, got {text!r}") from None
    if idx < 1:
        raise SignedCutError(f"{flag} edge numbers are 1-based, got {idx}")
    if idx > n - 1 >= 1:  # a string with no edge at all is the generator's error
        raise SignedCutError(f"{flag} edge {idx} outside [1, {n - 1}] for --n {n}")
    if not math.isfinite(w):
        raise SignedCutError(f"{flag} edge {idx} has nonfinite weight {w}")
    return idx - 1, w


def _solver_config(args) -> SolverConfig | None:
    """The LOBPCG settings, or None for ``--solver dense``; built, and so checked, on both routes."""
    cfg = SolverConfig(block_size=args.block_size, tol=args.tol, max_iter=args.max_iter,
                       seed=args.seed, precondition=True)
    return cfg if args.solver == "lobpcg" else None


def cmd_gen(args, outputs: list[str], warnings: list[str]) -> dict:
    if args.kind == "path":
        overrides = tuple(_parse_edge_weight(o, "--override", args.n) for o in args.override)
        for k, (edge, w) in enumerate(overrides):
            if edge in (e for e, _ in overrides[:k]):
                raise SignedCutError(f"--override edge {edge + 1} listed twice")
            if w == 0.0:
                raise SignedCutError(f"--override edge {edge + 1} has zero weight")
        g = path_string(StringSpec(n=args.n, overrides=overrides))
    elif args.kind == "noisy-string":
        neg_edge = _parse_edge_weight(args.neg_edge, "--neg-edge", args.n)
        g = noisy_string(args.n, neg_edge, args.noise_amp, args.seed)
    elif args.kind == "cobra":
        g = cobra()
    else:
        g = dumbbell()
    _emit(g, args.out, outputs)
    return {"n": g.n, "edges": g.m}


def cmd_spectrum(args, outputs: list[str], warnings: list[str]) -> None:
    g = load_graph(args.graph)
    top = solve_space_dimension(g.n, args.deflate_ones)
    if not 1 <= args.k <= top:
        raise SignedCutError(f"k={args.k} outside [1, {'n-1' if args.deflate_ones else 'n'}={top}]")
    solver = _solver_config(args)
    op = laplacian(g, LaplacianKind(args.laplacian))
    if solver is None:
        s = dense_spectrum(op, args.deflate_ones, args.k)
    else:
        s, _ = lobpcg_smallest(op, args.k, solver, args.deflate_ones)
        # the spectrum holds the whole block; the first k pairs are the wanted ones
        unconverged = ~s.converged[: args.k]
        if unconverged.any():
            warnings.append(
                f"{int(unconverged.sum())} of {args.k} eigenpairs unconverged "
                f"after {s.iterations} iterations "
                f"(largest residual {s.residual_norms[: args.k][unconverged].max():.3e})"
            )
    _emit(Spectrum(s.eigenvalues[: args.k], s.eigenvectors[:, : args.k]), args.out, outputs)


def cmd_partition(args, outputs: list[str], warnings: list[str]) -> None:
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
    _emit(partition_json(f, side, conf), args.out, outputs)


def cmd_metrics(args, outputs: list[str], warnings: list[str]) -> None:
    g = load_graph(args.graph)
    with open(args.partition) as fh:
        pdoc = json.load(fh)
    if not isinstance(pdoc, dict):
        raise SignedCutError("partition file must hold a JSON object")
    labels, n = pdoc.get("side"), pdoc.get("n")
    # 6.0 == 6 and True == 1 (bool is an int subclass): the type tests refuse both
    if not isinstance(labels, list) or type(n) is not int or n != g.n or len(labels) != g.n:
        raise SignedCutError(f"partition file does not match graph size n={g.n}")
    if not all(type(s) is int and s in (0, 1) for s in labels):
        raise SignedCutError("partition side values must be the integers 0 and 1")
    side = np.asarray(labels, dtype=np.int8)
    m = cut_metrics(g, side)
    size_a = int(np.count_nonzero(side == 0))
    doc = {"n": g.n, "size_a": size_a, "size_b": g.n - size_a, **dataclasses.asdict(m)}
    _emit(doc, args.out, outputs)


def cmd_compare(args, outputs: list[str], warnings: list[str]) -> None:
    _emit(compare(load_graph(args.graph), warnings), args.out, outputs)


def cmd_demo(args, outputs: list[str], warnings: list[str]) -> dict:
    """Check ``--n`` (cobra and the dumbbell have none) against the special edge, run
    the demo's experiment, and only then make the directory and write its artifacts in order."""
    run, _, special_edge = DEMOS[args.name]
    n = getattr(args, "n", None)
    if special_edge is not None and n <= special_edge + 1:
        edge = special_edge + 1  # 1-based, as --override and --neg-edge count
        raise ValueError(
            f"demo {args.name} needs --n >= {edge + 1}: its special edge {edge} (1-based) "
            f"joins vertices {edge} and {edge + 1}; got --n {n}"
        )
    summary, artifacts = run(n, args.seed, warnings)
    out = args.out or f"demo-{args.name}"
    os.makedirs(out, exist_ok=True)
    for name, content in artifacts:
        _emit(content, os.path.join(out, name), outputs)
    return summary


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
        summary = args.handler(args, outputs, warnings)
        if summary is not None:
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
            "config": {k: finite_or_null(v) if isinstance(v, float) else v
                       for k, v in sorted(vars(args).items()) if k != "command" and not callable(v)},
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
