"""Graph serialization: Matrix Market coordinate files and edge-list CSV.

Matrix Market files are written as ``coordinate real symmetric`` with 1-based
indices and the lower triangle stored.  Weights are formatted with ``repr``
so a write/read round trip reproduces every float bit-exactly.  The reader
also accepts ``general`` symmetry and symmetrizes via (R + R^T)/2, rejecting
matrices whose asymmetry exceeds 1e-12 relative.

Both readers parse all entry lines in one ``numpy.loadtxt`` call and check
them as arrays.  Of several faults, a line that does not parse is reported
first, then range and repeats, count, asymmetry, diagonal, graph checks.
"""

from __future__ import annotations

import csv
import os
import warnings
from typing import Callable

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DuplicateEdgeError,
    FormatError,
    SelfLoopError,
)
from .graph import EDGE_DTYPE, SignedGraph, graph_from_arrays

ASYMMETRY_TOL = 1e-12

_MM_BANNER = "%%MatrixMarket"
_CSV_COUNT = "# n="


def _parse_entries(lines: list[str], bad_line: Callable[[str], FormatError], **options) -> np.ndarray:
    """Parse (index, index, weight) lines in one call.

    Raises ``bad_line(line)`` for the first line that does not parse.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no entry lines: an edgeless graph
        try:
            return np.loadtxt(lines, dtype=EDGE_DTYPE, ndmin=1, **options)
        except ValueError:
            pass
        # bisect for the first bad line: lines[:good] parse, lines[:bad] do not
        good, bad = 0, len(lines)
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                np.loadtxt(lines[:mid], dtype=EDGE_DTYPE, ndmin=1, **options)
                good = mid
            except ValueError:
                bad = mid
    raise bad_line(lines[good])


def write_matrix_market(g: SignedGraph, path: str | os.PathLike) -> None:
    # lower triangle: row > column, 1-based, sorted by row then column
    ii, jj, ww = g.edge_arrays()
    order = np.lexsort((ii, jj))
    rows, cols, vals = (jj[order] + 1).tolist(), (ii[order] + 1).tolist(), ww[order].tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{_MM_BANNER} matrix coordinate real symmetric\n")
        fh.write(f"{g.n} {g.n} {g.m}\n")
        fh.write("".join(f"{r} {c} {w!r}\n" for r, c, w in zip(rows, cols, vals)))


def read_matrix_market(path: str | os.PathLike) -> SignedGraph:
    with open(path) as fh:
        header = fh.readline()
        line = fh.readline()
        while line and line.lstrip().startswith("%"):
            line = fh.readline()
        lines = fh.readlines()
    if not header.startswith(_MM_BANNER):
        raise FormatError("missing MatrixMarket banner")
    fields = header.split()
    if len(fields) != 5:
        raise FormatError(f"malformed banner: {header.strip()!r}")
    _, obj, fmt, field, symmetry = (f.lower() for f in fields)
    if obj != "matrix" or fmt != "coordinate":
        raise FormatError(f"unsupported object/format: {obj} {fmt}")
    if field not in ("real", "integer"):
        raise FormatError(f"unsupported field type: {field}")
    if symmetry not in ("symmetric", "general"):
        raise FormatError(f"unsupported symmetry: {symmetry}")
    try:
        rows, cols, nnz = (int(t) for t in line.split())
    except ValueError as exc:
        raise FormatError(f"malformed size line: {line.strip()!r}") from exc
    if rows != cols:
        raise FormatError(f"matrix is {rows}x{cols}, expected square")

    entries = _parse_entries(
        lines, lambda line: FormatError(f"malformed entry line: {line.strip()!r}"), comments="%"
    )
    r, c, w = entries["i"] - 1, entries["j"] - 1, entries["w"]
    outside = (r < 0) | (r >= rows) | (c < 0) | (c >= cols)
    key = r * cols + c
    order = np.argsort(key, kind="stable")
    repeated = np.zeros(len(key), dtype=bool)
    repeated[order[1:]] = key[order[1:]] == key[order[:-1]]
    fault = outside | repeated
    if fault.any():
        k = int(fault.argmax())
        if outside[k]:
            raise FormatError(f"entry ({r[k] + 1}, {c[k] + 1}) outside matrix")
        raise DuplicateEdgeError(f"repeated coordinate ({r[k] + 1}, {c[k] + 1})")
    if len(w) != nnz:
        raise FormatError(f"expected {nnz} entries, found {len(w)}")

    diagonal = r[(r == c) & (w != 0.0)]
    off = r != c
    r, c, w = r[off], c[off], w[off]
    if symmetry == "general":
        i, j, w = _symmetrize(rows, r, c, w)
    else:
        i, j = np.minimum(r, c), np.maximum(r, c)
    if len(diagonal):
        raise SelfLoopError(f"diagonal entry at vertex {diagonal[0] + 1}")
    nonzero = w != 0.0
    return graph_from_arrays(rows, i[nonzero], j[nonzero], w[nonzero])


def _symmetrize(n: int, r: np.ndarray, c: np.ndarray, w: np.ndarray):
    """Average each off-diagonal pair (R + R^T)/2; a missing mirror counts as 0."""
    upper = r < c
    pairs, slot = np.unique(np.minimum(r, c) * n + np.maximum(r, c), return_inverse=True)
    above, below = np.zeros(len(pairs)), np.zeros(len(pairs))
    above[slot[upper]] = w[upper]
    below[slot[~upper]] = w[~upper]
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in Python floats
        asym = np.abs(above - below) > ASYMMETRY_TOL * np.maximum(1.0, np.abs(above))
        avg = (above + below) / 2.0
    if asym.any():
        k = int(asym.argmax())
        a, b = pairs[k] // n + 1, pairs[k] % n + 1
        raise AsymmetricMatrixError(
            f"entries ({a},{b})={float(above[k])!r} and ({b},{a})={float(below[k])!r} disagree"
        )
    return pairs // n, pairs % n, avg


def write_edge_csv(g: SignedGraph, path: str | os.PathLike) -> None:
    """Edge-list CSV: a ``# n=<count>`` line, header ``i,j,w``, 0-based indices."""
    ii, jj, ww = g.edge_arrays()  # already sorted by (i, j)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{_CSV_COUNT}{g.n}\n")
        fh.write("i,j,w\n")
        fh.write("".join(f"{i},{j},{w!r}\n" for i, j, w in zip(ii.tolist(), jj.tolist(), ww.tolist())))


def _bad_csv_row(line: str) -> FormatError:
    row = next(csv.reader([line]))
    if len(row) != 3:
        return FormatError(f"expected 3 columns, got {row!r}")
    return FormatError(f"malformed edge row: {','.join(row)!r}")


def read_edge_csv(path: str | os.PathLike) -> SignedGraph:
    """Read an edge-list CSV; without a ``# n=`` line, n is the largest index + 1."""
    n = None
    with open(path) as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    header = next(reader, None)
    if header and header[0].startswith(_CSV_COUNT):
        line = ",".join(header)
        try:
            n = int(line[len(_CSV_COUNT):])
        except ValueError:
            raise FormatError(f"malformed vertex count line: {line!r}") from None
        header = next(reader, None)
    if header is None:
        raise FormatError("empty edge-list CSV")
    if [h.strip() for h in header] != ["i", "j", "w"]:
        raise FormatError(f"expected header i,j,w, got {header!r}")
    entries = _parse_entries(
        lines[reader.line_num:], _bad_csv_row, delimiter=",", comments=None, quotechar='"'
    )
    i, j, w = entries["i"], entries["j"], entries["w"]
    if n is None:
        max_idx = int(max(i.max(initial=-1), j.max(initial=-1)))
        if max_idx < 0:
            raise FormatError("edge-list CSV has no edges; vertex count is unknown")
        n = max_idx + 1
    return graph_from_arrays(n, i, j, w)


def load_graph(path: str | os.PathLike) -> SignedGraph:
    """Read a graph file, picking the format from the extension."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext in (".mtx", ".mm"):
        return read_matrix_market(path)
    if ext == ".csv":
        return read_edge_csv(path)
    raise FormatError(f"unknown graph file extension {ext!r} (use .mtx, .mm, or .csv)")


def save_graph(g: SignedGraph, path: str | os.PathLike) -> None:
    """Write a graph file, picking the format from the extension."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext in (".mtx", ".mm"):
        write_matrix_market(g, path)
    elif ext == ".csv":
        write_edge_csv(g, path)
    else:
        raise FormatError(f"unknown graph file extension {ext!r} (use .mtx, .mm, or .csv)")
