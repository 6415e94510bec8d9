"""Graph serialization: Matrix Market coordinate files and edge-list CSV.

Matrix Market files are written as ``coordinate real symmetric`` with 1-based
indices and the lower triangle stored column by column: the graph's own
(i, j) edge order, as in the CSV files.  The stable sorts of the reader and
of ``graph_from_arrays`` pass such a file in linear time; a file in any
other order loads to the same graph.  Weights are formatted with ``repr``
so a write/read round trip reproduces every float bit-exactly.  The reader
also accepts ``general`` symmetry and symmetrizes via (R + R^T)/2, rejecting
matrices whose asymmetry exceeds 1e-12 relative.

Files pass through memory in pieces.  Each reader reads its header lines
one at a time, then hands the open file to one ``numpy.loadtxt`` call,
which parses the entry lines as it reads them; the lines are read back as
strings only to find the first one that does not parse.  The entries are
then checked as arrays.  Of several faults, a line that does not parse is
reported first, then range, nonfinite weight and repeats (in a symmetric
file, (i, j) and (j, i) are one pair), count, asymmetry, diagonal, graph
checks; the reader's own messages quote the file's 1-based coordinates.
Both writers share one loop that formats and writes ``CHUNK_LINES`` lines
at a time.  So reading and writing need memory in proportion to the numpy
edge arrays, not one Python string per edge.
"""

from __future__ import annotations

import csv
import os
import warnings
from typing import Callable, TextIO

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DuplicateEdgeError,
    FormatError,
    NonfiniteWeightError,
    SelfLoopError,
)
from .graph import EDGE_DTYPE, SignedGraph, graph_from_arrays, sorted_repeats

ASYMMETRY_TOL = 1e-12

# Lines (or list items) formatted into one string per write.  Writing
# speed is flat from about 1k to 64k lines; a chunk of 8192 graph lines
# takes about 1 MB while it is formatted.
CHUNK_LINES = 8192

_MM_BANNER = "%%MatrixMarket"
_CSV_COUNT = "# n="


def _parse_entries(fh: TextIO, bad_line: Callable[[str], FormatError], **options) -> np.ndarray:
    """Parse the (index, index, weight) lines left in the open file in one call.

    Raises ``bad_line(line)`` for the first line that does not parse; only
    then are the lines read back, as strings.
    """
    start = fh.tell()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no entry lines: an edgeless graph
        try:
            return np.loadtxt(fh, dtype=EDGE_DTYPE, ndmin=1, **options)
        except ValueError:
            fh.seek(start)
            lines = fh.readlines()
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


def _write_edges(path: str | os.PathLike, head: str, line: str, base: int, *columns: np.ndarray) -> None:
    """``head``, then ``line % (a + base, b + base, w)`` for each row of columns (a, b, w), in chunks."""
    with open(path, "w", newline="\n") as fh:
        fh.write(head)
        for start in range(0, len(columns[2]), CHUNK_LINES):
            a, b, w = (c[start : start + CHUNK_LINES] for c in columns)
            fh.write("".join(map(line.__mod__, zip((a + base).tolist(), (b + base).tolist(), w.tolist()))))


def write_matrix_market(g: SignedGraph, path: str | os.PathLike) -> None:
    ii, jj, ww = g.edge_arrays()
    # lower triangle, 1-based: row j > column i, in the graph's (i, j) order, column by column
    _write_edges(path, f"{_MM_BANNER} matrix coordinate real symmetric\n{g.n} {g.n} {g.m}\n",
                 "%d %d %r\n", 1, jj, ii, ww)


def read_matrix_market(path: str | os.PathLike) -> SignedGraph:
    with open(path) as fh:
        header = fh.readline()
        line = fh.readline()
        while line and line.lstrip().startswith("%"):
            line = fh.readline()
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
            fh, lambda line: FormatError(f"malformed entry line: {line.strip()!r}"), comments="%"
        )

    # the checks work on the parsed columns in place and keep no index
    # temporary past its check, so that few are alive at once
    r, c, w = entries["i"], entries["j"], entries["w"]
    r -= 1
    c -= 1
    fault = (r < 0) | (r >= rows) | (c < 0) | (c >= cols) | ~np.isfinite(w)
    if symmetry == "symmetric":
        fault |= sorted_repeats(np.minimum(r, c) * cols + np.maximum(r, c))[2]
    else:
        fault |= sorted_repeats(r * cols + c)[2]
    if fault.any():
        # every entry before k is in range and unrepeated: a repeat of k's pair is k's own
        # coordinate or, in a symmetric file, its mirror
        k = int(fault.argmax())
        a, b = r[k] + 1, c[k] + 1
        if not (0 <= r[k] < rows and 0 <= c[k] < cols):
            raise FormatError(f"entry ({a}, {b}) outside matrix")
        if not np.isfinite(w[k]):
            raise NonfiniteWeightError(f"entry ({a}, {b}) has nonfinite weight {float(w[k])!r}")
        if ((r[:k] == r[k]) & (c[:k] == c[k])).any():
            raise DuplicateEdgeError(f"repeated coordinate ({a}, {b})")
        raise DuplicateEdgeError(f"entries ({b}, {a}) and ({a}, {b}) store one pair of a symmetric matrix")
    if len(w) != nnz:
        raise FormatError(f"expected {nnz} entries, found {len(w)}")

    diagonal = r[(r == c) & (w != 0.0)]
    if symmetry == "general":
        off = r != c
        r, c, w = _symmetrize(rows, r[off], c[off], w[off])
        keep = w != 0.0
    else:
        keep = (r != c) & (w != 0.0)
    if len(diagonal):
        raise SelfLoopError(f"diagonal entry at vertex {diagonal[0] + 1}")
    if not keep.all():
        r, c, w = r[keep], c[keep], w[keep]
    return graph_from_arrays(rows, r, c, w)


def _symmetrize(n: int, r: np.ndarray, c: np.ndarray, w: np.ndarray):
    """Average each off-diagonal pair (R + R^T)/2; a missing mirror counts as 0."""
    upper = r < c
    pairs, slot = np.unique(np.minimum(r, c) * n + np.maximum(r, c), return_inverse=True)
    above, below = np.zeros(len(pairs)), np.zeros(len(pairs))
    above[slot[upper]] = w[upper]
    below[slot[~upper]] = w[~upper]
    with np.errstate(over="ignore"):
        # near the float limit: an inf difference is asymmetric, an inf sum is halved term by term
        asym = np.abs(above - below) > ASYMMETRY_TOL * np.maximum(1.0, np.abs(above))
        avg = (above + below) / 2.0
    over = np.isinf(avg)
    avg[over] = above[over] / 2.0 + below[over] / 2.0
    if asym.any():
        k = int(asym.argmax())
        a, b = pairs[k] // n + 1, pairs[k] % n + 1
        raise AsymmetricMatrixError(
            f"entries ({a},{b})={float(above[k])!r} and ({b},{a})={float(below[k])!r} disagree"
        )
    return pairs // n, pairs % n, avg


def write_edge_csv(g: SignedGraph, path: str | os.PathLike) -> None:
    """Edge-list CSV: a ``# n=<count>`` line, header ``i,j,w``, 0-based indices."""
    ii, jj, ww = g.edge_arrays()
    _write_edges(path, f"{_CSV_COUNT}{g.n}\ni,j,w\n", "%d,%d,%r\n", 0, ii, jj, ww)


def _bad_csv_row(line: str) -> FormatError:
    row = next(csv.reader([line]))
    if len(row) != 3:
        return FormatError(f"expected 3 columns, got {row!r}")
    return FormatError(f"malformed edge row: {','.join(row)!r}")


def read_edge_csv(path: str | os.PathLike) -> SignedGraph:
    """Read an edge-list CSV; without a ``# n=`` line, n is the largest index + 1."""
    n = None
    with open(path) as fh:
        # readline, not the file's own iterator, keeps fh.tell() working
        reader = csv.reader(iter(fh.readline, ""))
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
        entries = _parse_entries(fh, _bad_csv_row, delimiter=",", comments=None, quotechar='"')
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
