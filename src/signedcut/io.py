"""Graph serialization: Matrix Market coordinate files and edge-list CSV.

Matrix Market files are written as ``coordinate real symmetric`` with 1-based
indices and the lower triangle stored.  Weights are formatted with ``repr``
so a write/read round trip reproduces every float bit-exactly.  The reader
also accepts ``general`` symmetry and symmetrizes via (R + R^T)/2, rejecting
matrices whose asymmetry exceeds 1e-12 relative.
"""

from __future__ import annotations

import csv
import os
from typing import TextIO

from .errors import (
    AsymmetricMatrixError,
    DuplicateEdgeError,
    FormatError,
    SelfLoopError,
)
from .graph import SignedGraph, graph_from_edges

ASYMMETRY_TOL = 1e-12

_MM_BANNER = "%%MatrixMarket"
_CSV_COUNT = "# n="


def write_matrix_market(g: SignedGraph, path: str | os.PathLike) -> None:
    with open(path, "w", newline="\n") as fh:
        _write_mm(g, fh)


def _write_mm(g: SignedGraph, fh: TextIO) -> None:
    fh.write(f"{_MM_BANNER} matrix coordinate real symmetric\n")
    fh.write(f"{g.n} {g.n} {g.m}\n")
    # lower triangle: row > column, 1-based
    for i, j, w in sorted(g.edges, key=lambda e: (e[1], e[0])):
        fh.write(f"{j + 1} {i + 1} {w!r}\n")


def read_matrix_market(path: str | os.PathLike) -> SignedGraph:
    with open(path) as fh:
        return _read_mm(fh)


def _read_mm(fh: TextIO) -> SignedGraph:
    header = fh.readline()
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

    line = fh.readline()
    while line and line.lstrip().startswith("%"):
        line = fh.readline()
    try:
        rows, cols, nnz = (int(t) for t in line.split())
    except ValueError as exc:
        raise FormatError(f"malformed size line: {line.strip()!r}") from exc
    if rows != cols:
        raise FormatError(f"matrix is {rows}x{cols}, expected square")

    entries: dict[tuple[int, int], float] = {}
    count = 0
    for line in fh:
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"malformed entry line: {line!r}")
        try:
            r, c, w = int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])
        except ValueError:
            raise FormatError(f"malformed entry line: {line!r}") from None
        if not (0 <= r < rows and 0 <= c < cols):
            raise FormatError(f"entry ({r + 1}, {c + 1}) outside matrix")
        if (r, c) in entries:
            raise DuplicateEdgeError(f"repeated coordinate ({r + 1}, {c + 1})")
        entries[(r, c)] = w
        count += 1
    if count != nnz:
        raise FormatError(f"expected {nnz} entries, found {count}")

    if symmetry == "general":
        edges = _symmetrize(entries)
    else:
        edges = []
        for (r, c), w in entries.items():
            if r == c:
                if w != 0.0:
                    raise SelfLoopError(f"diagonal entry at vertex {r + 1}")
                continue
            if w != 0.0:
                edges.append((min(r, c), max(r, c), w))
    return graph_from_edges(rows, edges)


def _symmetrize(entries: dict[tuple[int, int], float]) -> list[tuple[int, int, float]]:
    edges = []
    pairs = {(min(r, c), max(r, c)) for (r, c) in entries if r != c}
    for r, c in pairs:
        upper = entries.get((r, c), 0.0)
        lower = entries.get((c, r), 0.0)
        if abs(upper - lower) > ASYMMETRY_TOL * max(1.0, abs(upper)):
            raise AsymmetricMatrixError(
                f"entries ({r + 1},{c + 1})={upper!r} and ({c + 1},{r + 1})={lower!r} disagree"
            )
        avg = (upper + lower) / 2.0
        if avg != 0.0:
            edges.append((r, c, avg))
    for (r, c), w in entries.items():
        if r == c and w != 0.0:
            raise SelfLoopError(f"diagonal entry at vertex {r + 1}")
    return edges


def write_edge_csv(g: SignedGraph, path: str | os.PathLike) -> None:
    """Edge-list CSV: a ``# n=<count>`` line, header ``i,j,w``, 0-based indices."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{_CSV_COUNT}{g.n}\n")
        fh.write("i,j,w\n")
        for i, j, w in g.edges:
            fh.write(f"{i},{j},{w!r}\n")


def read_edge_csv(path: str | os.PathLike) -> SignedGraph:
    """Read an edge-list CSV; without a ``# n=`` line, n is the largest index + 1."""
    n = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
        edges = []
        max_idx = -1
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise FormatError(f"expected 3 columns, got {row!r}")
            try:
                i, j, w = int(row[0]), int(row[1]), float(row[2])
            except ValueError:
                raise FormatError(f"malformed edge row: {','.join(row)!r}") from None
            max_idx = max(max_idx, i, j)
            edges.append((i, j, w))
    if n is None:
        if max_idx < 0:
            raise FormatError("edge-list CSV has no edges; vertex count is unknown")
        n = max_idx + 1
    return graph_from_edges(n, edges)


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
