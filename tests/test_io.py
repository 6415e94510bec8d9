import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from signedcut import (
    AsymmetricMatrixError,
    DuplicateEdgeError,
    FormatError,
    NonfiniteWeightError,
    SelfLoopError,
    cobra,
    dumbbell,
    graph_from_arrays,
    graph_from_edges,
    load_graph,
    noisy_string,
    read_edge_csv,
    read_matrix_market,
    save_graph,
    write_edge_csv,
    write_matrix_market,
)
from signedcut.cli import main
from signedcut.io import CHUNK_LINES

from test_graph import random_graph


def test_matrix_market_round_trip_is_identity(tmp_path):
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_graph(rng)
        path = tmp_path / "g.mtx"
        write_matrix_market(g, path)
        assert read_matrix_market(path) == g


def test_round_trip_preserves_awkward_floats(tmp_path):
    weights = [0.1 + 0.2, 1e-300, -3.0000000000000004, 2**-40, 1 + 2**-52]
    g = graph_from_edges(6, [(i, i + 1, w) for i, w in enumerate(weights)])
    path = tmp_path / "g.mtx"
    write_matrix_market(g, path)
    back = read_matrix_market(path)
    assert back == g
    assert back.edge_arrays()[2].tobytes() == g.edge_arrays()[2].tobytes()


def test_cobra_round_trip(tmp_path):
    path = tmp_path / "cobra.mtx"
    write_matrix_market(cobra(), path)
    assert read_matrix_market(path) == cobra()


def test_writer_stores_lower_triangle(tmp_path):
    path = tmp_path / "g.mtx"
    write_matrix_market(graph_from_edges(3, [(0, 2, -1.5)]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
    assert lines[1] == "3 3 1"
    assert lines[2].split() == ["3", "1", "-1.5"]


def test_reader_accepts_general_and_symmetrizes(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 4\n"
        "1 2 2.0\n"
        "2 1 2.0\n"
        "2 3 -1.0\n"
        "3 2 -1.0\n"
    )
    g = read_matrix_market(path)
    assert g == graph_from_edges(3, [(0, 1, 2.0), (1, 2, -1.0)])


def test_reader_rejects_asymmetric_general(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 2 1.0\n"
        "2 1 1.000001\n"
    )
    with pytest.raises(AsymmetricMatrixError):
        read_matrix_market(path)


LIMIT_PAIR = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.5e308\n2 1 1.5e308\n"


def test_reader_averages_a_pair_near_the_float_limit(tmp_path):
    """The pair's sum overflows; its average, 1.5e308, does not, and no numpy warning is raised."""
    path = tmp_path / "limit.mtx"
    path.write_text(LIMIT_PAIR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = read_matrix_market(path)
    assert g == graph_from_edges(2, [(0, 1, 1.5e308)])


@pytest.mark.parametrize("argv", [["partition"], ["partition", "--laplacian", "signed"], ["compare"],
                                  ["spectrum", "--k", "2"]])
def test_laplacian_row_sum_overflow_exits_2(tmp_path, capsys, argv):
    """The pair loads, but the Laplacian's absolute row sums, 1.5e308 + 1.5e308, overflow."""
    path = tmp_path / "limit.mtx"
    path.write_text(LIMIT_PAIR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    report = json.loads(captured.err.splitlines()[-1])
    assert code == 2 and captured.out == "" and report["exit_code"] == 2
    assert report["error"] == "the Laplacian's absolute row sum at vertex 0 (0-based) overflows"


def test_reader_tolerates_tiny_asymmetry(tmp_path):
    w = 1.0
    path = tmp_path / "g.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        f"1 2 {w!r}\n"
        f"2 1 {w + 1e-13!r}\n"
    )
    g = read_matrix_market(path)
    assert g.m == 1


def test_reader_rejects_diagonal_entry(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 1\n"
        "1 1 3.0\n"
    )
    with pytest.raises(SelfLoopError):
        read_matrix_market(path)


def test_reader_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "% a comment\n"
        "2 2 1\n"
        "\n"
        "2 1 1.0\n"
    )
    assert read_matrix_market(path) == graph_from_edges(2, [(0, 1, 1.0)])

def test_reader_rejects_rectangular(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n")
    with pytest.raises(FormatError):
        read_matrix_market(path)


def test_edge_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    graphs = [random_graph(rng) for _ in range(10)]
    # trailing isolated vertices, and no edges at all
    graphs += [graph_from_edges(5, [(0, 1, 1.0), (1, 2, -0.5)]), graph_from_edges(3, [])]
    for g in graphs:
        path = tmp_path / "g.csv"
        write_edge_csv(g, path)
        assert read_edge_csv(path) == g


def test_edge_csv_header_checked(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("a,b,c\n0,1,1.0\n")
    with pytest.raises(FormatError):
        read_edge_csv(path)


def test_edge_csv_without_count_line(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("i,j,w\n0,1,1.0\n1,2,-0.5\n")
    g = read_edge_csv(path)
    assert g == graph_from_edges(3, [(0, 1, 1.0), (1, 2, -0.5)])


@pytest.mark.parametrize("row", ["0,1.5,1.0", "0,1,heavy", "x,1,1.0"])
def test_edge_csv_bad_row_is_format_error(tmp_path, row):
    path = tmp_path / "g.csv"
    path.write_text(f"i,j,w\n0,2,1.0\n{row}\n")
    with pytest.raises(FormatError, match=re.escape(row)):
        read_edge_csv(path)


@pytest.mark.parametrize("entry", ["2.5 1 1.0", "2 x 1.0", "2 1 heavy"])
def test_matrix_market_bad_entry_is_format_error(tmp_path, entry):
    path = tmp_path / "g.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n{entry}\n")
    with pytest.raises(FormatError, match=re.escape(entry)):
        read_matrix_market(path)


_BANNER = "%%MatrixMarket matrix coordinate real symmetric\n"

# (file name, contents, error class, message) of files every reader check rejects
MALFORMED = [
    ("no-banner.mtx", "2 2 1\n2 1 1.0\n", FormatError, "missing MatrixMarket banner"),
    ("short-banner.mtx", "%%MatrixMarket matrix coordinate real\n2 2 1\n2 1 1.0\n", FormatError,
     "malformed banner: '%%MatrixMarket matrix coordinate real'"),
    ("array.mtx", "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n", FormatError,
     "unsupported object/format: matrix array"),
    ("vector.mtx", "%%MatrixMarket vector coordinate real symmetric\n2 2 1\n2 1 1.0\n", FormatError,
     "unsupported object/format: vector coordinate"),
    ("complex.mtx", "%%MatrixMarket matrix coordinate complex symmetric\n2 2 1\n2 1 1.0 0.0\n",
     FormatError, "unsupported field type: complex"),
    ("pattern.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n2 1\n", FormatError,
     "unsupported field type: pattern"),
    ("skew.mtx", "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n", FormatError,
     "unsupported symmetry: skew-symmetric"),
    ("size-line.mtx", _BANNER + "2 2\n2 1 1.0\n", FormatError, "malformed size line: '2 2'"),
    ("no-size-line.mtx", _BANNER + "% only a comment\n", FormatError, "malformed size line: ''"),
    ("outside.mtx", _BANNER + "3 3 2\n2 1 1.0\n4 1 1.0\n", FormatError, "entry (4, 1) outside matrix"),
    ("index-zero.mtx", _BANNER + "3 3 1\n0 1 1.0\n", FormatError, "entry (0, 1) outside matrix"),
    ("repeated.mtx", _BANNER + "3 3 2\n2 1 1.0\n2 1 2.0\n", DuplicateEdgeError, "repeated coordinate (2, 1)"),
    ("count.mtx", _BANNER + "3 3 3\n2 1 1.0\n3 2 1.0\n", FormatError, "expected 3 entries, found 2"),
    # the reader's checks quote the file's 1-based coordinates; the pair of a symmetric file is one edge
    ("nan.mtx", _BANNER + "2 2 1\n2 1 nan\n", NonfiniteWeightError, "entry (2, 1) has nonfinite weight nan"),
    ("mirrored.mtx", _BANNER + "2 2 2\n2 1 1.0\n1 2 1.0\n", DuplicateEdgeError,
     "entries (2, 1) and (1, 2) store one pair of a symmetric matrix"),
    ("nan-general.mtx", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 nan\n2 1 nan\n",
     NonfiniteWeightError, "entry (1, 2) has nonfinite weight nan"),
    # the difference of a finite pair near the float limit overflows, without a numpy warning
    ("limit-asymmetric.mtx", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.5e308\n2 1 -1.5e308\n",
     AsymmetricMatrixError, "entries (1,2)=1.5e+308 and (2,1)=-1.5e+308 disagree"),
    ("nan.csv", "# n=2\ni,j,w\n0,1,nan\n", NonfiniteWeightError, "edge (0, 1) has nonfinite weight nan"),
    ("count-line.csv", "# n=abc\ni,j,w\n0,1,1.0\n", FormatError, "malformed vertex count line: '# n=abc'"),
    ("empty.csv", "", FormatError, "empty edge-list CSV"),
    ("count-only.csv", "# n=3\n", FormatError, "empty edge-list CSV"),
    ("no-edges.csv", "i,j,w\n", FormatError, "edge-list CSV has no edges; vertex count is unknown"),
]


@pytest.mark.parametrize("name, text, error, message", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_file_is_rejected(tmp_path, name, text, error, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(error) as info:
        load_graph(path)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("name, text, error, message",
                         [m for m in MALFORMED if m[0] in ("no-banner.mtx", "empty.csv", "nan.mtx")])
def test_malformed_file_exits_2_with_one_report(tmp_path, capsys, name, text, error, message):
    path = tmp_path / name
    path.write_text(text)
    code = main(["partition", str(path)])
    captured = capsys.readouterr()
    reports = [json.loads(line) for line in captured.err.splitlines() if line.startswith("{")]
    assert code == 2 and captured.out == ""
    assert len(reports) == 1
    assert reports[0]["exit_code"] == 2 and reports[0]["error"] == message


@pytest.mark.parametrize("text", [
    _BANNER + "3 3 3\n2 1 1.0\n3 2 0.0\n3 1 -0.0\n",
    "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 2 1.0\n2 1 1.0\n2 3 0.0\n3 2 0.0\n",
])
def test_explicit_zero_entries_are_dropped(tmp_path, text):
    path = tmp_path / "g.mtx"
    path.write_text(text)
    assert read_matrix_market(path) == graph_from_edges(3, [(0, 1, 1.0)])


def test_save_graph_rejects_an_unknown_extension(tmp_path):
    path = tmp_path / "g.txt"
    with pytest.raises(FormatError) as info:
        save_graph(cobra(), path)
    assert str(info.value) == "unknown graph file extension '.txt' (use .mtx, .mm, or .csv)"
    assert not path.exists()


def test_load_graph_dispatches_on_extension(tmp_path):
    g = dumbbell()
    for name in ("g.mtx", "g.mm", "g.csv"):
        path = tmp_path / name
        save_graph(g, path)
        assert load_graph(path) == g
    with pytest.raises(FormatError):
        load_graph(tmp_path / "g.txt")


def test_noisy_string_round_trip(tmp_path):
    g = noisy_string(12, (7, -0.5), 1e-2, seed=3)
    path = tmp_path / "g.mtx"
    write_matrix_market(g, path)
    assert read_matrix_market(path) == g


def one_string_text(g, fmt: str) -> str:
    """The file as the one-string writers made it: the reference for the chunked writers."""
    ii, jj, ww = g.edge_arrays()
    if fmt == "csv":
        rows = zip(ii.tolist(), jj.tolist(), ww.tolist())
        return f"# n={g.n}\ni,j,w\n" + "".join(f"{i},{j},{w!r}\n" for i, j, w in rows)
    order = np.lexsort((ii, jj))
    rows = zip((jj[order] + 1).tolist(), (ii[order] + 1).tolist(), ww[order].tolist())
    return (f"%%MatrixMarket matrix coordinate real symmetric\n{g.n} {g.n} {g.m}\n"
            + "".join(f"{r} {c} {w!r}\n" for r, c, w in rows))


def random_edges(m: int, n: int = 200, seed: int = 0):
    """A graph with m edges drawn from all pairs of n vertices, with signed weights."""
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, 1)
    pick = rng.choice(len(i), m, replace=False)
    w = rng.standard_normal(m) * 10.0 ** rng.integers(-300, 300, m)
    return graph_from_arrays(n, i[pick], j[pick], w)


@pytest.mark.parametrize("fmt", ["mtx", "csv"])
@pytest.mark.parametrize("offset", [None, -1, 0, 1], ids=["0-and-1-edges", "chunk-1", "chunk", "chunk+1"])
def test_round_trip_bytes_around_the_chunk_size(tmp_path, fmt, offset):
    m = 0 if offset is None else CHUNK_LINES + offset
    graphs = [random_edges(m)] if m else [graph_from_edges(4, []), graph_from_edges(4, [(3, 1, -0.5)])]
    for g in graphs:
        first, second = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        save_graph(g, first)
        assert first.read_bytes() == one_string_text(g, fmt).encode()
        back = load_graph(first)
        assert back == g
        save_graph(back, second)
        assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("fmt, bad, message", [
    ("mtx", "7 x 0.5", "malformed entry line: '7 x 0.5'"),
    ("csv", "3,7", "expected 3 columns, got ['3', '7']"),
    ("csv", "3,7,heavy", "malformed edge row: '3,7,heavy'"),
], ids=["mtx", "csv-columns", "csv-row"])
def test_bad_line_after_more_than_one_chunk(tmp_path, fmt, bad, message):
    path = tmp_path / f"g.{fmt}"
    save_graph(random_edges(2 * CHUNK_LINES), path)
    lines = path.read_text().splitlines(keepends=True)
    # a bad line in the second chunk, and a later one that must not be reported
    lines.insert(CHUNK_LINES + 7, bad + "\n")
    lines.insert(-3, "1 2 3 4\n")
    path.write_text("".join(lines))
    with pytest.raises(FormatError) as raised:
        load_graph(path)
    assert str(raised.value) == message


def test_crlf_and_comment_lines_in_the_body(tmp_path):
    g = random_edges(50)
    for fmt in ("mtx", "csv"):
        lines = one_string_text(g, fmt).splitlines()
        if fmt == "mtx":
            lines[10:10] = ["% a comment in the body", "%another"]
            lines.append("% a last comment")
        path = tmp_path / f"g.{fmt}"
        path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        assert load_graph(path) == g


@pytest.mark.parametrize("fmt", ["mtx", "csv"])
def test_save_and_load_memory_grow_with_the_edge_arrays(tmp_path, fmt):
    # 200k edges: 6 circulant offsets on 33334 vertices, 4.8 MB of edge
    # arrays.  Holding the file as one string, or as a list of line
    # strings, takes 8 to 11 times that; streaming save takes 0.4 to 0.7
    # times, and load 2.1 times, its result included.
    n = 33334
    v = np.arange(n)
    i, j = np.concatenate([v] * 6), np.concatenate([(v + d) % n for d in range(1, 7)])
    w = np.random.default_rng(0).standard_normal(len(i))
    g = graph_from_arrays(n, i, j, w)
    arrays = sum(a.nbytes for a in g.edge_arrays())
    path = tmp_path / f"g.{fmt}"
    for step, bound in ((lambda: save_graph(g, path), 1.5), (lambda: load_graph(path), 3.5)):
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * arrays
