"""Property tests for the table reader shared by every input table.

One malformed row is planted at a random line among valid rows, comment
lines and blank lines, sometimes with a second malformed row of another
kind after it.  Each parser must reject the table with a ``ValueError``
that names exactly the first of them; the CLI must turn the same kind of
error into exit code 1 and a one-line message, never a traceback.

On valid tables, each parser reads whole columns at once; the result must
equal what a plain reader, ``_rows`` here, gives one line at a time.
Lines end at ``\\n`` only, so line numbers count as an editor counts them.
An edge list is read ``graphs.EDGE_BLOCK`` lines at a time, so its tests
take the block size as one more input, down to one line.
"""

import logging
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netqwalk import cli, graphs
from netqwalk.graphs import (
    GraphFormatError,
    graph_from_edges,
    load_edge_list,
    parse_label_pairs,
    parse_node_layers,
)
from netqwalk.pipeline import parse_score_table

# For each table: its parser, a valid row for distinct index i, and the
# malformed rows it must reject, by kind.  A repeated label is a copy of
# valid row 0, which is malformed only after that row.
TABLES = {
    "edge list": (
        load_edge_list,
        lambda i: f"u{i}\tv{i}" + ("\t0.5" if i % 2 else ""),
        {
            "count": ["u", "u\tv\t1\t2"],
            "empty": ["u\t\t1"],
            "number": ["u\tv\tx", "u\tv\t-1", "u\tv\tnan", "u\tv\tinf"],
        },
    ),
    "node layers": (
        parse_node_layers,
        lambda i: f"N{i}\tsender",
        {"count": ["N", "N\tsender\textra"], "empty": ["N\t\tsender"]},
    ),
    "label pairs": (
        parse_label_pairs,
        lambda i: f"A{i}\tB{i}",
        {"count": ["A", "A\tB\tC"], "empty": ["A\t\tB"]},
    ),
    "score table": (
        parse_score_table,
        lambda i: f"G{i}\t{i / 100:g}" if i % 2 else f"G{i} 1e-{i % 9 + 1}",
        {
            "count": ["bad", "bad\t0.1\t0.2"],
            "number": ["bad\tlow", "bad\t-0.1", "bad\t1.5", "bad\tnan", "bad\tinf"],
            "repeat": ["G0 1e-1"],
        },
    ),
}

FILLER = st.sampled_from(["# comment", "  # indented comment", "", "   "])

# lines per edge-list block: the default, and blocks small enough that the
# generated tables cross several block boundaries
BLOCKS = st.sampled_from([graphs.EDGE_BLOCK, 1, 2, 3])


@st.composite
def planted_tables(draw):
    """(table name, text, 1-based line number of the first malformed row,
    the line numbers of every malformed row)."""
    name = draw(st.sampled_from(sorted(TABLES)))
    _, valid_row, bad_rows = TABLES[name]
    n_valid = draw(st.integers(1, 12))
    lines = draw(
        st.permutations(
            [valid_row(i) for i in range(n_valid)]
            + draw(st.lists(FILLER, max_size=8))
        )
    )
    kind = draw(st.sampled_from(sorted(bad_rows)))
    low = lines.index(valid_row(0)) + 1 if kind == "repeat" else 0
    at = draw(st.integers(low, len(lines)))
    lines.insert(at, draw(st.sampled_from(bad_rows[kind])))
    planted = {at + 1}
    others = sorted(set(bad_rows) - {kind})
    if others and draw(st.booleans()):
        later = draw(st.integers(at + 1, len(lines)))
        lines.insert(later, draw(st.sampled_from(bad_rows[draw(st.sampled_from(others))])))
        planted.add(later + 1)
    return name, "\n".join(lines) + "\n", at + 1, planted


@settings(max_examples=200, deadline=None)
@given(planted_tables(), BLOCKS)
# each pair of kinds, the earlier one on line 2
@example(("score table", "G0 1e-1\nbad\tlow\nG0 1e-1\n", 2, {2, 3}), graphs.EDGE_BLOCK)
@example(("score table", "G0 1e-1\nG0 1e-1\nbad\tlow\n", 2, {2, 3}), graphs.EDGE_BLOCK)
@example(("score table", "G0 1e-1\nbad\t0.1\t0.2\nG0 1e-1\n", 2, {2, 3}), graphs.EDGE_BLOCK)
@example(("edge list", "u0\tv0\nu\tv\tx\nu\t\t1\n", 2, {2, 3}), graphs.EDGE_BLOCK)
@example(("edge list", "u0\tv0\nu\t\t1\nu\tv\tx\n", 2, {2, 3}), graphs.EDGE_BLOCK)
@example(("edge list", "u0\tv0\nu\tv\t-1\nu\n", 2, {2, 3}), graphs.EDGE_BLOCK)
@example(("label pairs", "A0\tB0\nA\tB\tC\nA\t\tB\n", 2, {2, 3}), graphs.EDGE_BLOCK)
@example(("label pairs", "A0\tB0\nA\t\tB\nA\tB\tC\n", 2, {2, 3}), graphs.EDGE_BLOCK)
# a bad row first in a block, and last in one; a bad number before a bad
# shape in the next block
@example(("edge list", "u0\tv0\nu1\tv1\t0.5\nu\nu2\tv2\n", 3, {3}), 2)
@example(("edge list", "u0\tv0\nu1\tv1\t0.5\nu\tv\tx\nu2\tv2\n", 3, {3}), 3)
@example(("edge list", "u0\tv0\nu\tv\t-1\nu\n", 2, {2, 3}), 2)
# a first block of comments and blank lines only
@example(("edge list", "# comment\n\n  # indented comment\nu0\tv0\nu\t\t1\n", 5, {5}), 3)
def test_malformed_row_is_rejected_naming_its_line(case, block):
    name, text, lineno, planted = case
    parse = TABLES[name][0]
    clean = "\n".join(
        line for i, line in enumerate(text.split("\n"), start=1) if i not in planted
    )
    with mock.patch.object(graphs, "EDGE_BLOCK", block):
        parse(clean)
        with pytest.raises(ValueError, match=rf"^line {lineno}: "):
            parse(text)


@pytest.mark.parametrize("mark", ["\x0c", "\x85", "\u2028"])
def test_only_a_newline_ends_a_line(mark):
    # str.splitlines() would also break at each of these marks
    g = load_edge_list(f"a{mark}b\tc\nc\td\n")
    assert g.labels == (f"a{mark}b", "c", "d")
    with pytest.raises(GraphFormatError, match=r"^line 3: "):
        load_edge_list(f"a{mark}b\tc\nc\td\ne\tf\tg\th\n")
    with pytest.raises(GraphFormatError, match=r"^line 3: "):
        load_edge_list(f"a\tb{mark}\nc\td\ne\tf\tg\th\n")


def test_a_crlf_row_is_quoted_without_its_carriage_return():
    message = "line 2: expected 'u<TAB>v[<TAB>w]' with nonempty fields, got 'c\\td\\te\\tf'"
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        load_edge_list("a\tb\r\nc\td\te\tf\r\n")


def test_a_repeated_label_is_named_before_its_bad_number():
    with pytest.raises(GraphFormatError, match=r"^line 2: duplicate label 'G0'$"):
        parse_score_table("G0\t0.5\nG0\tlow\n")


def _write(tmp_path, **tables):
    for name, text in tables.items():
        (tmp_path / f"{name}.tsv").write_text(text)
    return {name: str(tmp_path / f"{name}.tsv") for name in tables}


@pytest.mark.parametrize("command", ["prioritize", "cci", "graph-stats"])
def test_cli_malformed_table_is_exit_1_naming_the_line(command, tmp_path, capsys):
    bad = "# header\n\nbad\trow\tthat\thas\tfive\n"
    if command == "prioritize":
        paths = _write(
            tmp_path, graph="a\tb\nb\tc\n", scores="a\t0.001\n", targets=bad
        )
        argv = [
            "prioritize", "--graph", paths["graph"], "--scores", paths["scores"],
            "--targets", paths["targets"], "--out", str(tmp_path / "out"),
        ]
    elif command == "cci":
        paths = _write(tmp_path, nodes="S1\tsender\nL1\tligand\n", edges=bad)
        argv = [
            "cci", "--nodes", paths["nodes"], "--edges", paths["edges"],
            "--targets", "S1", "--out", str(tmp_path / "out"),
        ]
    else:
        argv = ["graph-stats", "--graph", _write(tmp_path, graph=bad)["graph"]]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "line 3" in err
    assert "Traceback" not in err
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# the whole-table reader against the row reader
# ---------------------------------------------------------------------------

# one label: one or two words, so a tab-separated label can hold inner spaces
WORD = st.text(alphabet="abXY09_-.éβ", min_size=1, max_size=3)
LABEL = st.lists(WORD, min_size=1, max_size=2).map(" ".join)
PAD = st.sampled_from(["", "", " ", "  ", "\u3000"])
NUMBER = st.floats(min_value=0.0, max_value=1e6).map(repr)
P_VALUE = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.sampled_from(["0", "1", "1e-9", "5E-08", ".5"]),
)
GAP = st.sampled_from([" ", "\t", "  ", " \t ", "\t\t", "\xa0", "\x0c"])


@st.composite
def tables(draw, rows, sep="\t"):
    """Text of ``rows`` (lists of fields) with padded fields, comments,
    blank and indented lines, and LF or CRLF line ends."""
    lines = []
    for fields in rows:
        gaps = [sep if sep else draw(GAP) for _ in fields[1:]]
        padded = [draw(PAD) + f + draw(PAD) for f in fields]
        lines.append(padded[0] + "".join(g + f for g, f in zip(gaps, padded[1:])))
    lines = draw(st.permutations(lines + draw(st.lists(FILLER | st.just("\t# tab"), max_size=6))))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _rows(text, sep="\t"):
    """The trimmed fields of each data line of a valid table, one line at a time."""
    lines = (line.strip() for line in text.split("\n"))
    return [[f.strip() for f in line.split(sep)] for line in lines if line and line[0] != "#"]


@st.composite
def edge_tables(draw):
    # a few labels, so duplicate edges and self-loops are common
    pool = draw(st.lists(LABEL, min_size=1, max_size=5, unique=True))
    node = st.sampled_from(pool)
    rows = draw(st.lists(
        st.tuples(node, node, st.none() | NUMBER).map(lambda r: [x for x in r if x]),
        max_size=15,
    ))
    return draw(tables(rows))


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=200, deadline=None)
@given(edge_tables(), BLOCKS)
# a label first seen in a later block
@example("a\tb\n# comment\nc\ta\n", 2)
# a duplicate edge across blocks: 0.1 + 0.2 + 0.3 sums to another float
# in any order but the rows'
@example("a\tb\t0.1\nb\ta\t0.2\na\tb\t0.3\n", 1)
# self-loops in two blocks
@example("a\ta\nb\tc\nb\tb\n", 2)
# a first block of comments and blank lines only
@example("# comment\n\n   \na\tb\nb\tc\n", 3)
# comments only: an empty edge list
@example("# comment\n\n# another\n", 2)
def test_edge_list_reader_matches_the_row_reader(text, block):
    # labels by first appearance, self-loops dropped, duplicate weights
    # summed in row order and edges sorted: the graph of the rows as read
    index, merged, loops = {}, {}, 0
    for fields in _rows(text):
        u, v = (index.setdefault(label, len(index)) for label in fields[:2])
        if u == v:
            loops += 1
            continue
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + (float(fields[2]) if len(fields) == 3 else 1.0)
    logger, handler = logging.getLogger("netqwalk.graphs"), _Messages()
    logger.addHandler(handler)
    try:
        with mock.patch.object(graphs, "EDGE_BLOCK", block):
            if not index:
                with pytest.raises(GraphFormatError, match="^empty edge list: no data rows"):
                    load_edge_list(text)
                return
            g = load_edge_list(text)
    finally:
        logger.removeHandler(handler)
    assert g.labels == tuple(index)
    assert g.edges.tolist() == [list(key) for key in sorted(merged)]
    assert g.weights.tolist() == [merged[key] for key in sorted(merged)]
    assert handler.messages == (
        [f"dropped {loops} self-loop(s) during graph construction"] if loops else []
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pair_tables_match_the_row_reader(data):
    layers = data.draw(tables(data.draw(st.lists(
        st.tuples(LABEL, st.sampled_from(["sender", "ligand", "Receptor"])).map(list),
        min_size=1, max_size=12,
    ))))
    assert parse_node_layers(layers) == [tuple(f) for f in _rows(layers)]
    pairs = data.draw(tables(data.draw(st.lists(
        st.lists(LABEL, min_size=2, max_size=2), min_size=1, max_size=12,
    ))))
    assert parse_label_pairs(pairs) == [tuple(f) for f in _rows(pairs)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_score_table_reader_matches_the_row_reader(data):
    # any run of whitespace separates the columns, so labels are one word
    labels = data.draw(st.lists(WORD, min_size=1, max_size=12, unique=True))
    text = data.draw(tables([[label, data.draw(P_VALUE)] for label in labels], sep=None))
    want = [(label, float(value)) for label, value in _rows(text, sep=None)]
    assert list(parse_score_table(text).items()) == want


def test_an_edge_list_is_parsed_a_block_at_a_time():
    # 50,000 rows over 16,000 labels (0.77 MB of text): split whole, the
    # table held a string per line and per field at once, a peak of 16.8 MB
    ends = np.random.default_rng(50).integers(0, 16_000, size=(50_000, 2)).tolist()
    text = "".join(
        f"G{u:05d}\tG{v:05d}" + ("\t0.5\n" if k % 3 else "\n") for k, (u, v) in enumerate(ends)
    )
    tracemalloc.start()
    try:
        g = load_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 15_962
    assert peak < 10e6


def test_the_reader_frees_its_label_index_before_the_graph_builds_one():
    # 45,000 labels on 22,500 edges: the reader's label -> id dict is as
    # large as the graph's own, and both were alive at the peak of the build
    # (11.5 MB through the edge-list reader, 9.0 MB from edge tuples)
    pairs = [(f"A{k:05d}", f"B{k:05d}") for k in range(22_500)]
    text = "".join(f"{u}\t{v}\n" for u, v in pairs)
    for build, source, bound in ((load_edge_list, text, 10e6), (graph_from_edges, pairs, 7.5e6)):
        tracemalloc.start()
        try:
            g = build(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 45_000 and g.index("B22499") == 44_999
        assert peak < bound
