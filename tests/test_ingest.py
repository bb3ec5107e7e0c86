"""Property tests for the table reader shared by every input table.

One malformed row is planted at a random line among valid rows, comment
lines and blank lines.  Each parser must reject the table with a
``ValueError`` that names exactly that line; the CLI must turn the same
kind of error into exit code 1 and a one-line message, never a traceback.

On valid tables, each parser reads whole columns at once; the result must
equal what the line-numbered row reader ``table_rows``, which the parsers
keep as their error path, gives one row at a time.
"""

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netqwalk import cli
from netqwalk.graphs import (
    load_edge_list,
    parse_label_pairs,
    parse_node_layers,
    table_rows,
)
from netqwalk.pipeline import parse_score_table

# For each table: its parser, a valid row for distinct index i, and the
# malformed rows (wrong field count, empty field, bad number) it must reject.
TABLES = {
    "edge list": (
        load_edge_list,
        lambda i: f"u{i}\tv{i}" + ("\t0.5" if i % 2 else ""),
        ["u", "u\tv\t1\t2", "u\t\t1", "u\tv\tx", "u\tv\t-1", "u\tv\tnan", "u\tv\tinf"],
    ),
    "node layers": (
        parse_node_layers,
        lambda i: f"N{i}\tsender",
        ["N", "N\tsender\textra", "N\t\tsender"],
    ),
    "label pairs": (
        parse_label_pairs,
        lambda i: f"A{i}\tB{i}",
        ["A", "A\tB\tC", "A\t\tB"],
    ),
    "score table": (
        parse_score_table,
        lambda i: f"G{i}\t{i / 100:g}" if i % 2 else f"G{i} 1e-{i % 9 + 1}",
        ["bad", "bad\t0.1\t0.2", "bad\tlow", "bad\t-0.1", "bad\t1.5", "bad\tnan", "bad\tinf"],
    ),
}

FILLER = st.sampled_from(["# comment", "  # indented comment", "", "   "])


@st.composite
def planted_tables(draw):
    """(table name, text, 1-based line number of the malformed row)."""
    name = draw(st.sampled_from(sorted(TABLES)))
    _, valid_row, bad_rows = TABLES[name]
    n_valid = draw(st.integers(1, 12))
    lines = draw(
        st.permutations(
            [valid_row(i) for i in range(n_valid)]
            + draw(st.lists(FILLER, max_size=8))
        )
    )
    at = draw(st.integers(0, len(lines)))
    lines.insert(at, draw(st.sampled_from(bad_rows)))
    return name, "\n".join(lines) + "\n", at + 1


@settings(max_examples=200, deadline=None)
@given(planted_tables())
def test_malformed_row_is_rejected_naming_its_line(case):
    name, text, lineno = case
    parse = TABLES[name][0]
    clean = "\n".join(
        line for i, line in enumerate(text.splitlines(), start=1) if i != lineno
    )
    parse(clean)
    with pytest.raises(ValueError, match=rf"^line {lineno}: "):
        parse(text)


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
GAP = st.sampled_from([" ", "\t", "  ", " \t ", "\t\t"])


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


def _rows(text, widths, sep="\t"):
    return [fields for _, fields in table_rows(text, widths, "", "", sep)]


@st.composite
def edge_tables(draw):
    # a few labels, so duplicate edges and self-loops are common
    pool = draw(st.lists(LABEL, min_size=1, max_size=5, unique=True))
    node = st.sampled_from(pool)
    rows = draw(st.lists(
        st.tuples(node, node, st.none() | NUMBER).map(lambda r: [x for x in r if x]),
        min_size=1, max_size=15,
    ))
    return draw(tables(rows))


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=200, deadline=None)
@given(edge_tables())
def test_edge_list_reader_matches_the_row_reader(text):
    # labels by first appearance, self-loops dropped, duplicate weights
    # summed in row order and edges sorted: the graph of the rows as read
    index, merged, loops = {}, {}, 0
    for fields in _rows(text, (2, 3)):
        u, v = (index.setdefault(label, len(index)) for label in fields[:2])
        if u == v:
            loops += 1
            continue
        key = (min(u, v), max(u, v))
        merged[key] = merged.get(key, 0.0) + (float(fields[2]) if len(fields) == 3 else 1.0)
    logger, handler = logging.getLogger("netqwalk.graphs"), _Messages()
    logger.addHandler(handler)
    try:
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
    assert parse_node_layers(layers) == [tuple(f) for f in _rows(layers, (2,))]
    pairs = data.draw(tables(data.draw(st.lists(
        st.lists(LABEL, min_size=2, max_size=2), min_size=1, max_size=12,
    ))))
    assert parse_label_pairs(pairs) == [tuple(f) for f in _rows(pairs, (2,))]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_score_table_reader_matches_the_row_reader(data):
    # any run of whitespace separates the columns, so labels are one word
    labels = data.draw(st.lists(WORD, min_size=1, max_size=12, unique=True))
    text = data.draw(tables([[label, data.draw(P_VALUE)] for label in labels], sep=None))
    want = [(label, float(value)) for label, value in _rows(text, (2,), sep=None)]
    assert list(parse_score_table(text).items()) == want
