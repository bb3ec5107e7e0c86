"""Property tests for the TSV row reader shared by every input table.

One malformed row is planted at a random line among valid rows, comment
lines and blank lines.  Each parser must reject the table with a
``ValueError`` that names exactly that line; the CLI must turn the same
kind of error into exit code 1 and a one-line message, never a traceback.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netqwalk import cli
from netqwalk.graphs import load_edge_list, parse_label_pairs, parse_node_layers
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
