"""Tests for the command-line interface.

Everything runs in process through ``cli.main`` so exit codes and stdout
can be asserted without subprocess overhead.  Three kinds of test need a
fresh interpreter: the BLAS thread-count test, because OpenBLAS reads
``OPENBLAS_NUM_THREADS`` once at import; the text-encoding test, which
runs with ``EncodingWarning`` turned into an error; and the
import-set tests.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from netqwalk import cli, expm
from netqwalk.pipeline import WALKERS, CciConfig, ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"

GRAPH = "a\tb\nb\tc\nc\td\nd\ta\na\tc\nd\te\ne\tf\nx\ty\n"
SCORES = "a\t0.001\nb\t0.002\nc\t0.9\n"
TARGETS = "c\t1e-9\nd\t2e-9\ne\t0.5\n"

CCI_NODES = "S1\tsender\nS2\tsender\nL1\tligand\nL2\tligand\nR1\treceptor\nC1\treceiver\n"
CCI_EDGES = "S1\tL1\nS2\tL2\nL1\tR1\nR1\tC1\n"


@pytest.fixture
def data(tmp_path):
    files = {
        "graph": GRAPH, "scores": SCORES, "targets": TARGETS,
        "nodes": CCI_NODES, "edges": CCI_EDGES,
    }
    paths = {}
    for name, text in files.items():
        p = tmp_path / f"{name}.tsv"
        p.write_text(text)
        paths[name] = str(p)
    paths["out"] = str(tmp_path / "out")
    return paths


def _subparser(command):
    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices[command]


# ---------------------------------------------------------------------------
# graph-stats
# ---------------------------------------------------------------------------


def test_graph_stats_prints_json(data, capsys):
    code = cli.main(["graph-stats", "--graph", data["graph"]])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["nodes"] == 8
    assert stats["edges"] == 8
    assert stats["fragments"] == 2
    assert stats["gc_nodes"] == 6


def test_graph_stats_missing_file_is_exit_1(tmp_path, capsys):
    code = cli.main(["graph-stats", "--graph", str(tmp_path / "absent.tsv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# prioritize
# ---------------------------------------------------------------------------


def test_prioritize_writes_reports_and_summary_lines(data, capsys):
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"],
        "--walker", "ctqrw", "--t-max", "2.0", "--t-step", "0.5",
        "--k", "2,4", "--out", data["out"],
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "AP@2: max" in out and "AP@4: max" in out
    assert "wrote sweep.csv" in out
    written = sorted(p.name for p in Path(data["out"]).iterdir())
    assert written == ["manifest.json", "summary.json", "sweep.csv"]
    manifest = json.loads((Path(data["out"]) / "manifest.json").read_text())
    assert manifest["config"]["walker"] == "ctqrw"
    assert manifest["config"]["k_list"] == [2, 4]
    sweep_lines = (Path(data["out"]) / "sweep.csv").read_text().splitlines()
    assert len(sweep_lines) == 1 + 5  # header + grid 0, 0.5, ..., 2.0


def test_walker_list_is_one_list_and_the_rwr_mode_flag_is_gone(data, capsys):
    # the CLI choices, the sweep table and the README name the same walkers
    walker = next(a for a in _subparser("prioritize")._actions if a.dest == "walker")
    listed = re.search(r"`--walker` ([a-z|]+)", README.read_text()).group(1)
    assert tuple(walker.choices) == WALKERS == tuple(listed.split("|"))
    assert WALKERS == ("rwr", "ctrw", "dtrw", "ctqrw", "dtqrw")
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"],
        "--walker", "rwr", "--rwr-mode", "iterations", "--out", data["out"],
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --rwr-mode iterations" in err
    assert "Traceback" not in err


def test_prioritize_collapse_flag_parses_comma_floats(data):
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"],
        "--t-max", "2.0", "--t-step", "1.0", "--collapse", "0.5,1.5",
        "--k", "3", "--out", data["out"],
    ])
    assert code == 0


@pytest.mark.parametrize("flag", ["--t-max", "--t-step"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_prioritize_non_finite_time_grid_is_exit_1(data, capsys, flag, value):
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"],
        "--walker", "ctrw", flag, value, "--out", data["out"],
    ])
    assert code == 1
    err = capsys.readouterr().err
    field = flag[2:].replace("-", "_")
    assert err.startswith(f"error: {field} must be finite")
    assert "Traceback" not in err
    assert not (Path(data["out"]) / "sweep.csv").exists()


def test_prioritize_collapse_past_the_grid_is_exit_1(data, capsys):
    # the grid ends at t = 2, so collapses at 5 and 7 would change no point
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"],
        "--t-max", "2", "--collapse", "5,7", "--k", "3", "--out", data["out"],
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: collapse time 7.0")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not Path(data["out"]).exists()


def test_prioritize_validation_error_is_exit_1(data, capsys):
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"],
        "--alpha", "1.5", "--walker", "rwr", "--out", data["out"],
    ])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_a_cci_writer_error_in_the_forked_child_is_exit_1_with_its_message(data, capsys):
    # dtqrw's files are written in a forked child, which sends its error back
    blocked = Path(data["out"]) / "cci_dtqrw_profiles.csv"
    blocked.mkdir(parents=True)
    with pytest.raises(IsADirectoryError) as in_process:
        blocked.open("w")
    argv = ["cci", "--nodes", data["nodes"], "--edges", data["edges"], "--targets", "C1",
            "--out", data["out"]]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {in_process.value}\n"
    assert not (Path(data["out"]) / "cci_manifest.json").exists()


@pytest.mark.parametrize(
    "walker_args",
    [("--walker", w) for w in WALKERS] + [("--walker", "ctqrw", "--hamiltonian", "chiral")],
)
def test_a_negative_rng_seed_is_exit_1_naming_the_flag(data, capsys, walker_args):
    # the chiral phases would fail in numpy with a message that names no flag
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"], *walker_args, "--rng-seed", "-1",
        "--out", data["out"],
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: rng_seed must be >= 0, got -1\n"
    assert not Path(data["out"]).exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("walker", WALKERS)
def test_a_subnormal_out_weight_is_exit_1_for_the_classical_walks(data, capsys, walker):
    # 1 / 1e-320 overflows, so the row of A cannot be normalized; the other
    # walkers never normalize rows and take the weight as it is
    Path(data["graph"]).write_text("A\tB\t1e-320\nB\tC\t1\nC\tD\t1\n")
    Path(data["scores"]).write_text("A\t0.001\n")
    Path(data["targets"]).write_text("D\t1e-9\n")
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"], "--walker", walker, "--out", data["out"],
    ])
    err = capsys.readouterr().err
    if walker in ("rwr", "dtrw"):
        assert code == 1
        assert err == "error: node 'A' has out-weight 1e-320, too small to invert\n"
    else:
        assert code == 0 and err == ""


@pytest.mark.parametrize("table", ["graph", "scores"])
def test_undecodable_input_is_exit_1_naming_the_file_and_line(data, capsys, table):
    path = Path(data[table])
    path.write_bytes(path.read_bytes().replace(b"b\t", b"b\xff\t", 1))
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"], "--out", data["out"],
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: line 2: not UTF-8 (invalid start byte)\n"


def test_a_leading_byte_order_mark_is_dropped(data, capsys):
    # the BOM must neither hide the seed label a nor turn a comment into a row
    Path(data["scores"]).write_text("\ufeffa\t0.001\nb\t0.5\n", encoding="utf-8")
    Path(data["graph"]).write_text("\ufeff# interactome\n" + GRAPH, encoding="utf-8")
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"], "--out", data["out"],
    ])
    assert code == 0, capsys.readouterr().err
    manifest = json.loads((Path(data["out"]) / "manifest.json").read_text())
    assert manifest["module"]["seeds_in_gc"] == 1
    assert manifest["graph"]["graph"]["edges"] == 8


def test_a_bad_byte_after_a_byte_order_mark_names_its_line(data, capsys):
    Path(data["graph"]).write_bytes(b"\xef\xbb\xbfa\tb\nb\xff\tc\n")
    assert cli.main(["graph-stats", "--graph", data["graph"]]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {data['graph']}: line 2: not UTF-8 (invalid start byte)\n"


def test_merged_weights_that_overflow_are_exit_1_naming_the_edge(data, capsys):
    Path(data["graph"]).write_text("A\tB\t1e308\nA\tB\t1e308\nB\tC\t1\n")
    Path(data["scores"]).write_text("A\t0.001\n")
    Path(data["targets"]).write_text("C\t1e-9\n")
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"], "--out", data["out"],
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: edge 'A'-'B': merged weight is not finite\n"


@pytest.mark.parametrize("command", ["prioritize", "cci"])
def test_an_out_path_that_is_a_file_fails_before_the_run(data, capsys, monkeypatch, command):
    def never(config):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(cli, "run_prioritization", never)
    monkeypatch.setattr(cli, "run_cci_analysis", never)
    Path(data["out"]).write_text("")
    inputs = {
        "prioritize": ["--graph", data["graph"], "--scores", data["scores"],
                       "--targets", data["targets"]],
        "cci": ["--nodes", data["nodes"], "--edges", data["edges"], "--targets", "C1"],
    }[command]
    assert cli.main([command, *inputs, "--out", data["out"]]) == 1
    assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{data['out']}'\n"


def test_prioritize_repeated_k_is_exit_1(data, capsys):
    # a repeated K would write its sweep.csv columns twice and one summary key
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"], "--k", "20,20", "--out", data["out"],
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: duplicate K value 20\n"
    assert not Path(data["out"]).exists()


FIXTURES = Path(__file__).resolve().parent.parent / "data"


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--walker", "rwr", "--target-thresh", "1e-10"), "p < 1e-10"),
        # p < nan is false for every gene, so a NaN threshold selects nothing
        (("--walker", "rwr", "--target-thresh", "nan"), "target_thresh"),
        (("--walker", "rwr", "--seed-thresh", "nan"), "seed_thresh"),
        (("--walker", "ctrw", "--t-max", "1e308", "--t-step", "1e-10"), "t_max / t_step"),
        (("--walker", "ctrw", "--t-step", "1e-9"), "t_max / t_step"),
        (("--walker", "dtrw", "--steps-max", "100000000"), "steps_max"),
    ],
    ids=["target-1e-10", "target-nan", "seed-nan", "t-ratio-inf", "t-step-1e-9", "steps-1e8"],
)
def test_empty_gene_sets_and_oversized_grids_are_exit_1(tmp_path, capsys, flags, named):
    # an oversized grid is refused before it is built, so each exits at once
    started = time.monotonic()
    code = cli.main([
        "prioritize",
        "--graph", str(FIXTURES / "synthetic_ppi.tsv"),
        "--scores", str(FIXTURES / "synthetic_scores.tsv"),
        "--targets", str(FIXTURES / "synthetic_targets.tsv"),
        *flags, "--out", str(tmp_path / "out"),
    ])
    assert code == 1 and time.monotonic() - started < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()  # a failed run creates no --out


def test_a_lanczos_action_that_does_not_converge_is_exit_2(tmp_path, capsys, expm_kernel,
                                                         monkeypatch):
    # a Krylov basis capped at 12 vectors fails every substep count tried
    expm_kernel("lanczos")
    monkeypatch.setattr(expm, "_MAX_KRYLOV", 12)
    code = cli.main([
        "prioritize",
        "--graph", str(FIXTURES / "synthetic_ppi.tsv"),
        "--scores", str(FIXTURES / "synthetic_scores.tsv"),
        "--targets", str(FIXTURES / "synthetic_targets.tsv"),
        "--walker", "ctqrw", "--hamiltonian", "chiral", "--t-max", "5",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: Lanczos action did not converge to 1e-10 (n=490, t=5.0)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("walker", ["ctqrw", "ctrw"])
@pytest.mark.parametrize("t_max, t_step", [("1e30", "1e29"), ("1e12", "1e11")])
def test_a_time_too_long_for_the_lanczos_substeps_is_exit_1(tmp_path, capsys, expm_kernel,
                                                           walker, t_max, t_step):
    # at 1e30 the substep indices overflowed int64; at 1e12 the action
    # planned hundreds of billions of substeps and did not end
    expm_kernel("lanczos")
    started = time.monotonic()
    code = cli.main([
        "prioritize",
        "--graph", str(FIXTURES / "synthetic_ppi.tsv"),
        "--scores", str(FIXTURES / "synthetic_scores.tsv"),
        "--targets", str(FIXTURES / "synthetic_targets.tsv"),
        "--walker", walker, "--t-max", t_max, "--t-step", t_step,
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1 and time.monotonic() - started < 10.0
    err = capsys.readouterr().err
    assert err == f"error: evolution time {float(t_max):g} needs more than 100000 Lanczos substeps\n"
    assert not (tmp_path / "out").exists()


def _child_env(**extra):
    """The environment plus ``extra``, with this checkout's ``src`` on the path."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize(
    "walker_args",
    [
        ("--walker", "ctqrw"),
        ("--walker", "ctqrw", "--hamiltonian", "chiral"),
        ("--walker", "ctrw"),
        ("--walker", "rwr"),
        ("--walker", "dtrw"),
        ("--walker", "dtqrw"),
    ],
    ids=["ctqrw", "ctqrw-chiral", "ctrw", "rwr", "dtrw", "dtqrw"],
)
def test_prioritize_sweep_is_independent_of_blas_threads(tmp_path, walker_args):
    # The continuous walkers return tied probabilities with rounding noise
    # that changes with the BLAS thread count; no walker's digest may follow it.
    sweeps = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = _child_env(OPENBLAS_NUM_THREADS=threads)
        subprocess.run(
            [
                sys.executable, "-m", "netqwalk.cli", "prioritize",
                "--graph", str(FIXTURES / "synthetic_ppi.tsv"),
                "--scores", str(FIXTURES / "synthetic_scores.tsv"),
                "--targets", str(FIXTURES / "synthetic_targets.tsv"),
                "--rng-seed", "0", *walker_args, "--out", str(out),
            ],
            env=env, check=True, capture_output=True,
        )
        sweeps.append((out / "sweep.csv").read_bytes())
    assert sweeps[0] == sweeps[1]


@pytest.mark.parametrize(
    "walker_args", [(), ("--hamiltonian", "chiral", "--collapse", "0.75,1")],
    ids=["adjacency", "chiral-collapse"],
)
def test_ctqrw_block_sweep_is_independent_of_blas_threads(tmp_path, walker_args):
    # a continuous sweep evolves a block of grid times in one matrix product,
    # which OpenBLAS splits over its threads
    calls = expm._openblas_threads()
    if calls is None:
        pytest.skip("numpy's OpenBLAS thread calls are not available")
    get, put = calls
    threads, sweeps = get(), []
    try:
        for count in (1, 2):
            put(count)
            out = tmp_path / f"threads{count}"
            assert cli.main([
                "prioritize",
                "--graph", str(FIXTURES / "synthetic_ppi.tsv"),
                "--scores", str(FIXTURES / "synthetic_scores.tsv"),
                "--targets", str(FIXTURES / "synthetic_targets.tsv"),
                "--walker", "ctqrw", *walker_args, "--out", str(out),
            ]) == 0
            sweeps.append((out / "sweep.csv").read_bytes())
    finally:
        put(threads)
    assert sweeps[0] == sweeps[1]


@pytest.mark.parametrize("command", ["prioritize", "cci", "graph-stats"])
def test_every_file_is_read_and_written_as_utf8(command, tmp_path):
    # a file opened without an encoding takes the locale's, so a non-ASCII
    # label would read differently from one table to the next
    args = {
        "prioritize": [
            "--graph", FIXTURES / "synthetic_ppi.tsv",
            "--scores", FIXTURES / "synthetic_scores.tsv",
            "--targets", FIXTURES / "synthetic_targets.tsv", "--out", tmp_path,
        ],
        "cci": [
            "--nodes", FIXTURES / "cci_nodes.tsv", "--edges", FIXTURES / "cci_edges.tsv",
            "--targets", "C1", "--out", tmp_path,
        ],
        "graph-stats": ["--graph", FIXTURES / "synthetic_ppi.tsv"],
    }[command]
    proc = subprocess.run(
        [
            sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
            "-m", "netqwalk.cli", command, *map(str, args),
        ],
        env=_child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr


LINALG = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")


def test_cli_import_leaves_scipy_spatial_and_special_unloaded():
    # only ``cci`` measures distances, so only it pays for scipy.spatial,
    # and only the commands that run a kernel load scipy's linear algebra
    probe = (
        "import sys, netqwalk.cli; "
        f"print([m for m in ('scipy.spatial', 'scipy.special', *{LINALG}) if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=_child_env(), capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "[]\n"


# One process runs every command in turn, the continuous walkers in the
# order of its last argument, and its last line of output holds, after
# each command, the modules of ``LINALG`` loaded so far.  "lanczos" is a
# ctqrw run with the Krylov kernel.
COMMAND_IMPORTS = """
import json, sys
from netqwalk import cli, expm
data, out, continuous = sys.argv[1:]
prioritize = ["prioritize", "--graph", f"{data}/synthetic_ppi.tsv",
              "--scores", f"{data}/synthetic_scores.tsv",
              "--targets", f"{data}/synthetic_targets.tsv", "--t-max", "2"]
walkers = {"lanczos": "ctqrw"}
runs = [("graph-stats", ["graph-stats", "--graph", f"{data}/synthetic_ppi.tsv"])]
for name in ("rwr", "dtrw", "dtqrw", *continuous.split(",")):
    runs.append((name, [*prioritize, "--walker", walkers.get(name, name),
                        "--out", f"{out}/{name}"]))
runs.append(("cci", ["cci", "--nodes", f"{data}/cci_nodes.tsv", "--edges",
                     f"{data}/cci_edges.tsv", "--targets", "C1", "--out", f"{out}/cci"]))
loaded, dense_limit = {}, expm.DENSE_LIMIT
for name, argv in runs:
    expm.DENSE_LIMIT = 0 if name == "lanczos" else dense_limit
    assert cli.main(argv) == 0, name
    loaded[name] = [m for m in %r if m in sys.modules]
print(json.dumps(loaded))
""" % (LINALG,)


@pytest.mark.parametrize("continuous", ["ctrw,ctqrw,lanczos", "lanczos,ctqrw,ctrw"])
def test_only_the_continuous_walkers_and_cci_load_scipy_linalg(tmp_path, continuous):
    # each continuous kernel, dense and Lanczos, runs first in one process,
    # so each imports scipy.linalg itself
    proc = subprocess.run(
        [sys.executable, "-c", COMMAND_IMPORTS, str(FIXTURES), str(tmp_path), continuous],
        env=_child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert list(loaded) == ["graph-stats", "rwr", "dtrw", "dtqrw", *continuous.split(","), "cci"]
    for name, modules in loaded.items():
        expected = [] if name in ("graph-stats", "rwr", "dtrw", "dtqrw") else ["scipy.linalg"]
        assert modules == expected, name


def test_usage_errors_are_exit_1_not_systemexit(capsys):
    # missing required flag
    assert cli.main(["prioritize"]) == 1
    assert "required" in capsys.readouterr().err
    # unknown walker choice
    code = cli.main([
        "prioritize", "--graph", "g", "--scores", "s", "--targets", "t",
        "--walker", "teleport", "--out", "o",
    ])
    assert code == 1
    assert "invalid choice" in capsys.readouterr().err
    # no subcommand at all
    assert cli.main([]) == 1


def test_unset_flags_take_the_config_defaults(data, capsys):
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"], "--out", data["out"],
    ])
    assert code == 0
    manifest = json.loads((Path(data["out"]) / "manifest.json").read_text())
    config = ExperimentConfig(data["graph"], data["scores"], data["targets"])
    assert manifest["config"] == json.loads(json.dumps(asdict(config)))

    code = cli.main([
        "cci",
        "--nodes", data["nodes"], "--edges", data["edges"],
        "--targets", "C1", "--out", data["out"],
    ])
    assert code == 0
    manifest = json.loads((Path(data["out"]) / "cci_manifest.json").read_text())
    config = CciConfig(data["nodes"], data["edges"], targets=("C1",))
    assert manifest["config"] == json.loads(json.dumps(asdict(config)))


def test_help_spells_flags_not_field_names(capsys):
    # a flag whose field name differs (--graph sets graph_path) shows the flag's name
    for command, flags in (
        ("prioritize", ("graph", "scores", "targets", "collapse", "k")),
        ("cci", ("nodes", "edges", "targets")),
    ):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        text = capsys.readouterr().out
        for flag in flags:
            assert f"--{flag} {flag.upper()}" in text
        assert not re.search(r"_PATH|K_LIST|COLLAPSE_TIMES|\[env", text)


@pytest.mark.parametrize(
    "command, config", [("prioritize", ExperimentConfig), ("cci", CciConfig)]
)
def test_flags_and_config_fields_match_one_to_one(command, config):
    # ``_config`` drops a namespace key that names no field, so a mistyped
    # dest would run with the field's default
    dests = [a.dest for a in _subparser(command)._actions if a.dest not in ("help", "out")]
    assert sorted(dests) == sorted(field.name for field in fields(config))


def test_netqwalk_environment_variables_change_nothing(data, tmp_path, capsys, monkeypatch):
    # each setting has one source, its flag: a NETQWALK_TARGETS default would
    # be a table path to prioritize but a label list to cci
    args = [
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"], "--k", "3",
    ]
    assert cli.main([*args, "--out", str(tmp_path / "plain")]) == 0
    elsewhere = tmp_path / "elsewhere"
    monkeypatch.setenv("NETQWALK_T_MAX", "1.0")
    monkeypatch.setenv("NETQWALK_OUT", str(elsewhere))
    monkeypatch.setenv("NETQWALK_TARGETS", data["targets"])
    assert cli.main([*args, "--out", str(tmp_path / "env")]) == 0
    manifest = (tmp_path / "env" / "manifest.json").read_bytes()
    assert manifest == (tmp_path / "plain" / "manifest.json").read_bytes()
    assert not elsewhere.exists()
    capsys.readouterr()
    code = cli.main(["cci", "--nodes", data["nodes"], "--edges", data["edges"],
                     "--out", str(tmp_path / "cci")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.endswith("the following arguments are required: --targets\n")
    assert not (tmp_path / "cci").exists()


@pytest.mark.parametrize(
    "flag, value, name",
    [("--k", "1e3", "comma-separated integers"),
     ("--collapse", "0.5,soon", "comma-separated numbers")],
)
def test_a_bad_comma_list_names_the_expected_input(data, capsys, flag, value, name):
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"], flag, value, "--out", data["out"],
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"netqwalk prioritize: argument {flag}: invalid {name} value: '{value}'\n"
    assert "_comma" not in err


# ---------------------------------------------------------------------------
# cci
# ---------------------------------------------------------------------------


def test_cci_writes_reports(data, capsys):
    code = cli.main([
        "cci",
        "--nodes", data["nodes"], "--edges", data["edges"],
        "--steps", "5", "--targets", "C1", "--epsilon", "0.2",
        "--out", data["out"],
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "dtqrw: support subgraph has 3 edges" in out
    assert "dtrw: support subgraph has 3 edges" in out
    support = (Path(data["out"]) / "cci_dtqrw_support.tsv").read_text().splitlines()
    assert support[1:] == ["S1\tL1", "L1\tR1", "R1\tC1"]
    manifest = json.loads((Path(data["out"]) / "cci_manifest.json").read_text())
    assert manifest["config"]["targets"] == ["C1"]


def test_cci_unknown_target_is_exit_1(data, capsys):
    code = cli.main([
        "cci",
        "--nodes", data["nodes"], "--edges", data["edges"],
        "--targets", "C9", "--out", data["out"],
    ])
    assert code == 1
    assert "C9" in capsys.readouterr().err


def test_cci_malformed_layer_file_is_exit_1(data, tmp_path, capsys):
    bad = tmp_path / "bad_nodes.tsv"
    bad.write_text("S1\tsender\nL1\tligand\nR1\tmystery\n")
    code = cli.main([
        "cci",
        "--nodes", str(bad), "--edges", data["edges"],
        "--targets", "C1", "--out", data["out"],
    ])
    assert code == 1
    assert "layer" in capsys.readouterr().err


def test_cci_targets_flag_splits_on_commas(data):
    code = cli.main([
        "cci",
        "--nodes", data["nodes"], "--edges", data["edges"],
        "--targets", "C1,R1", "--epsilon", "0.2", "--out", data["out"],
    ])
    assert code == 0


def test_cci_repeated_target_is_exit_1(data, capsys):
    code = cli.main([
        "cci",
        "--nodes", data["nodes"], "--edges", data["edges"],
        "--targets", "C1,R1,C1", "--out", data["out"],
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: duplicate target 'C1'\n"
    assert not Path(data["out"]).exists()


# ---------------------------------------------------------------------------
# numerical failures map to exit 2
# ---------------------------------------------------------------------------


def test_numerical_failure_is_exit_2(data, capsys, monkeypatch):
    from netqwalk.expm import ConvergenceError

    def explode(config):
        raise ConvergenceError("synthetic blow-up")

    monkeypatch.setattr(cli, "run_prioritization", explode)
    code = cli.main([
        "prioritize",
        "--graph", data["graph"], "--scores", data["scores"],
        "--targets", data["targets"], "--out", data["out"],
    ])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err
