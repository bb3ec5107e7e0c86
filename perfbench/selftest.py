"""Self-tests of the benchmark's generators, output checks and tracer.

Run from the root of a source checkout, with either of::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), "src"]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_same_seed_gives_identical_files():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, seed in (("a", 7), ("b", 7), ("c", 8)):
            gen.write_interactome(tmp / name, 1500, seed)
            gen.write_cci(tmp / name, 40, seed)
        a, b, c = (_files(tmp / name) for name in "abc")
    assert a == b, "the same seed wrote different files"
    for name in ("graph.tsv", "scores.tsv", "targets.tsv", "cci_edges.tsv"):
        assert a[name] != c[name], f"another seed wrote the same {name}"


def test_interactome_mirrors_the_fixture_design():
    with tempfile.TemporaryDirectory() as tmp:
        files = gen.write_interactome(Path(tmp), 1500, 3)
        stats = check.edge_list_stats(files.graph)
        graph = files.graph.read_text()
        scores = dict(check._read_pairs(files.scores))
        targets = dict(check._read_pairs(files.targets))
    assert stats["nodes"] == 1500 and stats["fragments"] >= 4
    assert stats["gc_nodes"] == 1500 - gen.N_FRAGMENT_NODES
    assert gen.ABSENT_SEED in scores and gen.ABSENT_SEED not in graph
    shared = gen._label(gen.SHARED_GENE)
    assert float(scores[shared]) < 0.01 and float(targets[shared]) < 5e-8
    community = {gen._label(i) for i in range(gen.BLOCK)}
    assert {g for g, p in targets.items() if float(p) < 5e-8} <= community


def _write_sweep(out: Path, rows, truth) -> None:
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(["walker", "grid_kind", "grid_value", *check.SWEEP_COLUMNS])]
    lines += [",".join(["ctqrw", "time", *(f"{v:.17g}" for v in row)]) for row in rows]
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    (out / "summary.json").write_text("{}")
    (out / "manifest.json").write_text(json.dumps({"graph": {"graph": truth}}))


def test_perturbed_sweep_fails_the_check():
    reference = run.load_reference("continuous-dense", 0)["ctqrw"]
    truth = {"nodes": 1500, "edges": 1, "fragments": 4, "gc_nodes": 1490, "gc_edges": 1}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        _write_sweep(out, reference, truth)
        assert check.check_sweep(out, reference, truth) == []
        perturbed = [row[:] for row in reference]
        perturbed[40][2] += 1e-7
        _write_sweep(out, perturbed, truth)
        assert check.check_sweep(out, reference, truth)
        _write_sweep(out, reference[:-1], truth)
        assert check.check_sweep(out, reference, truth)
        _write_sweep(out, reference, dict(truth, gc_nodes=1489))
        assert check.check_sweep(out, reference, truth)


def test_cci_oracle_agrees_with_the_program_and_catches_a_perturbation():
    from netqwalk import cli

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = gen.write_cci(tmp, 30, 5)
        out = tmp / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "cci", "--nodes", str(files.nodes_path), "--edges", str(files.edges_path),
                "--steps", "5", "--targets", ",".join(files.targets),
                "--epsilon", "0.02", "--out", str(out),
            ])
        assert code == 0
        expected = check.cci_oracle(files.nodes_path, files.edges_path, 5, files.targets, 0.02)
        assert expected.zero_rows["dtqrw"], "no isolated node, so no zero row"
        assert all(expected.support.values()), "empty support subgraph"
        assert check.check_cci(out, expected) == []
        path = out / "cci_dtqrw_profiles.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[4] = repr(float(cells[4]) + 1e-7)
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert check.check_cci(out, expected)


def test_graph_stats_check():
    truth = {"nodes": 3, "edges": 2}
    assert check.check_graph_stats('{"nodes": 3, "edges": 2, "gc_nodes": 3}', truth) == []
    assert check.check_graph_stats('{"nodes": 3, "edges": 1}', truth)
    assert check.check_graph_stats("not json", truth)


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.10), "inner", None)

    def outer(steps):
        time.sleep(0.05)
        inner()

    tracer.wrap(outer, "outer", "steps")(steps=4)
    agg = tracer.aggregate()
    assert agg["outer"]["calls"] == 1 and agg["outer"]["steps"] == 4
    assert 0.04 < agg["outer"]["self_s"] < 0.09
    assert 0.09 < agg["inner"]["self_s"] < 0.14


def test_patching_follows_a_function_to_its_callers():
    home, caller = types.ModuleType("home"), types.ModuleType("caller")

    def rank(x):
        return x

    home.rank = caller.rank = rank
    found = spans._resolve([home, caller], "rank", "netqwalk.moved_away")
    tracer = spans.Tracer()
    spans._replace([home, caller], found, tracer.wrap(found, "metrics.rank", None))
    assert caller.rank(3) == 3 and home.rank is caller.rank
    assert tracer.aggregate()["metrics.rank"]["calls"] == 1
    try:
        spans._resolve([home, caller], "absent", "netqwalk.moved_away")
    except LookupError:
        pass
    else:
        raise AssertionError("a missing function must not be skipped")


def test_a_span_without_calls_is_reported_missing():
    run_file = {"spans": {"cli.import": {"calls": 1, "self_s": 0.5, "steps": 0, "rss_mb": 70.0}},
                "counters": {"expm.krylov_iters": 0}, "report_bytes": 10}
    figures, hit = run.layer_metrics([run_file])
    assert hit == {"cli.import"}
    assert figures["cli.import_s"] == 0.5 and figures["expm.krylov_iters"] == 0


def main() -> int:
    failed = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except Exception as exc:  # report every failing test, then exit 1
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
