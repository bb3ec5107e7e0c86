"""Metamorphic relations of the prioritization pipeline on the fixture.

Each relation changes the input graph in a way whose effect on the
output is known without an oracle, and holds through the whole
pipeline: ingest and greatest-component extraction included.

- A detached fragment, two edges that the greatest component does not
  reach, leaves every walker's ``sweep.csv`` and ``summary.json``
  byte-identical.
- Tripling the weight of every edge of the greatest component leaves the
  rwr, dtrw and dtqrw distributions bit-identical (their transition
  rules normalize the weights away), and turns the continuous walks at
  time t into the unscaled walks at time 3t.
"""

from pathlib import Path

import numpy as np
import pytest

from netqwalk import cli
from netqwalk.graphs import greatest_component, read_edge_list
from netqwalk.pipeline import SWEEPS, ExperimentConfig, build_seed_target_sets, read_score_table

DATA = Path(__file__).resolve().parent.parent / "data"
FIXTURE = {"graph": DATA / "synthetic_ppi.tsv", "scores": DATA / "synthetic_scores.tsv",
           "targets": DATA / "synthetic_targets.tsv"}


def _prioritize(graph, walker, out) -> dict:
    argv = ["prioritize", "--graph", str(graph), "--scores", str(FIXTURE["scores"]),
            "--targets", str(FIXTURE["targets"]), "--walker", walker, "--out", str(out)]
    assert cli.main(argv) == 0
    return {name: (out / name).read_bytes() for name in ("sweep.csv", "summary.json")}


@pytest.mark.parametrize("walker", list(SWEEPS))
def test_a_detached_fragment_moves_no_report_byte(walker, tmp_path):
    fragment = "ZZ1\tZZ2\nZZ2\tZZ3\n"
    graph = tmp_path / "fragment.tsv"
    graph.write_text(fragment + FIXTURE["graph"].read_text())
    want = _prioritize(FIXTURE["graph"], walker, tmp_path / "fixture")
    assert _prioritize(graph, walker, tmp_path / "fragment") == want
    assert read_edge_list(graph).n == read_edge_list(FIXTURE["graph"]).n + 3


def _sweep(graph, walker, grid, **settings):
    """The distributions of ``walker``'s sweep over ``grid`` on ``graph``'s greatest
    component, from the fixture's seeds, as ``run_prioritization`` starts it."""
    config = ExperimentConfig(str(graph), str(FIXTURE["scores"]), str(FIXTURE["targets"]),
                              walker=walker, **settings)
    gc = greatest_component(read_edge_list(graph))
    seeds = build_seed_target_sets(
        read_score_table(config.scores_path), config.seed_thresh,
        read_score_table(config.targets_path), config.target_thresh,
    ).seeds
    p0 = np.zeros(gc.n)
    p0[[gc.index(s) for s in seeds if s in gc]] = 1.0
    p0 /= p0.sum()
    return np.array(list(SWEEPS[walker][1](gc, p0, np.asarray(grid), config)))


@pytest.fixture(scope="module")
def tripled(tmp_path_factory):
    """The fixture with weight 3 on every edge of its greatest component."""
    fixture = read_edge_list(FIXTURE["graph"])
    gc = greatest_component(fixture)
    lines = []
    for line in FIXTURE["graph"].read_text().splitlines():
        if not line.startswith("#"):
            u, v = line.split("\t")
            line += "\t3" if u in gc else ""
        lines.append(line + "\n")
    graph = tmp_path_factory.mktemp("tripled") / "tripled.tsv"
    graph.write_text("".join(lines))
    assert greatest_component(read_edge_list(graph)).edge_count == gc.edge_count
    return graph


@pytest.mark.parametrize("walker", ["rwr", "dtrw", "dtqrw"])
def test_tripled_weights_leave_the_discrete_walks_bit_identical(walker, tripled):
    grid = [0] if walker == "rwr" else range(1, 21)
    want = _sweep(FIXTURE["graph"], walker, grid)
    assert np.array_equal(_sweep(tripled, walker, grid), want)


@pytest.mark.parametrize("walker", ["ctrw", "ctqrw"])
def test_tripled_weights_run_a_continuous_walk_three_times_as_fast(walker, tripled):
    grid = np.arange(17) * 0.1
    got = _sweep(tripled, walker, grid, t_max=1.6)
    want = _sweep(FIXTURE["graph"], walker, 3 * grid, t_max=4.8)
    assert got.shape == (17, 490)
    assert np.max(np.abs(got - want)) < 3e-15
