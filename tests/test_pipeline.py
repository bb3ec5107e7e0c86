"""Tests for the experiment drivers (prioritization sweep, CCI analysis).

The pipeline must be a thin orchestration of the library walkers: for a
grid point picked at random the sweep's AP values are re-derived here by
calling the walker, ranking and metric functions directly, and the two
routes must agree exactly.
"""

import csv
import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from netqwalk import classical, ctqrw, dtqrw
from netqwalk.graphs import (
    build_cci_graph,
    greatest_component,
    parse_label_pairs,
    parse_node_layers,
    read_edge_list,
    symmetrized_view,
)
from netqwalk.metrics import average_precision_at_k, rank_by_probability, walk_support_subgraph
from netqwalk.pipeline import (
    CciConfig,
    ExperimentConfig,
    SweepResult,
    _sweep_distributions,
    build_seed_target_sets,
    emit_cci_reports,
    emit_reports,
    parse_score_table,
    read_score_table,
    run_cci_analysis,
    run_prioritization,
)

GRAPH = """\
# two components: a 6-node core and a detached pair
a\tb
b\tc
c\td
d\ta
a\tc
d\te
e\tf
x\ty
"""

SCORES = """\
# label p-value
a\t0.001
b\t0.002
x\t0.0005
q\t0.003
c\t0.9
"""

TARGETS = """\
c\t1e-9
d\t2e-9
e\t0.5
a\t1e-10
z\t1e-9
"""


@pytest.fixture
def fixture_paths(tmp_path):
    gp = tmp_path / "graph.tsv"
    sp = tmp_path / "scores.tsv"
    tp = tmp_path / "targets.tsv"
    gp.write_text(GRAPH)
    sp.write_text(SCORES)
    tp.write_text(TARGETS)
    return str(gp), str(sp), str(tp)


# ---------------------------------------------------------------------------
# score tables and seed/target selection
# ---------------------------------------------------------------------------


def test_parse_score_table_basic():
    table = parse_score_table("# c\n\ng1\t0.5\ng2 1e-3\n")
    assert table == {"g1": 0.5, "g2": 1e-3}


def test_parse_score_table_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2.*fields"):
        parse_score_table("g1\t0.5\ng2\t0.1\textra")
    with pytest.raises(ValueError, match="line 3.*duplicate"):
        parse_score_table("g1\t0.5\ng2\t0.1\ng1\t0.2")
    with pytest.raises(ValueError, match="line 1.*parse"):
        parse_score_table("g1\tlow")
    with pytest.raises(ValueError, match="line 1.*>= 0"):
        parse_score_table("g1\t-0.5")
    with pytest.raises(ValueError, match="line 2.*>= 0"):
        parse_score_table("g1\t0.5\ng2\t1.5")
    with pytest.raises(ValueError, match="empty"):
        parse_score_table("# only comments\n")


def test_seed_target_selection_strict_thresholds_and_overlap():
    scores = {"a": 0.001, "b": 0.01, "c": 0.5}
    targets = {"a": 1e-9, "d": 1e-9, "e": 5e-8}
    st = build_seed_target_sets(scores, 0.01, targets, 5e-8)
    # threshold is strict: b (p == 0.01) and e (p == 5e-8) are excluded
    assert st.seeds == ("a",)
    assert st.targets == ("d",)
    assert st.intersection_removed == 1  # "a" passed both and stays a seed


def test_seed_target_selection_errors():
    with pytest.raises(ValueError, match="nonempty"):
        build_seed_target_sets({}, 0.1, {"a": 0.5}, 0.1)
    with pytest.raises(ValueError, match="positive"):
        build_seed_target_sets({"a": 0.5}, 0.0, {"a": 0.5}, 0.1)
    with pytest.raises(ValueError, match="no seeds"):
        build_seed_target_sets({"a": 0.5}, 0.01, {"a": 1e-9}, 0.1)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_validation():
    base = dict(graph_path="g", scores_path="s", targets_path="t")
    with pytest.raises(ValueError, match="walker"):
        ExperimentConfig(**base, walker="levy")
    with pytest.raises(ValueError, match="hamiltonian"):
        ExperimentConfig(**base, hamiltonian="magnetic")
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig(**base, alpha=1.0)
    with pytest.raises(ValueError, match="t_step"):
        ExperimentConfig(**base, t_step=0.0)
    with pytest.raises(ValueError, match="steps_max"):
        ExperimentConfig(**base, steps_max=0)
    with pytest.raises(ValueError, match="k_list"):
        ExperimentConfig(**base, k_list=())
    with pytest.raises(ValueError, match="rwr_mode"):
        ExperimentConfig(**base, rwr_mode="both")
    with pytest.raises(ValueError, match="collapse"):
        ExperimentConfig(**base, walker="rwr", collapse_times=(1.0,))
    with pytest.raises(ValueError, match="increasing"):
        ExperimentConfig(**base, collapse_times=(2.0, 1.0))
    # collapses must fall before the last grid time, where they can act
    with pytest.raises(ValueError, match="not inside"):
        ExperimentConfig(**base, t_max=2.0, collapse_times=(1.0, 2.0))
    ExperimentConfig(**base, t_max=2.0, collapse_times=(1.0, 1.95))


def test_grid_points_per_walker():
    base = dict(graph_path="g", scores_path="s", targets_path="t")
    kind, grid = ExperimentConfig(**base, walker="ctrw", t_max=1.0, t_step=0.1).grid_points()
    assert kind == "time"
    assert len(grid) == 11
    assert grid[0] == 0.0 and grid[-1] == 1.0
    kind, grid = ExperimentConfig(**base, walker="dtrw", steps_max=7).grid_points()
    assert kind == "steps" and grid == tuple(range(1, 8))
    kind, grid = ExperimentConfig(**base, walker="rwr").grid_points()
    assert kind == "steady" and grid == (0.0,)
    kind, grid = ExperimentConfig(
        **base, walker="rwr", rwr_mode="iterations", steps_max=4
    ).grid_points()
    assert kind == "iterations" and grid == (1, 2, 3, 4)


def test_time_grid_is_robust_to_float_step_accumulation():
    base = dict(graph_path="g", scores_path="s", targets_path="t")
    _, grid = ExperimentConfig(**base, walker="ctqrw", t_max=10.0, t_step=0.1).grid_points()
    assert len(grid) == 101
    assert grid[-1] == 10.0


# ---------------------------------------------------------------------------
# prioritization runs
# ---------------------------------------------------------------------------


def test_run_drops_seeds_outside_component_and_excludes_them(fixture_paths, caplog):
    gp, sp, tp = fixture_paths
    config = ExperimentConfig(
        graph_path=gp, scores_path=sp, targets_path=tp,
        walker="rwr", k_list=(3,),
    )
    with caplog.at_level("WARNING", logger="netqwalk.pipeline"):
        result = run_prioritization(config)
    # seeds a, b, x, q pass p < 0.01; x is in the detached pair, q absent
    assert any("outside the greatest component" in r.message for r in caplog.records)
    assert result.module_summary["seeds_total"] == 4
    assert result.module_summary["seeds_in_gc"] == 2
    assert result.module_summary["seeds_in_graph"] == 3
    # targets c, d, z pass p < 5e-8 minus overlap a -> {c, d, z}; z absent
    assert result.module_summary["targets_total"] == 3
    assert result.module_summary["targets_in_gc"] == 2
    assert result.module_summary["intersection_removed"] == 1
    # the ranking lives on the GC minus the seeds
    rec = result.records[0]
    assert set(rec.top_labels) <= {"c", "d", "e", "f"}
    assert result.graph_summary["gc"]["nodes"] == 6


def test_pipeline_matches_direct_library_calls_exactly(fixture_paths):
    gp, sp, tp = fixture_paths
    config = ExperimentConfig(
        graph_path=gp, scores_path=sp, targets_path=tp,
        walker="ctqrw", hamiltonian="adjacency",
        t_max=2.0, t_step=0.5, k_list=(2, 4),
    )
    result = run_prioritization(config)
    assert result.grid_kind == "time"
    assert len(result.records) == 5

    # re-derive one grid point through direct library calls
    gc = greatest_component(read_edge_list(gp))
    seeds = ["a", "b"]
    p0 = np.zeros(gc.n)
    for s in seeds:
        p0[gc.index(s)] = 0.5
    h = ctqrw.build_hamiltonian(gc, "adjacency")
    psi0 = ctqrw.initial_state_from_scores(p0)
    t = result.records[3].grid_value
    assert t == 1.5
    p = ctqrw.measure(ctqrw.evolve_with_collapses(h, psi0, t, ()))
    ranking = rank_by_probability(p, labels=gc.labels, exclude=seeds)
    for i, k in enumerate((2, 4)):
        assert result.records[3].ap[i] == average_precision_at_k(ranking, {"c", "d"}, k)


def _fixture_start(gp):
    """Greatest component of the fixture and the uniform seed distribution."""
    gc = greatest_component(read_edge_list(gp))
    p0 = np.zeros(gc.n)
    for s in ("a", "b"):
        p0[gc.index(s)] = 0.5
    return gc, p0


def _ranking(p, gc):
    return rank_by_probability(p, labels=gc.labels, exclude=["a", "b"])


def _digest(ranking):
    return hashlib.sha256("\n".join(ranking.items).encode()).hexdigest()


def test_dtrw_and_dtqrw_sweeps_match_library(fixture_paths):
    # each grid point continues from the previous one; every point must
    # still equal a walk run from the start for that many steps
    gp, sp, tp = fixture_paths
    gc, p0 = _fixture_start(gp)
    arcs = dtqrw.arc_basis(gc)
    for walker in ("dtrw", "dtqrw"):
        config = ExperimentConfig(
            graph_path=gp, scores_path=sp, targets_path=tp,
            walker=walker, steps_max=4, k_list=(3,),
        )
        result = run_prioritization(config)
        _, grid = config.grid_points()
        swept = list(_sweep_distributions(config, gc, p0, grid))
        assert [r.grid_value for r in result.records] == [1.0, 2.0, 3.0, 4.0]
        for steps, swept_p, record in zip(grid, swept, result.records):
            if walker == "dtrw":
                p = classical.dtrw_evolve(gc, p0, steps)
            else:
                psi = dtqrw.evolve(arcs, dtqrw.arc_state_from_scores(arcs, p0), steps)
                p = dtqrw.node_probabilities(arcs, psi)
            assert np.array_equal(swept_p, p)
            ranking = _ranking(p, gc)
            assert record.ranking_sha256 == _digest(ranking)
            assert record.ap[0] == average_precision_at_k(ranking, {"c", "d"}, 3)


def test_collapse_sweep_matches_definition_at_every_point(fixture_paths):
    # one collapse falls between grid points and one exactly on a grid
    # point, where it must not act yet (collapse times strictly below t)
    gp, sp, tp = fixture_paths
    config = ExperimentConfig(
        graph_path=gp, scores_path=sp, targets_path=tp,
        walker="ctqrw", t_max=2.0, t_step=0.5, collapse_times=(0.75, 1.0), k_list=(3,),
    )
    result = run_prioritization(config)
    gc, p0 = _fixture_start(gp)
    h = ctqrw.build_hamiltonian(gc, "adjacency")
    psi0 = ctqrw.initial_state_from_scores(p0)
    _, grid = config.grid_points()
    swept = list(_sweep_distributions(config, gc, p0, grid))
    assert [r.grid_value for r in result.records] == [0.0, 0.5, 1.0, 1.5, 2.0]
    for t, p, record in zip(grid, swept, result.records):
        times = [tc for tc in config.collapse_times if tc < t]
        ref = ctqrw.measure(ctqrw.evolve_with_collapses(h, psi0, t, times))
        assert np.array_equal(p, ref)
        assert record.ranking_sha256 == _digest(_ranking(ref, gc))


REPO = Path(__file__).resolve().parent.parent


def test_golden_digests_rank_structurally_equivalent_genes_by_index():
    # Non-seed genes with the same neighbours are swapped by a graph
    # automorphism that fixes the seeds, so their ctqrw probabilities are
    # equal.  At every grid point each such class must be contiguous and in
    # ascending index order, and the golden digests must be of these rankings.
    data = REPO / "data"
    config = ExperimentConfig(
        graph_path=data / "synthetic_ppi.tsv",
        scores_path=data / "synthetic_scores.tsv",
        targets_path=data / "synthetic_targets.tsv",
        walker="ctqrw", rng_seed=0,
    )
    gc = greatest_component(read_edge_list(config.graph_path))
    st = build_seed_target_sets(
        read_score_table(config.scores_path), config.seed_thresh,
        read_score_table(config.targets_path), config.target_thresh,
    )
    seeds = [s for s in st.seeds if s in set(gc.labels)]
    neighbours = [set() for _ in range(gc.n)]
    for u, v in gc.edges.tolist():
        neighbours[u].add(v)
        neighbours[v].add(u)
    classes = {}
    for i in set(range(gc.n)) - {gc.index(s) for s in seeds}:
        classes.setdefault(frozenset(neighbours[i]), []).append(i)
    twins = [sorted(c) for c in classes.values() if len(c) > 1]
    assert twins

    with open(REPO / "tests" / "golden" / "sweep.csv", newline="") as fh:
        golden = [row["ranking_sha256"] for row in csv.DictReader(fh)]
    _, grid = config.grid_points()
    assert len(golden) == len(grid)
    p0 = np.zeros(gc.n)
    p0[[gc.index(s) for s in seeds]] = 1.0 / len(seeds)
    h = ctqrw.build_hamiltonian(gc, "adjacency")
    psi0 = ctqrw.initial_state_from_scores(p0)
    for t, digest in zip(grid, golden):
        p = ctqrw.measure(ctqrw.evolve_with_collapses(h, psi0, t, ()))
        ranking = rank_by_probability(p, labels=gc.labels, exclude=seeds)
        position = {label: k for k, label in enumerate(ranking.items)}
        for twin in twins:
            at = [position[gc.labels[i]] for i in twin]
            assert at == list(range(at[0], at[0] + len(twin))), (t, twin)
        assert hashlib.sha256("\n".join(ranking.items).encode()).hexdigest() == digest


def test_rwr_steady_single_record_and_iteration_convergence(fixture_paths):
    gp, sp, tp = fixture_paths
    steady = run_prioritization(
        ExperimentConfig(
            graph_path=gp, scores_path=sp, targets_path=tp, walker="rwr", k_list=(3,)
        )
    )
    assert len(steady.records) == 1
    iterated = run_prioritization(
        ExperimentConfig(
            graph_path=gp, scores_path=sp, targets_path=tp,
            walker="rwr", rwr_mode="iterations", steps_max=60, k_list=(3,),
        )
    )
    assert len(iterated.records) == 60
    # the truncated iteration converges to the steady-state ranking
    assert iterated.records[-1].ranking_sha256 == steady.records[0].ranking_sha256
    assert iterated.records[-1].ap == steady.records[0].ap


def test_no_usable_seeds_or_targets_raises(tmp_path, fixture_paths):
    gp, sp, tp = fixture_paths
    # all seeds land outside the greatest component
    only_x = tmp_path / "only_x.tsv"
    only_x.write_text("x\t0.001\n")
    with pytest.raises(ValueError, match="no seed genes"):
        run_prioritization(
            ExperimentConfig(graph_path=gp, scores_path=str(only_x), targets_path=tp)
        )
    # all targets miss the greatest component
    only_z = tmp_path / "only_z.tsv"
    only_z.write_text("z\t1e-9\n")
    with pytest.raises(ValueError, match="no target genes"):
        run_prioritization(
            ExperimentConfig(graph_path=gp, scores_path=sp, targets_path=str(only_z))
        )


def test_collapse_times_change_the_sweep(fixture_paths):
    gp, sp, tp = fixture_paths
    base = dict(
        graph_path=gp, scores_path=sp, targets_path=tp,
        walker="ctqrw", t_max=3.0, t_step=0.5, k_list=(3,),
    )
    plain = run_prioritization(ExperimentConfig(**base))
    collapsed = run_prioritization(ExperimentConfig(**base, collapse_times=(0.75,)))
    # grid points before the first collapse are untouched
    assert plain.records[1].ranking_sha256 == collapsed.records[1].ranking_sha256
    # at least one later distribution must differ
    assert any(
        p.ranking_sha256 != c.ranking_sha256
        for p, c in zip(plain.records[2:], collapsed.records[2:])
    )


def test_chiral_sweep_is_seeded(fixture_paths):
    gp, sp, tp = fixture_paths
    base = dict(
        graph_path=gp, scores_path=sp, targets_path=tp,
        walker="ctqrw", hamiltonian="chiral", t_max=1.0, t_step=0.5, k_list=(3,),
    )
    a = run_prioritization(ExperimentConfig(**base, rng_seed=5))
    b = run_prioritization(ExperimentConfig(**base, rng_seed=5))
    c = run_prioritization(ExperimentConfig(**base, rng_seed=6))
    assert [r.ap for r in a.records] == [r.ap for r in b.records]
    # a different seed draws different phases, hence (generically) a
    # different sweep; compare the digests to avoid float coincidences
    assert any(
        x.ranking_sha256 != y.ranking_sha256 for x, y in zip(a.records, c.records)
    )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def test_emit_reports_deterministic_and_complete(fixture_paths, tmp_path):
    gp, sp, tp = fixture_paths
    config = ExperimentConfig(
        graph_path=gp, scores_path=sp, targets_path=tp,
        walker="ctrw", t_max=1.0, t_step=0.25, k_list=(3,),
    )
    result = run_prioritization(config)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    paths1 = emit_reports(result, d1)
    paths2 = emit_reports(result, d2)
    assert [p.name for p in paths1] == ["sweep.csv", "summary.json", "manifest.json"]
    for p1, p2 in zip(paths1, paths2):
        assert p1.read_bytes() == p2.read_bytes()
    header = (d1 / "sweep.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["walker", "grid_kind", "grid_value"]
    assert "ap_at_3" in header and "p_at_3" in header


def test_emit_reports_rejects_empty_grid(fixture_paths, tmp_path):
    gp, sp, tp = fixture_paths
    config = ExperimentConfig(graph_path=gp, scores_path=sp, targets_path=tp)
    result = run_prioritization(
        ExperimentConfig(
            graph_path=gp, scores_path=sp, targets_path=tp,
            walker="rwr", k_list=(3,),
        )
    )
    empty = SweepResult(
        config=config,
        grid_kind="time",
        records=(),
        graph_summary=result.graph_summary,
        module_summary=result.module_summary,
    )
    with pytest.raises(ValueError, match="empty grid"):
        emit_reports(empty, tmp_path / "nope")


# ---------------------------------------------------------------------------
# CCI analysis
# ---------------------------------------------------------------------------

CCI_NODES = """\
S1\tsender
S2\tsender
L1\tligand
L2\tligand
R1\treceptor
C1\treceiver
"""

# planted chain S1 > L1 > R1 > C1 plus a dead-end decoy lane S2 > L2
CCI_EDGES = "S1\tL1\nS2\tL2\nL1\tR1\nR1\tC1\n"


@pytest.fixture
def cci_paths(tmp_path):
    np_, ep = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    np_.write_text(CCI_NODES)
    ep.write_text(CCI_EDGES)
    return str(np_), str(ep)


def test_cci_config_validation(cci_paths):
    nodes, edges = cci_paths
    with pytest.raises(ValueError, match="steps"):
        CciConfig(nodes, edges, steps=0, targets=("C1",))
    with pytest.raises(ValueError, match="target"):
        CciConfig(nodes, edges, targets=())
    with pytest.raises(ValueError, match="epsilon"):
        CciConfig(nodes, edges, targets=("C1",), epsilon=1.0)


def test_cci_unknown_target_label_raises(cci_paths):
    nodes, edges = cci_paths
    with pytest.raises(KeyError, match="C9"):
        run_cci_analysis(CciConfig(nodes, edges, targets=("C9",)))


def test_cci_both_walkers_recover_planted_chain(cci_paths):
    nodes, edges = cci_paths
    result = run_cci_analysis(
        CciConfig(nodes, edges, steps=5, targets=("C1",), epsilon=0.2)
    )
    labels = result.cci.graph.labels
    planted = {("S1", "L1"), ("L1", "R1"), ("R1", "C1")}
    for walker in ("dtrw", "dtqrw"):
        out = result.walkers[walker]
        kept = {(labels[j], labels[k]) for j, k in out.support.edges}
        assert kept == planted
        # decoy hop S2 -> L2 has full probability yet lies on no complete
        # path, so path-completeness (not the threshold) excluded it
        s2, l2 = result.cci.graph.index("S2"), result.cci.graph.index("L2")
        assert out.profiles[s2, l2] > 0.2
        assert out.zero_rows == ()
        # profiles are genuine distributions and distances symmetric
        assert np.max(np.abs(out.profiles.sum(axis=1) - 1.0)) < 1e-10
        assert np.array_equal(out.distances, out.distances.T)


def test_cci_even_step_counts_see_bipartite_blackout(cci_paths):
    # layered graphs are bipartite, so after an even number of steps no
    # walker mass sits one layer away and every hop probability is zero
    nodes, edges = cci_paths
    result = run_cci_analysis(
        CciConfig(nodes, edges, steps=4, targets=("C1",), epsilon=0.05)
    )
    g = result.cci.graph
    for walker in ("dtqrw",):
        prof = result.walkers[walker].profiles
        for j, k in g.edges:
            assert prof[j, k] == 0.0
        assert result.walkers[walker].support.edge_count == 0


def test_cci_support_is_walker_dependent(tmp_path):
    # with a shared receptor the classical walker dilutes across the two
    # lanes while the coined walker keeps the planted chain above 0.2
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text(CCI_NODES)
    edges.write_text("S1\tL1\nS2\tL1\nS2\tL2\nL1\tR1\nL2\tR1\nR1\tC1\n")
    result = run_cci_analysis(
        CciConfig(str(nodes), str(edges), steps=5, targets=("C1",), epsilon=0.2)
    )
    labels = result.cci.graph.labels
    dt = {(labels[j], labels[k]) for j, k in result.walkers["dtrw"].support.edges}
    dq = {(labels[j], labels[k]) for j, k in result.walkers["dtqrw"].support.edges}
    assert dt == set()
    assert dq == {("S1", "L1"), ("L1", "R1"), ("R1", "C1")}


def test_cci_isolated_node_gets_flagged_zero_row(tmp_path):
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text(CCI_NODES + "L9\tligand\n")
    edges.write_text(CCI_EDGES)
    result = run_cci_analysis(
        CciConfig(str(nodes), str(edges), steps=3, targets=("C1",), epsilon=0.2)
    )
    g = result.cci.graph
    j = g.index("L9")
    # the coined walker cannot start on an isolated node: zero row, flagged
    dq = result.walkers["dtqrw"]
    assert dq.zero_rows == ("L9",)
    assert np.array_equal(dq.profiles[j], np.zeros(g.n))
    # the classical walker holds its mass there instead
    dt = result.walkers["dtrw"]
    assert dt.zero_rows == ()
    assert dt.profiles[j, j] == 1.0


def test_cci_coined_walker_error_on_connected_node_propagates(cci_paths, monkeypatch):
    # only degree-0 nodes get zero rows; any other failure is a real error
    nodes, edges = cci_paths
    l1 = build_cci_graph(
        parse_node_layers(Path(nodes).read_text()),
        parse_label_pairs(Path(edges).read_text()),
    ).graph.index("L1")
    original = dtqrw.initial_arc_block

    def fail_on_l1(arcs, nodes):
        if l1 in nodes:
            raise ValueError("synthetic walker failure")
        return original(arcs, nodes)

    monkeypatch.setattr(dtqrw, "initial_arc_block", fail_on_l1)
    with pytest.raises(ValueError, match="synthetic walker failure"):
        run_cci_analysis(CciConfig(nodes, edges, steps=3, targets=("C1",)))


def test_cci_analysis_matches_direct_library_calls(cci_paths, four_layer_cci):
    # the block walks must give every row exactly as a walk from that node
    # alone; the generated graph spans several chunks and has an isolated
    # node in each layer
    planted = build_cci_graph(
        [("S1", "sender"), ("S2", "sender"), ("L1", "ligand"),
         ("L2", "ligand"), ("R1", "receptor"), ("C1", "receiver")],
        [("S1", "L1"), ("S2", "L2"), ("L1", "R1"), ("R1", "C1")],
    )
    *layered_paths, target = four_layer_cci
    layered = build_cci_graph(
        parse_node_layers(Path(layered_paths[0]).read_text()),
        parse_label_pairs(Path(layered_paths[1]).read_text()),
    )
    for (nodes, edges), cci, targets, epsilon in (
        (cci_paths, planted, ("C1",), 0.2),
        (layered_paths, layered, (target,), 0.01),
    ):
        result = run_cci_analysis(
            CciConfig(nodes, edges, steps=5, targets=targets, epsilon=epsilon)
        )
        sym = symmetrized_view(cci)
        isolated = sorted(set(range(sym.n)) - set(sym.edges.ravel().tolist()))
        prof = {"dtrw": np.zeros((sym.n, sym.n)), "dtqrw": np.zeros((sym.n, sym.n))}
        for j in range(sym.n):
            prof["dtrw"][j] = classical.dtrw_transition_profile(sym, j, 5)
            if j not in isolated:
                prof["dtqrw"][j] = dtqrw.transition_profile(sym, j, 5)
        for walker in ("dtrw", "dtqrw"):
            out = result.walkers[walker]
            assert np.array_equal(out.profiles, prof[walker])
            sub = walk_support_subgraph(cci, prof[walker], targets, epsilon)
            assert np.array_equal(out.support.edges, sub.edges)
        assert result.walkers["dtqrw"].zero_rows == tuple(sym.labels[j] for j in isolated)
        assert result.walkers["dtrw"].zero_rows == ()


def test_emit_cci_reports_files_and_determinism(cci_paths, tmp_path):
    nodes, edges = cci_paths
    result = run_cci_analysis(
        CciConfig(nodes, edges, steps=5, targets=("C1",), epsilon=0.2)
    )
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    paths1 = emit_cci_reports(result, d1)
    paths2 = emit_cci_reports(result, d2)
    names = [p.name for p in paths1]
    assert names == [
        "cci_dtqrw_profiles.csv", "cci_dtqrw_distances.csv", "cci_dtqrw_support.tsv",
        "cci_dtrw_profiles.csv", "cci_dtrw_distances.csv", "cci_dtrw_support.tsv",
        "cci_manifest.json",
    ]
    for p1, p2 in zip(paths1, paths2):
        assert p1.read_bytes() == p2.read_bytes()
    support = (d1 / "cci_dtqrw_support.tsv").read_text().splitlines()
    assert support[0].startswith("#")
    assert set(support[1:]) == {"S1\tL1", "L1\tR1", "R1\tC1"}
    import json

    manifest = json.loads((d1 / "cci_manifest.json").read_text())
    assert manifest["layers"] == {"sender": 2, "ligand": 2, "receptor": 1, "receiver": 1}
    assert manifest["graph"] == {"nodes": 6, "edges": 4}
    assert manifest["walkers"]["dtrw"]["support_edges"] == 3
    assert manifest["walkers"]["dtqrw"]["zero_rows"] == []


def test_emit_cci_matrices_match_per_entry_csv_writer(tmp_path):
    # labels that csv must quote, and entries whose text is easy to get wrong
    nodes = 'S,1\tsender\nL"1\tligand\nR 1\treceptor\nC1\treceiver\n'
    edges = 'S,1\tL"1\nL"1\tR 1\nR 1\tC1\n'
    np_, ep = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    np_.write_text(nodes)
    ep.write_text(edges)
    result = run_cci_analysis(CciConfig(str(np_), str(ep), steps=3, targets=("C1",)))
    special = np.array([0.0, -0.0, 1.0 / 3.0, 5e-324, 1e300, np.inf, -np.inf, np.nan])
    dtrw = result.walkers["dtrw"]
    walkers = dict(result.walkers)
    walkers["dtrw"] = dataclasses.replace(dtrw, profiles=special[:16].repeat(2).reshape(4, 4))
    result = dataclasses.replace(result, walkers=walkers)
    emit_cci_reports(result, tmp_path / "out")
    labels = result.cci.graph.labels
    for walker, output in result.walkers.items():
        for name, matrix in (("profiles", output.profiles), ("distances", output.distances)):
            with (tmp_path / "ref.csv").open("w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["node"] + list(labels))
                for label, row in zip(labels, matrix):
                    writer.writerow([label] + [f"{float(v):.17g}" for v in row])
            got = (tmp_path / "out" / f"cci_{walker}_{name}.csv").read_bytes()
            assert got == (tmp_path / "ref.csv").read_bytes()
