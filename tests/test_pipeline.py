"""Tests for the experiment drivers (prioritization sweep, CCI analysis).

The pipeline must be a thin orchestration of the library walkers: for a
grid point picked at random the sweep's AP values are re-derived here by
calling the walker, ranking and metric functions directly, and the two
routes must agree exactly.
"""

import csv
import dataclasses
import hashlib
import json
import os
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from netqwalk import classical, ctqrw, dtqrw, pipeline
from netqwalk.graphs import (
    build_cci_graph,
    graph_from_edges,
    greatest_component,
    parse_label_pairs,
    parse_node_layers,
    read_edge_list,
    symmetrized_view,
)
from netqwalk.metrics import (
    _rank,
    average_precision_at_k,
    pairwise_distance_matrix,
    rank_by_probability,
    walk_support_subgraph,
)
from netqwalk.pipeline import (
    CciConfig,
    ExperimentConfig,
    MAX_GRID_POINTS,
    PROFILES,
    _DISTANCE_ROWS,
    _EXACT_TIE_WALKERS,
    SWEEPS,
    SweepResult,
    build_seed_target_sets,
    emit_cci_reports,
    emit_reports,
    parse_score_table,
    read_score_table,
    run_cci_analysis,
    run_prioritization,
)
from netqwalk.states import START_BLOCK
from walk_oracles import dtqrw_oracle, graph_with_leaves_and_isolated

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
    # p < nan is false for every gene, so NaN is refused by name
    with pytest.raises(ValueError, match="target_thresh must be positive, got nan"):
        build_seed_target_sets({"a": 0.001}, 0.01, {"b": 1e-9}, float("nan"))
    with pytest.raises(ValueError, match="p < 1e-10"):
        build_seed_target_sets({"a": 0.001}, 0.01, {"b": 1e-9}, 1e-10)
    # a target that is also a seed stays a seed, which can leave no targets
    with pytest.raises(ValueError, match="outside the seed set"):
        build_seed_target_sets({"a": 0.001}, 0.01, {"a": 1e-9}, 0.1)


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
    with pytest.raises(ValueError, match="collapse"):
        ExperimentConfig(**base, walker="rwr", collapse_times=(1.0,))
    with pytest.raises(ValueError, match="increasing"):
        ExperimentConfig(**base, collapse_times=(2.0, 1.0))
    # collapses must fall before the last grid time, where they can act
    with pytest.raises(ValueError, match="not inside"):
        ExperimentConfig(**base, t_max=2.0, collapse_times=(1.0, 2.0))
    ExperimentConfig(**base, t_max=2.0, collapse_times=(1.0, 1.95))


# every tuple-valued config field, given ``x``
TUPLE_FIELDS = {
    "targets": lambda x: CciConfig("n", "e", targets=x),
    "k_list": lambda x: ExperimentConfig("g", "s", "t", k_list=x),
    "collapse_times": lambda x: ExperimentConfig("g", "s", "t", collapse_times=x),
}


@pytest.mark.parametrize("name", TUPLE_FIELDS)
def test_a_bare_string_for_a_tuple_field_is_a_value_error(name):
    # tuple("C1") is two targets, one per character
    with pytest.raises(ValueError, match=f"^{name} must be a sequence, not the string '0.5'$"):
        TUPLE_FIELDS[name]("0.5")


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


def test_grid_of_the_configured_walker_is_bounded():
    base = dict(graph_path="g", scores_path="s", targets_path="t")
    _, grid = ExperimentConfig(**base, walker="dtrw", steps_max=MAX_GRID_POINTS).grid_points()
    assert len(grid) == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="steps_max"):
        ExperimentConfig(**base, walker="dtqrw", steps_max=MAX_GRID_POINTS + 1)
    _, grid = ExperimentConfig(
        **base, walker="ctrw", t_max=MAX_GRID_POINTS - 1.0, t_step=1.0
    ).grid_points()
    assert len(grid) == MAX_GRID_POINTS
    for t_max, t_step in ((float(MAX_GRID_POINTS), 1.0), (1e308, 1e-10)):
        with pytest.raises(ValueError, match="t_max / t_step"):
            ExperimentConfig(**base, walker="ctqrw", t_max=t_max, t_step=t_step)
    # the restart walk builds neither grid, so neither is bounded for it
    ExperimentConfig(**base, walker="rwr", t_step=1e-12, steps_max=10**9)


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


@pytest.mark.parametrize("walker", sorted(SWEEPS))
def test_the_input_graph_is_freed_before_the_walk(fixture_paths, monkeypatch, walker):
    # a walk reads only the greatest component, so holding the whole input
    # graph through the sweep would only add to the peak memory
    read = []

    def reading(path):
        g = read_edge_list(path)
        read.append(weakref.ref(g))
        return g

    kind, sweep = SWEEPS[walker]
    alive = []

    def watched(gc, p0, grid, config):
        for p in sweep(gc, p0, grid, config):
            alive.append(read[0]() is not None)
            yield p

    monkeypatch.setattr(pipeline, "read_edge_list", reading)
    monkeypatch.setitem(SWEEPS, walker, (kind, watched))
    gp, sp, tp = fixture_paths
    run_prioritization(ExperimentConfig(gp, sp, tp, walker=walker, t_max=1.0, k_list=(3,)))
    assert alive and not any(alive)


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


def _digest(ranking):
    return hashlib.sha256("\n".join(ranking.items).encode()).hexdigest()


REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"


def _ctqrw_replay(config, gc, p0, t):
    phases = None
    if config.hamiltonian == "chiral":
        phases = ctqrw.random_chiral_phases(gc, config.rng_seed)
    h = ctqrw.build_hamiltonian(gc, config.hamiltonian, phases)
    psi0 = ctqrw.initial_state_from_scores(p0)
    times = [tc for tc in config.collapse_times if tc < t]
    return ctqrw.measure(ctqrw.evolve_with_collapses(h, psi0, t, times))


def _dtqrw_from_start(config, gc, p0, steps):
    arcs = dtqrw.arc_basis(gc)
    psi = dtqrw.evolve(arcs, dtqrw.arc_state_from_scores(arcs, p0), steps)
    return dtqrw.node_probabilities(arcs, psi)


#: walker -> the public one-point call that its sweep must equal at each grid value
_SINGLE_SHOT = {
    "rwr": lambda config, gc, p0, _: classical.rwr_steady_state(gc, p0, config.alpha),
    "ctrw": lambda config, gc, p0, t: classical.ctrw_evolve(gc, p0, t),
    "dtrw": lambda config, gc, p0, steps: classical.dtrw_evolve(gc, p0, steps),
    "ctqrw": _ctqrw_replay,
    "dtqrw": _dtqrw_from_start,
}

#: ctqrw runs with and without collapses; one collapse falls between grid
#: points and one exactly on a grid point, where it must not act yet
_VARIANTS = {"ctqrw": (
    {},
    {"collapse_times": (0.75, 1.0)},
    {"hamiltonian": "chiral", "rng_seed": 5, "collapse_times": (0.75, 1.0)},
)}


@pytest.mark.parametrize("walker", list(SWEEPS))
def test_every_sweep_yields_the_single_shot_distribution_at_each_grid_value(walker):
    # each grid point continues from the previous one (or from the latest
    # collapse); every point must still equal the one-point call, and the
    # records of a prioritization run must rank those distributions.  The
    # continuous walkers evolve a block of grid times in one matrix product,
    # which rounds differently from the one-point call, so they agree within
    # metrics.TIE_ATOL; the others agree exactly
    atol = 1e-14 if walker in ("ctrw", "ctqrw") else 0.0
    assert set(_SINGLE_SHOT) == set(SWEEPS)
    paths = dict(
        graph_path=DATA / "synthetic_ppi.tsv",
        scores_path=DATA / "synthetic_scores.tsv",
        targets_path=DATA / "synthetic_targets.tsv",
    )
    gc = greatest_component(read_edge_list(paths["graph_path"]))
    for variant in _VARIANTS.get(walker, ({},)):
        config = ExperimentConfig(
            **paths, walker=walker, t_max=2.0, t_step=0.5, steps_max=4, k_list=(10,),
            **variant,
        )
        result = run_prioritization(config)
        _, grid = config.grid_points()
        assert [r.grid_value for r in result.records] == [float(v) for v in grid]
        st = build_seed_target_sets(
            read_score_table(config.scores_path), config.seed_thresh,
            read_score_table(config.targets_path), config.target_thresh,
        )
        seeds = [s for s in st.seeds if s in gc]
        targets = {t for t in st.targets if t in gc}
        p0 = np.zeros(gc.n)
        p0[[gc.index(s) for s in seeds]] = 1.0
        p0 /= p0.sum()
        swept = list(SWEEPS[walker][1](gc, p0, grid, config))
        assert len(swept) == len(grid)
        for value, p, record in zip(grid, swept, result.records):
            assert p.min() >= 0.0 and abs(p.sum() - 1.0) < 1e-12
            ref = _SINGLE_SHOT[walker](config, gc, p0, value)
            assert np.abs(p - ref).max() <= atol, (variant, value)
            if walker in _EXACT_TIE_WALKERS:  # ROADMAP item 1
                ranking = _rank(ref, gc.labels, [gc.index(s) for s in seeds], 0.0, 0.0)
            else:
                ranking = rank_by_probability(ref, labels=gc.labels, exclude=seeds)
            assert record.ranking_sha256 == _digest(ranking), (variant, value)
            assert record.ap[0] == average_precision_at_k(ranking, targets, 10)




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
    # the truncated iteration converges to the steady-state ranking
    gc = greatest_component(read_edge_list(gp))
    p0 = np.zeros(gc.n)
    p0[[gc.index("a"), gc.index("b")]] = 0.5
    iterated = rank_by_probability(
        classical.rwr_iterate(gc, p0, 0.85, 60), labels=gc.labels, exclude=["a", "b"]
    )
    assert _digest(iterated) == steady.records[0].ranking_sha256
    assert average_precision_at_k(iterated, {"c", "d"}, 3) == steady.records[0].ap[0]


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
    for steps in (0, MAX_GRID_POINTS + 1):
        with pytest.raises(ValueError, match="steps"):
            CciConfig(nodes, edges, steps=steps, targets=("C1",))
    assert CciConfig(nodes, edges, steps=MAX_GRID_POINTS, targets=("C1",)).steps == MAX_GRID_POINTS
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
        distances = pairwise_distance_matrix(out.profiles)
        assert np.array_equal(distances, distances.T)


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
    # alone; the generated graph spans several blocks of start nodes and has
    # an isolated node in each layer
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


def test_cci_dtqrw_profiles_match_the_coined_walk_oracle(four_layer_cci):
    # the oracle walks every launched node at once with its own dense unitary
    *layered_paths, target = four_layer_cci
    bundled = (str(DATA / "cci_nodes.tsv"), str(DATA / "cci_edges.tsv"))
    for (nodes, edges), targets in ((bundled, ("C1",)), (layered_paths, (target,))):
        for steps in (4, 5):
            result = run_cci_analysis(
                CciConfig(nodes, edges, steps=steps, targets=targets, epsilon=0.01)
            )
            sym = symmetrized_view(result.cci)
            launched = np.unique(sym.edges)
            ref = dtqrw_oracle(sym, np.eye(sym.n)[:, launched], steps)
            profiles = result.walkers["dtqrw"].profiles
            assert np.max(np.abs(profiles[launched] - ref.T)) < 1e-12
            assert not np.delete(profiles, launched, axis=0).any()


@pytest.mark.parametrize("walker", PROFILES)
def test_a_profile_generator_walks_each_launchable_node_once(walker):
    # a node is launchable when the single-start walk takes it, and every
    # column equals that walk bit for bit; the coined walk launches from ``d``,
    # whose only edge has weight 0, though the classical walk holds mass there
    single = {"dtrw": classical.dtrw_transition_profile, "dtqrw": dtqrw.transition_profile}
    rng = np.random.default_rng(73)
    zero_weight = graph_from_edges([("a", "b"), ("b", "c"), ("c", "d", 0.0)], nodes=["e"])
    graphs = [graph_with_leaves_and_isolated(rng, n) for n in (9, 2 * START_BLOCK + 9)]
    for g in graphs + [zero_weight]:
        want = {}
        for j in range(g.n):
            try:
                want[j] = single[walker](g, j, 5)
            except ValueError:  # an isolated node, for the coined walk
                pass
        launched = []
        for nodes, block in PROFILES[walker](g, 5):
            assert 1 <= len(nodes) <= START_BLOCK and block.shape == (g.n, len(nodes))
            for c, j in enumerate(nodes.tolist()):
                assert np.array_equal(block[:, c], want[j])
            launched += nodes.tolist()
        assert sorted(launched) == list(want)
    assert zero_weight.index("d") in launched
    assert (zero_weight.index("e") in launched) == (walker == "dtrw")


def test_a_walker_in_the_profile_table_is_run_and_reported(cci_paths, monkeypatch, tmp_path):
    # run_cci_analysis and emit_cci_reports reach the walkers only through PROFILES
    asked = []

    def fake(g, steps):
        asked.append(steps)
        nodes = np.array([3, 1])  # L2 and S2 stay put; no other node launches
        yield nodes, np.eye(g.n)[:, nodes]

    monkeypatch.setitem(pipeline.PROFILES, "fake", fake)
    nodes, edges = cci_paths
    result = run_cci_analysis(CciConfig(nodes, edges, steps=3, targets=("C1",)))
    assert asked == [3]
    out = result.walkers["fake"]
    assert np.array_equal(out.profiles, np.diag([0.0, 1.0, 0.0, 1.0, 0.0, 0.0]))
    assert out.zero_rows == ("S1", "L1", "R1", "C1")
    names = [p.name for p in emit_cci_reports(result, tmp_path)]
    assert names[6:9] == ["cci_fake_profiles.csv", "cci_fake_distances.csv", "cci_fake_support.tsv"]
    rows = (tmp_path / "cci_fake_profiles.csv").read_text().splitlines()
    assert rows[2] == "S2,0,1,0,0,0,0"
    manifest = json.loads((tmp_path / "cci_manifest.json").read_text())
    assert manifest["walkers"]["fake"]["zero_rows"] == ["S1", "L1", "R1", "C1"]


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


# ``emit_cci_reports`` writes dtqrw in a forked child and dtrw, the last
# walker by name, in this process

def test_without_fork_every_walker_is_written_here_with_the_same_bytes(
    four_layer_cci, tmp_path, monkeypatch
):
    nodes, edges, target = four_layer_cci
    result = run_cci_analysis(CciConfig(nodes, edges, targets=(target,), epsilon=0.01))
    assert result.cci.graph.n > _DISTANCE_ROWS
    forked = emit_cci_reports(result, tmp_path / "forked")
    monkeypatch.delattr(os, "fork")
    here = emit_cci_reports(result, tmp_path / "here")
    assert [p.name for p in here] == [p.name for p in forked]
    assert [p.read_bytes() for p in here] == [p.read_bytes() for p in forked]


def test_a_failing_writer_here_propagates_after_the_child_is_reaped(cci_paths, tmp_path):
    result = run_cci_analysis(CciConfig(*cci_paths, targets=("C1",)))
    (tmp_path / "cci_dtrw_profiles.csv").mkdir()
    with pytest.raises(IsADirectoryError, match="cci_dtrw_profiles.csv"):
        emit_cci_reports(result, tmp_path)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (tmp_path / "cci_dtqrw_support.tsv").is_file()
    assert not (tmp_path / "cci_manifest.json").exists()


def test_a_child_that_dies_without_reporting_is_a_child_process_error(
    cci_paths, tmp_path, monkeypatch
):
    result = run_cci_analysis(CciConfig(*cci_paths, targets=("C1",)))
    write, parent = pipeline._write_walker_reports, os.getpid()

    def die_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        write(*args)

    monkeypatch.setattr(pipeline, "_write_walker_reports", die_in_a_child)
    with pytest.raises(ChildProcessError, match="the dtqrw report writer exited with status 3"):
        emit_cci_reports(result, tmp_path)
    assert (tmp_path / "cci_dtrw_support.tsv").is_file()
    assert not (tmp_path / "cci_manifest.json").exists()


def test_pairwise_distances_of_the_fixture_profiles_equal_eager_cdist():
    result = run_cci_analysis(CciConfig(
        str(DATA / "cci_nodes.tsv"), str(DATA / "cci_edges.tsv"), targets=("C1",)
    ))
    from scipy.spatial.distance import cdist

    for output in result.walkers.values():
        # the whole matrix computed eagerly, with its diagonal zeroed
        eager = cdist(output.profiles, output.profiles)
        np.fill_diagonal(eager, 0.0)
        assert np.array_equal(pairwise_distance_matrix(output.profiles), eager)


@pytest.mark.parametrize("four_layer_cci", [100], indirect=True)
def test_emit_cci_reports_holds_no_whole_distance_matrix(four_layer_cci, tmp_path):
    nodes, edges, target = four_layer_cci
    result = run_cci_analysis(CciConfig(nodes, edges, targets=(target,)))
    n = result.cci.graph.n
    assert n == 400
    import scipy.spatial.distance  # noqa: F401 - the first distance loads it; not traced

    tracemalloc.start()
    try:
        emit_cci_reports(result, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
    rows = (tmp_path / "out" / "cci_dtqrw_distances.csv").read_text().splitlines()
    assert len(rows) == n + 1


def test_emit_cci_matrices_match_per_entry_csv_writer(tmp_path):
    # labels that csv must quote, and entries whose text is easy to get wrong
    nodes = 'S,1\tsender\nL"1\tligand\nR 1\treceptor\nC1\treceiver\n'
    edges = 'S,1\tL"1\nL"1\tR 1\nR 1\tC1\n'
    np_, ep = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    np_.write_text(nodes)
    ep.write_text(edges)
    result = run_cci_analysis(CciConfig(str(np_), str(ep), steps=3, targets=("C1",)))
    # the distances are made from these profiles, so they must be finite;
    # 1e300 and 1.5e308 square to inf, which the distances CSV then holds
    special = np.array([0.0, -0.0, 1.0 / 3.0, 5e-324, 1e300, 1.5e308, -1e-300, 0.1])
    dtrw = result.walkers["dtrw"]
    walkers = dict(result.walkers)
    walkers["dtrw"] = dataclasses.replace(dtrw, profiles=special.repeat(2).reshape(4, 4))
    result = dataclasses.replace(result, walkers=walkers)
    emit_cci_reports(result, tmp_path / "out")
    assert "inf" in (tmp_path / "out" / "cci_dtrw_distances.csv").read_text()
    labels = result.cci.graph.labels
    for walker, output in result.walkers.items():
        distances = pairwise_distance_matrix(output.profiles)
        for name, matrix in (("profiles", output.profiles), ("distances", distances)):
            with (tmp_path / "ref.csv").open("w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["node"] + list(labels))
                for label, row in zip(labels, matrix):
                    writer.writerow([label] + [f"{float(v):.17g}" for v in row])
            got = (tmp_path / "out" / f"cci_{walker}_{name}.csv").read_bytes()
            assert got == (tmp_path / "ref.csv").read_bytes()
