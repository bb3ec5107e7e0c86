"""Tests for graph ingestion, components, and CCI validation."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from scipy.sparse import csgraph

from netqwalk import classical, ctqrw, dtqrw
from netqwalk.graphs import (
    CciValidationError,
    ComponentDecomposition,
    GraphFormatError,
    LabeledGraph,
    PartitionedCciGraph,
    _merge_edges,
    adjacency_matrix,
    build_cci_graph,
    connected_components,
    degree_vector,
    graph_from_edges,
    graph_stats,
    greatest_component,
    laplacian,
    load_edge_list,
    node_subgraph,
    parse_label_pairs,
    parse_node_layers,
    symmetrized_view,
    weak_labels,
)
from netqwalk.pipeline import CciConfig, ExperimentConfig
from graph_strategies import edge_lists, small_graphs


# ---------------------------------------------------------------------------
# construction and parsing
# ---------------------------------------------------------------------------

def test_graph_from_edges_labels_by_first_appearance():
    g = graph_from_edges([("b", "a"), ("a", "c")])
    assert g.labels == ("b", "a", "c")
    assert g.n == 3 and g.edge_count == 2
    assert g.index("c") == 2
    assert "a" in g and "z" not in g


def test_duplicate_edges_merge_and_self_loops_drop():
    # duplicates merge with weight summation (default weight 1 each)
    g = graph_from_edges([("a", "b"), ("b", "a"), ("a", "a"), ("a", "b")])
    assert g.edge_count == 1
    a = adjacency_matrix(g).toarray()
    assert a[0, 0] == 0.0
    assert a[0, 1] == 3.0 == a[1, 0]


def test_duplicate_weighted_edges_sum():
    g = graph_from_edges(
        [("a", "b", 1.5), ("b", "a", 0.5)],
    )
    assert g.edge_count == 1
    assert adjacency_matrix(g)[0, 1] == 2.0


def test_merge_edges_sums_weighted_duplicates_in_row_order():
    edges = [(2, 0), (0, 2), (1, 1), (0, 1), (2, 0), (3, 1), (1, 0), (0, 3)]
    weights = [0.5, 1.25, 9.0, 2.0, 0.25, 1.0, 4.0, 0.5]
    uniq, merged, n_loops = _merge_edges(edges, weights, directed=False)
    assert uniq.tolist() == [[0, 1], [0, 2], [0, 3], [1, 3]]
    assert merged.tolist() == [6.0, 2.0, 0.5, 1.0]
    assert n_loops == 1
    uniq, merged, n_loops = _merge_edges(edges, weights, directed=True)
    assert uniq.tolist() == [[0, 1], [0, 2], [0, 3], [1, 0], [2, 0], [3, 1]]
    assert merged.tolist() == [2.0, 1.25, 0.5, 4.0, 0.75, 1.0]
    assert n_loops == 1
    assert uniq.dtype == np.int64 and merged.dtype == np.float64


def test_load_edge_list_comments_blanks_and_weights():
    text = "# comment\n\na\tb\nb\tc\t2.5\n  \n"
    g = load_edge_list(text)
    assert g.labels == ("a", "b", "c")
    assert adjacency_matrix(g)[1, 2] == 2.5


def test_load_edge_list_reports_line_numbers():
    with pytest.raises(GraphFormatError, match="line 2"):
        load_edge_list("a\tb\nonly_one_field\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        load_edge_list("a\tb\tnot_a_number\n")


def test_load_edge_list_empty_is_error():
    with pytest.raises(GraphFormatError):
        load_edge_list("# nothing here\n")


def test_labeled_graph_rejects_repeated_labels_and_indexes_unique_ones():
    with pytest.raises(GraphFormatError, match="node labels must be unique"):
        LabeledGraph(("a", "b", "a"), np.array([[0, 1]]))
    g = LabeledGraph(("c", "a", "b"), np.array([[0, 2]]))
    assert [g.index(label) for label in ("a", "b", "c")] == [1, 2, 0]
    assert "b" in g and "d" not in g


def test_labeled_graph_rejects_malformed_edge_arrays():
    labels = ("a", "b", "c")
    for fields, message in (
        ({"edges": [[0, 3]]}, "out of range"),
        ({"edges": [[-1, 2]]}, "out of range"),
        ({"edges": [[1, 1]]}, "self-loops"),
        ({"edges": [[2, 0]]}, "j < k"),
        ({"edges": [[0, 1]], "weights": [1.0, 2.0]}, "weights length"),
        ({"edges": [[0.7, 2.9]]}, "edge index 0.7 is not an integer"),
        ({"edges": [[0.0, np.nan]]}, "edge index nan is not an integer"),
    ):
        with pytest.raises(GraphFormatError, match=message):
            LabeledGraph(labels, **fields)
    # a directed edge may run from a higher index to a lower one
    assert LabeledGraph(labels, [[2, 0]], directed=True).edge_count == 1
    # an integral float index is that integer
    assert LabeledGraph(labels, [[0.0, 2.0]]).edges.tolist() == [[0, 2]]


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        graph_from_edges([("a", "b", -1.0)])


def test_directed_graph_keeps_orientation():
    g = graph_from_edges([("a", "b"), ("b", "a")], directed=True)
    assert g.edge_count == 2
    a = adjacency_matrix(g).toarray()
    assert a[0, 1] == 1.0 and a[1, 0] == 1.0


def test_declared_isolated_nodes():
    g = graph_from_edges([("a", "b")], nodes=["a", "b", "c"])
    assert g.n == 3
    assert degree_vector(g)[2] == 0


def test_edges_are_read_only():
    g = graph_from_edges([("a", "b")])
    with pytest.raises(ValueError):
        g.edges[0, 0] = 5


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_adjacency_symmetric_for_undirected():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(2, 30)
        pairs = [
            (f"v{i}", f"v{j}")
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        if not pairs:
            continue
        a = adjacency_matrix(graph_from_edges(pairs)).toarray()
        assert np.array_equal(a, a.T)


def test_laplacian_rows_sum_to_zero():
    g = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    lap = laplacian(g).toarray()
    assert np.allclose(lap.sum(axis=1), 0.0)
    assert np.allclose(np.diag(lap), degree_vector(g))


def test_laplacian_rejects_directed():
    g = graph_from_edges([("a", "b")], directed=True)
    with pytest.raises(ValueError):
        laplacian(g)


def test_laplacian_psd():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(3, 25))
        pairs = [
            (f"v{i}", f"v{j}")
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        if not pairs:
            continue
        w = np.linalg.eigvalsh(laplacian(graph_from_edges(pairs)).toarray())
        assert w.min() > -1e-10


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_connected_components_sizes_descend():
    g = graph_from_edges(
        [("a", "b"), ("b", "c"), ("x", "y"), ("p", "q"), ("q", "r"), ("r", "s")]
    )
    comp = connected_components(g)
    assert comp.count == 3
    assert list(comp.sizes) == [4, 3, 2]


def test_component_sizes_must_sum_to_the_node_count():
    with pytest.raises(ValueError, match="^component sizes must sum to the node count$"):
        ComponentDecomposition(np.array([0, 0, 1]), np.array([2, 2]))


def test_greatest_component_prefers_smallest_label_on_ties():
    # two components of equal size; the one containing the smallest label wins
    g = graph_from_edges([("m", "n"), ("a", "b")])
    gc = greatest_component(g)
    assert gc.labels == ("a", "b")


def test_greatest_component_preserves_edges_and_labels():
    g = graph_from_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("z1", "z2")]
    )
    gc = greatest_component(g)
    assert gc.labels == ("a", "b", "c")
    assert gc.edge_count == 3


def test_node_subgraph_keeps_weights():
    g = graph_from_edges([("a", "b", 2.0), ("b", "c", 3.0)])
    sub = node_subgraph(g, [0, 1])
    assert sub.labels == ("a", "b")
    assert adjacency_matrix(sub)[0, 1] == 2.0


def test_graph_stats_schema():
    g = graph_from_edges([("a", "b"), ("b", "c"), ("x", "y")])
    stats = graph_stats(g)
    assert stats == {
        "nodes": 5,
        "edges": 3,
        "fragments": 2,
        "gc_nodes": 3,
        "gc_edges": 2,
    }


def test_graph_stats_ties_follow_greatest_component():
    # three components of four nodes tie; the smallest label ("a") sits in
    # the last-labelled one, whose edge count differs from the others
    g = graph_from_edges([
        ("m", "n"), ("n", "o"), ("o", "p"),
        ("x", "y"), ("y", "z"), ("z", "w"), ("w", "x"),
        ("b", "a"), ("b", "c"), ("b", "d"), ("c", "d"), ("a", "c"),
        ("q", "r"),
    ])
    gc = greatest_component(g)
    assert "a" in gc.labels
    stats = graph_stats(g)
    assert (stats["gc_nodes"], stats["gc_edges"]) == (gc.n, gc.edge_count) == (4, 5)
    assert stats["fragments"] == 4


def test_singleton_graph_stats():
    g = graph_from_edges([], nodes=["only"])
    assert graph_stats(g) == {
        "nodes": 1, "edges": 0, "fragments": 1, "gc_nodes": 1, "gc_edges": 0,
    }


def test_a_zero_weight_edge_still_joins_its_ends():
    g = load_edge_list("a\tb\t0\nb\tc\t1\n")
    assert graph_stats(g) == {
        "nodes": 3, "edges": 2, "fragments": 1, "gc_nodes": 3, "gc_edges": 2,
    }


def test_directed_edges_join_their_ends_weakly():
    # b reaches neither a nor c, but the three form one weak component
    g = graph_from_edges([("a", "b"), ("c", "b")], directed=True)
    assert graph_stats(g)["fragments"] == 1


def _csgraph_labels(a, directed):
    return csgraph.connected_components(a, directed=directed, connection="weak")[1].tolist()


@settings(max_examples=300, deadline=None)
@given(small_graphs())
@example(graph_from_edges([]))
@example(graph_from_edges([], directed=True, nodes=["a", "b", "c"]))
def test_component_labels_equal_csgraph(g):
    # csgraph numbers components by their smallest node and keeps a stored
    # zero weight as an edge
    expected = _csgraph_labels(adjacency_matrix(g), g.directed)
    assert connected_components(g).component_of.tolist() == expected


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_raw_pair_labels_equal_csgraph(drawn):
    # self-loops and duplicate pairs, which the graph constructor removes
    labels, edges, directed = drawn
    n, index = len(labels), {label: i for i, label in enumerate(labels)}
    pairs = np.array([(index[u], index[v]) for u, v, _ in edges], dtype=np.int64).reshape(-1, 2)
    a = sp.coo_matrix((np.ones(len(pairs)), tuple(pairs.T)), shape=(n, n))
    assert weak_labels(n, pairs).tolist() == _csgraph_labels(a, directed)


def test_a_shuffled_long_path_is_one_component():
    # the worst case of plain label propagation, which takes one round per
    # edge of the path
    n = 100_000
    order = np.random.default_rng(5).permutation(n)
    edges = np.sort(np.stack([order[:-1], order[1:]], axis=1), axis=1)
    g = LabeledGraph(tuple(map(str, range(n))), edges)
    comp = connected_components(g)
    assert comp.count == 1
    assert comp.component_of.tolist() == _csgraph_labels(adjacency_matrix(g), False)


# ---------------------------------------------------------------------------
# CCI graphs
# ---------------------------------------------------------------------------

CCI_NODES = [
    ("S1", "sender"), ("S2", "sender"),
    ("L1", "ligand"), ("R1", "receptor"), ("C1", "receiver"),
]
CCI_EDGES = [("S1", "L1"), ("S2", "L1"), ("L1", "R1"), ("R1", "C1")]


def test_build_cci_graph_accepts_forward_layers():
    cci = build_cci_graph(CCI_NODES, CCI_EDGES)
    assert cci.layer_counts() == {
        "sender": 2, "ligand": 1, "receptor": 1, "receiver": 1,
    }
    assert cci.graph.directed
    assert cci.nodes_in_layer("sender") == [0, 1]


def test_cci_rejects_intra_layer_edge():
    with pytest.raises(CciValidationError, match="intra-layer"):
        build_cci_graph(CCI_NODES, CCI_EDGES + [("S1", "S2")])


def test_cci_rejects_reverse_edge():
    with pytest.raises(CciValidationError, match="reverse"):
        build_cci_graph(CCI_NODES, CCI_EDGES + [("R1", "L1")])


def test_cci_rejects_layer_skip():
    with pytest.raises(CciValidationError, match="skip"):
        build_cci_graph(CCI_NODES, CCI_EDGES + [("S1", "R1")])


def test_cci_rejects_unknown_layer_and_label():
    with pytest.raises(CciValidationError):
        build_cci_graph([("X", "mystery")], [])
    with pytest.raises(CciValidationError):
        build_cci_graph(CCI_NODES, [("S1", "NOPE")])


def test_cci_rejects_duplicate_node_label():
    with pytest.raises(CciValidationError, match="duplicate node label 'S1'"):
        build_cci_graph(CCI_NODES + [("S1", "ligand")], CCI_EDGES)


def test_a_cci_graph_needs_one_layer_per_node():
    g = build_cci_graph(CCI_NODES, CCI_EDGES).graph
    layers = ("sender",) * (g.n - 1)
    with pytest.raises(CciValidationError, match="^one layer assignment per node is required$"):
        PartitionedCciGraph(g, layers)


def test_symmetrized_view_same_nodes_undirected():
    cci = build_cci_graph(CCI_NODES, CCI_EDGES)
    sym = symmetrized_view(cci)
    assert not sym.directed
    assert sym.labels == cci.graph.labels
    assert sym.edge_count == 4
    a = adjacency_matrix(sym).toarray()
    assert np.array_equal(a, a.T)


def test_symmetrized_view_keeps_isolated_nodes():
    cci = build_cci_graph(CCI_NODES + [("R9", "receptor")], CCI_EDGES)
    sym = symmetrized_view(cci)
    assert sym.n == 6
    assert degree_vector(sym)[sym.index("R9")] == 0


def test_cci_sender_receiver_paths_have_length_three():
    # brute-force path check: every directed sender -> receiver path is 3 hops
    cci = build_cci_graph(CCI_NODES, CCI_EDGES)
    g = cci.graph
    succ = {}
    for j, k in g.edges:
        succ.setdefault(int(j), []).append(int(k))
    senders = set(cci.nodes_in_layer("sender"))
    receivers = set(cci.nodes_in_layer("receiver"))

    def paths_from(v, length):
        if length > 4:
            return
        if v in receivers:
            yield length
        for w in succ.get(v, ()):
            yield from paths_from(w, length + 1)

    for s in senders:
        for hops in paths_from(s, 0):
            assert hops == 3


def test_load_edge_list_row_permutation_same_graph():
    rows = ["a\tb", "b\tc", "c\td", "a\td"]
    g1 = load_edge_list("\n".join(rows))
    g2 = load_edge_list("\n".join(reversed(rows)))
    # same structure up to the label-to-index mapping
    pairs1 = {tuple(sorted((g1.labels[j], g1.labels[k]))) for j, k in g1.edges}
    pairs2 = {tuple(sorted((g2.labels[j], g2.labels[k]))) for j, k in g2.edges}
    assert pairs1 == pairs2
    assert set(g1.labels) == set(g2.labels)


# ---------------------------------------------------------------------------
# node indices
# ---------------------------------------------------------------------------

# node 0 is labelled "3", a string that spells the index of another node
PATH4 = graph_from_edges([("3", "b"), ("b", "c"), ("c", "d")])
_H4 = ctqrw.build_hamiltonian(PATH4, "adjacency")
_ARCS4 = dtqrw.arc_basis(PATH4)
# every public walk function that takes a node index, called with ``i`` there
WALK_CALLS = {
    "probability-source": lambda i: ctqrw.transition_probability(_H4, i, 0, 1.0),
    "probability-destination": lambda i: ctqrw.transition_probability(_H4, 0, i, 1.0),
    "rate-source": lambda i: ctqrw.transition_rate(_H4, i, 0, 1.0),
    "rate-destination": lambda i: ctqrw.transition_rate(_H4, 0, i, 1.0),
    "dtrw-profile": lambda i: classical.dtrw_transition_profile(PATH4, i, 2),
    "dtqrw-profile": lambda i: dtqrw.transition_profile(PATH4, i, 2),
    "arc-state": lambda i: dtqrw.initial_arc_state(_ARCS4, i),
    "arc-block": lambda i: dtqrw.initial_arc_block(_ARCS4, [0, i]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index", [-1, 4, 1.7])
@pytest.mark.parametrize("call", WALK_CALLS.values(), ids=WALK_CALLS)
def test_every_walk_function_rejects_a_bad_node_index(call, index):
    # unchecked, numpy indexing wraps -1 to the last node and truncates 1.7
    # to node 1, and 4 raises an IndexError that names no node
    with pytest.raises(ValueError, match=rf"node {re.escape(str(index))} is "):
        call(index)


@pytest.mark.parametrize("call", WALK_CALLS.values(), ids=WALK_CALLS)
def test_walk_functions_take_numpy_integer_node_indices(call):
    assert np.array_equal(call(np.int64(3)), call(3))


@pytest.mark.parametrize("name", WALK_CALLS)
def test_a_numeric_string_is_never_read_as_a_node_index(name):
    # "3" labels node 0; read as an index it named node 3, silently
    if name in ("dtrw-profile", "dtqrw-profile"):  # these two take labels
        assert np.array_equal(WALK_CALLS[name]("3"), WALK_CALLS[name](0))
    else:
        with pytest.raises(ValueError, match="node '3' is not an integer"):
            WALK_CALLS[name]("3")


# every step count that a walker or a config takes, and the config's other
# integers (a K value and the random seed), called with ``s`` there
STEP_CALLS = {
    "dtrw-evolve": lambda s: classical.dtrw_evolve(PATH4, np.full(4, 0.25), s),
    "dtqrw-evolve": lambda s: dtqrw.evolve(_ARCS4, dtqrw.initial_arc_state(_ARCS4, 0), s),
    "cci-config": lambda s: CciConfig("nodes.tsv", "edges.tsv", steps=s, targets=("C1",)),
    "experiment-config": lambda s: ExperimentConfig("g", "s", "t", walker="dtrw", steps_max=s),
    "experiment-k": lambda s: ExperimentConfig("g", "s", "t", walker="dtrw", k_list=(s, 20)),
    "experiment-rng-seed": lambda s: ExperimentConfig("g", "s", "t", walker="dtrw", rng_seed=s),
}


@pytest.mark.parametrize("steps, named", [(2.7, "2.7"), (np.float64(0.5), "0.5"), ("2", "'2'")])
@pytest.mark.parametrize("call", STEP_CALLS.values(), ids=STEP_CALLS)
def test_a_step_count_with_a_fraction_is_a_value_error(call, steps, named):
    # the coined walk took 2.7 steps as 2, a K of 2.7 was K 2, and a seed of
    # 2.7 failed only inside a chiral sweep; the rest raised a bare TypeError
    with pytest.raises(ValueError, match=rf"{re.escape(named)} is not an integer"):
        call(steps)


@pytest.mark.parametrize("call", STEP_CALLS.values(), ids=STEP_CALLS)
def test_a_whole_float_step_count_is_its_integer(call):
    whole, integer = call(2.0), call(2)
    if isinstance(integer, np.ndarray):
        assert np.array_equal(whole, integer)
    else:  # the config keeps the int, so its manifest writes 2, not 2.0
        assert repr(whole) == repr(integer)


# ---------------------------------------------------------------------------
# table parsers
# ---------------------------------------------------------------------------

def test_parse_node_layers():
    rows = parse_node_layers("# c\nA\tsender\nB\tligand\n")
    assert rows == [("A", "sender"), ("B", "ligand")]
    with pytest.raises(GraphFormatError, match="line 1"):
        parse_node_layers("A\n")


def test_parse_label_pairs():
    rows = parse_label_pairs("A\tB\n# skip\nB\tC\n")
    assert rows == [("A", "B"), ("B", "C")]
    with pytest.raises(GraphFormatError):
        parse_label_pairs("A\tB\tC\n")
