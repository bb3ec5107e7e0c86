"""Tests for ranking metrics, profile distances and walk-support subgraphs.

The average-precision oracle is a deliberately naive re-implementation in
this file (slice, enumerate, average); the library version must match it
exactly — not merely within a tolerance — on a thousand random rankings.
The ranking oracle, ``walk_oracles.rank_oracle``, sorts with two stable
mergesorts; the library's sorts must give the same items and the same
score bits on ties, near ties, NaN, ±inf and ±0.0, with labels given as a
sequence or as a ``LabeledGraph``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_strategies import support_cases
from netqwalk.graphs import LabeledGraph, build_cci_graph
from netqwalk.metrics import (
    TIE_ATOL,
    TIE_RTOL,
    RankedList,
    _rank,
    average_precision_at_k,
    pairwise_distance_matrix,
    precision_at_k,
    rank_by_probability,
    walk_support_subgraph,
)
from traced_memory import traced_peak
from walk_oracles import rank_oracle, support_oracle


def naive_average_precision(items, relevant, k):
    """Independent oracle: textbook AP@K, written without reusing the library."""
    rel = set(relevant)
    precisions = []
    hits = 0
    for rank, item in enumerate(items[:k], start=1):
        if item in rel:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / min(k, len(rel))


# ---------------------------------------------------------------------------
# RankedList
# ---------------------------------------------------------------------------


def test_ranked_list_validation():
    r = RankedList(("a", "b"), np.array([0.9, 0.1]))
    assert len(r) == 2
    assert not r.scores.flags.writeable
    with pytest.raises(ValueError, match="one score"):
        RankedList(("a", "b"), np.array([1.0]))
    with pytest.raises(ValueError, match="unique"):
        RankedList(("a", "a"), np.array([0.9, 0.1]))
    with pytest.raises(ValueError, match="non-increasing"):
        RankedList(("a", "b"), np.array([0.1, 0.9]))


def test_ranked_list_of_graph_nodes_holds_their_labels():
    g = LabeledGraph(("a", "b", "c"), np.empty((0, 2), dtype=np.int64))
    r = RankedList(np.array([2, 0]), np.array([0.9, 0.1]), g)
    assert r.items == ("c", "a")
    assert RankedList((), np.array([]), g).items == ()
    with pytest.raises(ValueError, match="one score"):
        RankedList(np.array([2, 0]), np.array([1.0]), g)
    with pytest.raises(ValueError, match="^ranked items must be unique$"):
        RankedList(np.array([1, 1]), np.array([0.9, 0.1]), g)
    with pytest.raises(ValueError, match="non-increasing"):
        RankedList(np.array([2, 0]), np.array([0.1, 0.9]), g)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

ANCHORS = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-14, 0.2, 1.0]) | st.floats()
TOLERANCES = st.sampled_from([(0.0, 0.0), (TIE_RTOL, TIE_ATOL)])


@st.composite
def rank_cases(draw):
    """``(p, labels, exclude, rtol, atol)`` for ``_rank``: up to 40 values near
    a few anchors, each moved by up to 2 ulps and then down by 0, 0.5, 0.999,
    1.001 or 2 tie tolerances, so exact ties and near ties on both sides of
    the tolerance occur; labels (shuffled) or none, and exclusions given as
    indices or labels."""
    anchors = draw(st.lists(ANCHORS, min_size=1, max_size=4))
    p = []
    for _ in range(draw(st.integers(0, 40))):
        value = draw(st.sampled_from(anchors))
        ulps = draw(st.integers(-2, 2))
        nudge = draw(st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0]))
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and past the largest float
            for _ in range(abs(ulps)):
                value = np.nextafter(value, np.sign(ulps) * np.inf)
            p.append(value - nudge * (TIE_RTOL * abs(value) + TIE_ATOL) if nudge else value)
    n = len(p)
    labels = draw(st.none() | st.permutations([f"g{i}" for i in range(n)]))
    exclude = []
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n + 1)) if n else ():
        kinds = [i, np.int64(i)] + ([labels[i]] if labels is not None else [])
        exclude.append(draw(st.sampled_from(kinds)))
    if labels is not None and draw(st.booleans()):  # the graph form that the pipeline passes
        labels = LabeledGraph(labels, np.empty((0, 2), dtype=np.int64))
    return (np.array(p), labels, exclude, *draw(TOLERANCES))


@settings(max_examples=300, deadline=None)
@given(rank_cases())
@example((np.array([]), None, [], 0.0, 0.0))
@example((np.array([-0.0]), ("a",), [], TIE_RTOL, TIE_ATOL))
@example((np.array([0.0, -0.0, 0.3]), ("a", "b", "c"), ["c"], 0.0, 0.0))
@example((np.array([np.nan, 0.1, np.nan]), None, [1], TIE_RTOL, TIE_ATOL))
@example((np.array([0.2, 0.5, 0.2]), LabeledGraph(("a", "b", "c"), [(0, 1)]), ["b"], 0.0, 0.0))
def test_rank_matches_the_two_mergesort_oracle(case):
    p, labels, exclude, rtol, atol = case
    names = labels.labels if isinstance(labels, LabeledGraph) else labels
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and huge gaps
        got = _rank(p, labels, exclude, rtol, atol)
        items, scores = rank_oracle(p, names, exclude, rtol, atol)
    assert got.items == items
    assert np.array_equal(got.scores, scores, equal_nan=True)
    assert np.array_equal(np.signbit(got.scores), np.signbit(scores))


def test_values_a_relative_5e_12_apart_do_not_tie():
    # the tie band at 0.5 is TIE_RTOL * 0.5 + TIE_ATOL = 5.1e-13, so a gap of
    # 2.5e-12 ranks the larger value first; a band ten times wider would tie
    # them and list node 0 first
    low = 0.5 * (1 - 5e-12)
    ranked = rank_by_probability([low, 0.5])
    assert ranked.items == (1, 0)
    assert ranked.scores.tolist() == [0.5, low]


# ---------------------------------------------------------------------------
# precision
# ---------------------------------------------------------------------------


def test_rank_rejects_an_excluded_index_outside_the_vector():
    assert rank_by_probability([0.1, 0.4, 0.5], exclude=(2,)).items == (1, 0)
    for bad in (7, 3, -1, 10**400):
        with pytest.raises(ValueError, match=f"index {bad} is out of range for 3 nodes"):
            rank_by_probability([0.1, 0.4, 0.5], exclude=(bad,))
    for bad in (1.9, -0.5, np.nan):
        with pytest.raises(ValueError, match=f"index {bad} is not an integer"):
            rank_by_probability([0.1, 0.4, 0.5], exclude=(bad,))


def test_rank_excludes_labels_and_names_an_unknown_one():
    p = [0.1, 0.4, 0.5, 0.2]
    labels = ["w", "x", "y", "z"]
    ranked = rank_by_probability(p, labels, exclude=["y", "w", "y"])
    assert ranked.items == ("x", "z")
    with pytest.raises(ValueError, match="excluded label 'q' is not a ranked label"):
        rank_by_probability(p, labels, exclude=["x", "q"])
    with pytest.raises(ValueError, match="label exclusions require labels"):
        rank_by_probability(p, exclude=["x"])


def test_rank_rejects_repeated_plain_labels():
    # a graph's labels are unique by construction; a plain sequence is checked per ranking
    with pytest.raises(ValueError, match="^ranked items must be unique$"):
        rank_by_probability([0.1, 0.4, 0.5], ["a", "b", "a"])


FOUR = LabeledGraph(("a", "b", "ab", "c"), np.empty((0, 2), dtype=np.int64))


@pytest.mark.parametrize("call, name", [
    (lambda: rank_by_probability([0.1, 0.4, 0.5, 0.2], ["a", "b", "ab", "c"], "ab"), "exclude"),
    (lambda: rank_by_probability([0.1, 0.4, 0.5, 0.2], FOUR, "ab"), "exclude"),
    (lambda: precision_at_k(["ab", "a"], "ab", 2), "relevant"),
    (lambda: average_precision_at_k(["ab", "a"], "ab", 2), "relevant"),
], ids=["exclude-labels", "exclude-graph", "precision", "average-precision"])
def test_a_string_is_not_a_set_of_labels(call, name):
    # iterating "ab" would exclude or count "a" and "b", not "ab"
    with pytest.raises(ValueError, match=f"^{name} must be a sequence, not the string 'ab'$"):
        call()


def test_a_ranking_of_a_graph_allocates_at_most_160_bytes_per_node():
    # 30,000 nodes in 500 tie groups; 600 nodes excluded by index and 600 by label
    n = 30_000
    g = LabeledGraph(tuple(f"gene{i}" for i in range(n)), [(i, i + 1) for i in range(n - 1)])
    p = np.random.default_rng(11).integers(0, 500, n) / 500.0
    exclude = list(range(0, n, 50)) + [f"gene{i}" for i in range(25, n, 50)]
    rank_by_probability(p, g, exclude)  # fills the graph's cached label array
    ranked, peak = traced_peak(rank_by_probability, p, g, exclude)
    assert len(ranked) == n - 1200
    assert peak / n <= 160


def test_precision_hand_cases():
    items = ["a", "b", "c", "d"]
    rel = {"a", "c"}
    assert precision_at_k(items, rel, 1) == 1.0
    assert precision_at_k(items, rel, 2) == 0.5
    assert precision_at_k(items, rel, 3) == 2 / 3
    assert precision_at_k(items, rel, 4) == 0.5
    # denominator stays k past the end of the list
    assert precision_at_k(items, rel, 8) == 0.25
    with pytest.raises(ValueError, match="k must be"):
        precision_at_k(items, rel, 0)


def test_precision_accepts_ranked_list():
    r = RankedList(("x", "y"), np.array([0.7, 0.2]))
    assert precision_at_k(r, {"y"}, 2) == 0.5


# ---------------------------------------------------------------------------
# average precision
# ---------------------------------------------------------------------------


def test_average_precision_hand_cases():
    # relevant at ranks 1 and 3 of three, two relevant total:
    # (1/1 + 2/3) / 2 = 5/6
    assert average_precision_at_k(["a", "x", "b"], {"a", "b"}, 3) == pytest.approx(
        5 / 6, abs=1e-15
    )
    # truncation at k=2 sees only the first hit: 1 / min(2, 2) = 0.5
    assert average_precision_at_k(["a", "x", "b"], {"a", "b"}, 2) == 0.5
    # perfect prefix scores exactly 1
    assert average_precision_at_k(["a", "b", "x"], {"a", "b"}, 2) == 1.0
    assert average_precision_at_k(["a", "b", "x"], {"a", "b"}, 3) == 1.0
    # no relevant item ranked scores 0
    assert average_precision_at_k(["x", "y"], {"a"}, 2) == 0.0
    # k larger than the relevance set: normalizer is M, not k
    assert average_precision_at_k(["a", "x", "y", "z"], {"a"}, 4) == 1.0


def test_average_precision_validation():
    with pytest.raises(ValueError, match="k must be"):
        average_precision_at_k(["a"], {"a"}, 0)
    with pytest.raises(ValueError, match="nonempty"):
        average_precision_at_k(["a"], set(), 3)


def test_average_precision_matches_naive_oracle_exactly():
    rng = np.random.default_rng(70)
    universe = [f"g{j}" for j in range(60)]
    for _ in range(1000):
        n_ranked = int(rng.integers(1, 40))
        items = list(rng.choice(universe, size=n_ranked, replace=False))
        n_rel = int(rng.integers(1, 15))
        relevant = set(rng.choice(universe, size=n_rel, replace=False))
        k = int(rng.integers(1, 50))
        got = average_precision_at_k(items, relevant, k)
        ref = naive_average_precision(items, relevant, k)
        assert got == ref  # bitwise: same accumulation order


def test_average_precision_promotion_never_hurts():
    # swapping a relevant item one rank up past an irrelevant one never
    # decreases AP@K
    rng = np.random.default_rng(71)
    for _ in range(200):
        items = list(rng.permutation([f"g{j}" for j in range(12)]))
        relevant = set(rng.choice([f"g{j}" for j in range(12)], size=4, replace=False))
        k = int(rng.integers(1, 14))
        base = average_precision_at_k(items, relevant, k)
        swaps = [
            i
            for i in range(1, len(items))
            if items[i] in relevant and items[i - 1] not in relevant
        ]
        if not swaps:
            continue
        i = swaps[int(rng.integers(0, len(swaps)))]
        promoted = items.copy()
        promoted[i - 1], promoted[i] = promoted[i], promoted[i - 1]
        assert average_precision_at_k(promoted, relevant, k) >= base


def test_average_precision_ignores_irrelevant_identity():
    # renaming the irrelevant filler items changes nothing
    rel = {"a", "b"}
    v1 = average_precision_at_k(["x", "a", "y", "b"], rel, 4)
    v2 = average_precision_at_k(["q", "a", "w", "b"], rel, 4)
    assert v1 == v2


# ---------------------------------------------------------------------------
# profile distances
# ---------------------------------------------------------------------------


def test_distance_matrix_hand_case():
    d = pairwise_distance_matrix([[1.0, 0.0], [0.0, 1.0]])
    assert abs(d[0, 1] - np.sqrt(2.0)) < 1e-15
    assert d[0, 0] == 0.0 and d[1, 1] == 0.0


def test_distance_matrix_metric_axioms():
    rng = np.random.default_rng(72)
    profiles = rng.random((8, 5))
    profiles /= profiles.sum(axis=1, keepdims=True)
    d = pairwise_distance_matrix(profiles)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert d.min() >= 0.0
    for i in range(8):
        for j in range(8):
            for k in range(8):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_distance_matrix_rotation_equivariance_on_cycle():
    # profiles of a rotation-invariant process on a cycle give a
    # circulant distance matrix: d[i, j] depends only on (i - j) mod n
    n = 7
    profiles = np.zeros((n, n))
    for i in range(n):
        profiles[i, i] = 0.5
        profiles[i, (i + 1) % n] = 0.25
        profiles[i, (i - 1) % n] = 0.25
    d = pairwise_distance_matrix(profiles)
    for i in range(n):
        for j in range(n):
            assert abs(d[i, j] - d[0, (j - i) % n]) < 1e-12


def test_distance_matrix_validation():
    with pytest.raises(ValueError, match="at least one"):
        pairwise_distance_matrix([])
    with pytest.raises(ValueError, match="dimension"):
        pairwise_distance_matrix([[1.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="others must have 2 columns"):
        pairwise_distance_matrix([[1.0, 0.0]], [[1.0, 0.0, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distance_matrix_rejects_non_finite_rows_naming_the_first(bad):
    with pytest.raises(ValueError, match="profiles row 0 has a non-finite entry"):
        pairwise_distance_matrix([[bad, 1.0], [0.0, 1.0]])
    rows = [[0.0, 1.0], [1.0, 0.0], [bad, 0.0], [0.0, bad]]
    with pytest.raises(ValueError, match="profiles row 2 "):
        pairwise_distance_matrix(rows)
    with pytest.raises(ValueError, match="others row 2 "):
        pairwise_distance_matrix([[0.0, 1.0]], rows)


def test_distance_row_blocks_equal_the_whole_matrix_bit_for_bit():
    # sparse random distributions, as the CCI walkers give, in blocks of rows
    # whose size does not divide the row count
    rng = np.random.default_rng(73)
    profiles = rng.random((150, 150)) * (rng.random((150, 150)) < 0.1)
    profiles[:, 0] += 1e-3
    profiles /= profiles.sum(axis=1, keepdims=True)
    whole = pairwise_distance_matrix(profiles)
    assert np.all(np.diag(whole) == 0.0)
    for rows in (64, 7):
        blocks = [
            pairwise_distance_matrix(profiles[lo : lo + rows], profiles)
            for lo in range(0, 150, rows)
        ]
        assert blocks[-1].shape == (150 % rows, 150)
        assert np.array_equal(np.vstack(blocks), whole)


# ---------------------------------------------------------------------------
# walk-support subgraphs
# ---------------------------------------------------------------------------

NODES = [
    ("S1", "sender"), ("S2", "sender"),
    ("L1", "ligand"), ("L2", "ligand"),
    ("R1", "receptor"),
    ("C1", "receiver"),
]
EDGES = [("S1", "L1"), ("S2", "L2"), ("L1", "R1"), ("L2", "R1"), ("R1", "C1")]


def profile_from_hops(g, hop_probs):
    """Profiles matrix whose row u places the given mass on each successor."""
    prof = np.zeros((g.n, g.n))
    for (u, v), p in hop_probs.items():
        prof[g.index(u), g.index(v)] = p
    return prof


def test_support_keeps_only_complete_paths():
    cci = build_cci_graph(NODES, EDGES)
    g = cci.graph
    # the S2 lane has a strong first hop but a broken second hop, so none
    # of its edges lie on a complete path and all must disappear
    prof = profile_from_hops(
        g,
        {
            ("S1", "L1"): 0.9,
            ("L1", "R1"): 0.8,
            ("R1", "C1"): 0.7,
            ("S2", "L2"): 0.95,
            ("L2", "R1"): 0.01,
        },
    )
    sub = walk_support_subgraph(cci, prof, targets=["C1"], epsilon=0.5)
    kept = {(g.labels[j], g.labels[k]) for j, k in sub.edges}
    assert kept == {("S1", "L1"), ("L1", "R1"), ("R1", "C1")}
    # node set is preserved even for pruned-away nodes
    assert sub.labels == g.labels
    assert sub.directed


def test_support_is_monotone_in_epsilon():
    cci = build_cci_graph(NODES, EDGES)
    g = cci.graph
    prof = profile_from_hops(
        g,
        {
            ("S1", "L1"): 0.9,
            ("L1", "R1"): 0.6,
            ("R1", "C1"): 0.4,
            ("S2", "L2"): 0.8,
            ("L2", "R1"): 0.3,
        },
    )
    previous = None
    for eps in (0.05, 0.2, 0.35, 0.5, 0.65, 0.95):
        sub = walk_support_subgraph(cci, prof, targets=["C1"], epsilon=eps)
        edges = {tuple(e) for e in sub.edges.tolist()}
        if previous is not None:
            assert edges <= previous
        previous = edges
    # tiny epsilon keeps every edge that lies on some complete path
    sub = walk_support_subgraph(cci, prof, targets=["C1"], epsilon=1e-6)
    assert len(sub.edges) == len(EDGES)
    # epsilon above every hop probability empties the support
    sub = walk_support_subgraph(cci, prof, targets=["C1"], epsilon=0.95)
    assert len(sub.edges) == 0


def test_support_paths_start_at_every_sender():
    cci = build_cci_graph(NODES, EDGES)
    g = cci.graph
    prof = profile_from_hops(
        g,
        {
            ("S1", "L1"): 0.9,
            ("L1", "R1"): 0.9,
            ("R1", "C1"): 0.9,
            ("S2", "L2"): 0.9,
            ("L2", "R1"): 0.9,
        },
    )
    # both senders start a complete path, so both lanes survive
    sub = walk_support_subgraph(cci, prof, targets=["C1"], epsilon=0.5)
    assert {(g.labels[j], g.labels[k]) for j, k in sub.edges} == set(EDGES)


def test_support_validation():
    cci = build_cci_graph(NODES, EDGES)
    n = cci.graph.n
    prof = np.zeros((n, n))
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match="epsilon"):
            walk_support_subgraph(cci, prof, targets=["C1"], epsilon=eps)
    with pytest.raises(ValueError, match="target"):
        walk_support_subgraph(cci, prof, targets=[], epsilon=0.5)
    with pytest.raises(ValueError, match="shape"):
        walk_support_subgraph(cci, np.zeros((2, 2)), targets=["C1"], epsilon=0.5)
    with pytest.raises(KeyError):
        walk_support_subgraph(cci, prof, targets=["NOPE"], epsilon=0.5)


def test_support_rejects_an_integer_target_outside_the_graph():
    chain = [("S", "sender"), ("L", "ligand"), ("R", "receptor"), ("C", "receiver")]
    cci = build_cci_graph(chain, [("S", "L"), ("L", "R"), ("R", "C")])
    prof = np.full((4, 4), 0.5)
    assert len(walk_support_subgraph(cci, prof, targets=[3], epsilon=0.1).edges) == 3
    for bad in (99, 4, -1):
        with pytest.raises(ValueError, match=f"index {bad} is out of range for 4 nodes"):
            walk_support_subgraph(cci, prof, targets=[bad], epsilon=0.1)
    for bad in (2.5, np.inf):
        with pytest.raises(ValueError, match=f"index {bad} is not an integer"):
            walk_support_subgraph(cci, prof, targets=[bad], epsilon=0.1)


@pytest.mark.parametrize("hop", [("S", "L"), ("L", "R"), ("R", "C")])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_support_rejects_a_non_finite_profile_on_any_hop(hop, bad):
    # a NaN compares false both ways, so unchecked it would cut a last hop
    # but keep a first one; every hop must raise alike, naming the row
    chain = [("S", "sender"), ("L", "ligand"), ("R", "receptor"), ("C", "receiver")]
    cci = build_cci_graph(chain, [("S", "L"), ("L", "R"), ("R", "C")])
    prof = np.full((4, 4), 0.5)
    prof[cci.graph.index(hop[0]), cci.graph.index(hop[1])] = bad
    row = cci.graph.index(hop[0])
    with pytest.raises(ValueError, match=f"profiles row {row} has a non-finite entry"):
        walk_support_subgraph(cci, prof, targets=["C"], epsilon=0.1)


@settings(max_examples=300, deadline=None)
@given(support_cases())
def test_support_matches_the_path_enumeration_oracle(case):
    cci, prof, targets, epsilon = case
    sub = walk_support_subgraph(cci, prof, targets, epsilon)
    assert sub.labels == cci.graph.labels and sub.directed
    assert sub.edges.tolist() == [list(e) for e in support_oracle(cci, prof, targets, epsilon)]
    assert np.array_equal(sub.weights, np.ones(sub.edge_count))
