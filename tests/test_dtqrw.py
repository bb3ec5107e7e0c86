"""Tests for the coined arc-space walk.

The independent oracle is ``walk_oracles.coined_walk_unitary``: an
explicit block-diagonal coin matrix times an explicit shift permutation
matrix, built from the dense adjacency alone and applied with
``numpy.linalg.matrix_power``.  It shares neither the library's reverse-arc
map nor its coin, so agreement is a real cross-check; its rows are put in
the library's arc order by matching each arc's (tail, head).
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graph_strategies import edge_lists
from netqwalk.dtqrw import (
    arc_basis,
    arc_state_from_scores,
    evolve,
    grover_coin,
    initial_arc_block,
    initial_arc_state,
    node_probabilities,
    step,
    step_inverse,
    sweep,
    transition_profile,
)
from netqwalk.graphs import (
    graph_from_edges,
    greatest_component,
    load_edge_list,
    read_edge_list,
)
from walk_oracles import (
    coined_walk_unitary_in,
    dtqrw_oracle,
    graph_with_leaves_and_isolated,
    random_graph,
    weighted_graph_with_isolated_node,
)

DATA = Path(__file__).resolve().parent.parent / "data"


# ---------------------------------------------------------------------------
# arc enumeration
# ---------------------------------------------------------------------------


def test_arc_basis_structure_on_path():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    arcs = arc_basis(g)
    assert arcs.n_arcs == 4
    got = list(zip(arcs.tails.tolist(), arcs.heads.tolist()))
    assert got == [(0, 1), (1, 0), (1, 2), (2, 1)]
    assert arcs.node_ptr.tolist() == [0, 1, 3, 4]  # degrees 1, 2, 1


def test_arc_reversal_is_an_involution():
    rng = np.random.default_rng(60)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(3, 20)))
        arcs = arc_basis(g)
        r = arcs.reverse
        assert np.array_equal(r[r], np.arange(arcs.n_arcs))
        # reversal really swaps tail and head
        assert np.array_equal(arcs.tails[r], arcs.heads)
        assert np.array_equal(arcs.heads[r], arcs.tails)


def test_arc_basis_rejects_directed_graphs():
    g = load_edge_list("a\tb", directed=True)
    with pytest.raises(ValueError, match="undirected"):
        arc_basis(g)


def test_arc_basis_isolated_node_has_empty_segment():
    g = graph_from_edges([("a", "b")])
    # add an isolated node through the node-list constructor
    from netqwalk.graphs import LabeledGraph

    g2 = LabeledGraph(("a", "b", "z"), g.edges, weights=g.weights, directed=False)
    arcs = arc_basis(g2)
    assert arcs.node_ptr.tolist() == [0, 1, 2, 2]  # node 2 has no arcs
    with pytest.raises(ValueError, match="isolated"):
        initial_arc_state(arcs, 2)


def test_arc_basis_of_an_edgeless_graph_has_no_arcs():
    arcs = arc_basis(graph_from_edges([], nodes=["a", "b", "c"]))
    assert arcs.n_arcs == 0
    assert arcs.node_ptr.tolist() == [0, 0, 0, 0]
    assert arcs.incidence.shape == (3, 0)
    for index in (arcs.tails, arcs.heads, arcs.node_ptr, arcs.reverse):
        assert index.dtype == np.int64


def test_arc_basis_keeps_the_arcs_of_a_zero_weight_edge():
    # the coined walk ignores weights, so a zero weight leaves both arcs
    weighted = arc_basis(graph_from_edges([("a", "b", 0.0), ("b", "c", 2.5)]))
    plain = arc_basis(graph_from_edges([("a", "b"), ("b", "c")]))
    got = list(zip(weighted.tails.tolist(), weighted.heads.tolist()))
    assert got == [(0, 1), (1, 0), (1, 2), (2, 1)]
    for name in ("tails", "heads", "node_ptr", "reverse"):
        assert np.array_equal(getattr(weighted, name), getattr(plain, name))
        assert getattr(weighted, name).dtype == np.int64


# ---------------------------------------------------------------------------
# coins
# ---------------------------------------------------------------------------


def test_grover_coin_small_cases():
    assert np.array_equal(grover_coin(1), np.array([[1.0]]))
    c2 = grover_coin(2)
    assert np.allclose(c2, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)
    c3 = grover_coin(3)
    assert np.allclose(c3, 2.0 / 3.0 * np.ones((3, 3)) - np.eye(3), atol=1e-15)
    with pytest.raises(ValueError, match=">= 1"):
        grover_coin(0)


def test_grover_coin_is_unitary_and_self_inverse():
    for d in range(1, 8):
        c = grover_coin(d)
        assert np.allclose(c @ c, np.eye(d), atol=1e-12)
        assert np.allclose(c, c.T, atol=1e-15)


# ---------------------------------------------------------------------------
# dynamics against the dense oracle
# ---------------------------------------------------------------------------


def test_evolution_matches_dense_unitary_powers():
    rng = np.random.default_rng(61)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(3, 12)))
        arcs = arc_basis(g)
        u = coined_walk_unitary_in(g, arcs.tails, arcs.heads)
        psi0 = rng.standard_normal(arcs.n_arcs) + 1j * rng.standard_normal(arcs.n_arcs)
        psi0 /= np.linalg.norm(psi0)
        for steps in (0, 1, 2, 5, 9):
            got = evolve(arcs, psi0, steps)
            ref = np.linalg.matrix_power(u, steps) @ psi0
            assert np.max(np.abs(got - ref)) < 1e-12


def test_single_step_equals_dense_unitary():
    rng = np.random.default_rng(62)
    g = random_graph(rng, 8)
    arcs = arc_basis(g)
    u = coined_walk_unitary_in(g, arcs.tails, arcs.heads)
    psi0 = rng.standard_normal(arcs.n_arcs) + 1j * rng.standard_normal(arcs.n_arcs)
    psi0 /= np.linalg.norm(psi0)
    assert np.max(np.abs(step(arcs, psi0) - u @ psi0)) < 1e-13


def test_dense_walk_unitary_really_is_unitary():
    rng = np.random.default_rng(63)
    g = random_graph(rng, 9)
    arcs = arc_basis(g)
    u = coined_walk_unitary_in(g, arcs.tails, arcs.heads)
    assert np.allclose(u.conj().T @ u, np.eye(arcs.n_arcs), atol=1e-12)


def test_step_inverse_undoes_step():
    rng = np.random.default_rng(64)
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(3, 15)))
        arcs = arc_basis(g)
        psi0 = rng.standard_normal(arcs.n_arcs) + 1j * rng.standard_normal(arcs.n_arcs)
        psi0 /= np.linalg.norm(psi0)
        back = step_inverse(arcs, step(arcs, psi0))
        assert np.max(np.abs(back - psi0)) < 1e-12


def test_two_node_walk_has_period_two():
    g = graph_from_edges([("a", "b")])
    arcs = arc_basis(g)
    psi0 = initial_arc_state(arcs, 0)
    p1 = node_probabilities(arcs, evolve(arcs, psi0, 1))
    p2 = node_probabilities(arcs, evolve(arcs, psi0, 2))
    assert np.allclose(p1, [0.0, 1.0], atol=1e-14)
    assert np.allclose(p2, [1.0, 0.0], atol=1e-14)


def test_probability_conservation():
    rng = np.random.default_rng(66)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(3, 20)))
        arcs = arc_basis(g)
        psi0 = rng.standard_normal(arcs.n_arcs) + 1j * rng.standard_normal(arcs.n_arcs)
        psi0 /= np.linalg.norm(psi0)
        psi = evolve(arcs, psi0, int(rng.integers(0, 25)))
        p = node_probabilities(arcs, psi)
        assert abs(p.sum() - 1.0) < 1e-12
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_evolve_validation():
    g = graph_from_edges([("a", "b")])
    arcs = arc_basis(g)
    psi0 = initial_arc_state(arcs, 0)
    with pytest.raises(ValueError, match="^step count must be >= 0, got -1$"):
        evolve(arcs, psi0, -1)
    with pytest.raises(ValueError, match="length"):
        evolve(arcs, np.ones(3) / np.sqrt(3), 1)
    # an edgeless graph has no arcs, so no state to walk
    edgeless = arc_basis(graph_from_edges([], nodes=["a", "b"]))
    with pytest.raises(ValueError, match="^amplitude vector is empty$"):
        evolve(edgeless, np.zeros(0), 1)


@pytest.mark.parametrize("complex_block", [False, True])
@pytest.mark.parametrize("k", [1, 5])
def test_block_evolution_matches_each_column(k, complex_block):
    rng = np.random.default_rng(69)
    g = graph_with_leaves_and_isolated(rng, 24)
    arcs = arc_basis(g)
    block = rng.standard_normal((arcs.n_arcs, k))
    if complex_block:
        block = block + 1j * rng.standard_normal((arcs.n_arcs, k))
    block /= np.linalg.norm(block, axis=0)
    dtype = np.complex128 if complex_block else np.float64
    for steps in (0, 1, 7):
        got = evolve(arcs, block, steps)
        assert got.shape == (arcs.n_arcs, k) and got.dtype == dtype
        probs = node_probabilities(arcs, got)
        assert probs.shape == (g.n, k)
        for j in range(k):
            assert np.array_equal(got[:, j], evolve(arcs, block[:, j], steps))
            assert np.array_equal(probs[:, j], node_probabilities(arcs, got[:, j]))
        if not complex_block:
            # the complex walk of a real state has the same probabilities
            as_complex = evolve(arcs, block.astype(np.complex128), steps)
            assert np.array_equal(node_probabilities(arcs, as_complex), probs)
        assert np.array_equal(step(arcs, block), evolve(arcs, block, 1))
        assert np.allclose(step_inverse(arcs, step(arcs, block)), block, atol=1e-14)


def test_block_evolution_names_the_bad_column():
    g = graph_with_leaves_and_isolated(np.random.default_rng(70), 10)
    arcs = arc_basis(g)
    block = np.full((arcs.n_arcs, 3), 1.0 / np.sqrt(arcs.n_arcs))
    block[:, 2] *= 1.5
    with pytest.raises(ValueError, match="column 2 has 2-norm"):
        evolve(arcs, block, 3)
    block[:, 2] = np.nan
    with pytest.raises(ValueError, match="column 2 has non-finite"):
        evolve(arcs, block, 3)
    with pytest.raises(ValueError, match="length"):
        evolve(arcs, block[1:], 3)


def test_initial_arc_block_columns_are_the_single_start_states():
    g = graph_with_leaves_and_isolated(np.random.default_rng(71), 12)
    arcs = arc_basis(g)
    starts = [3, 0, g.n - 3, 3]
    block = initial_arc_block(arcs, starts)
    assert block.shape == (arcs.n_arcs, 4) and block.dtype == np.float64
    for c, node in enumerate(starts):
        assert np.array_equal(block[:, c], initial_arc_state(arcs, node))
    with pytest.raises(ValueError, match=f"node {g.n - 1} is isolated"):
        initial_arc_block(arcs, [1, g.n - 1])


# ---------------------------------------------------------------------------
# state preparation and readout
# ---------------------------------------------------------------------------


def test_initial_arc_state_uniform_over_segment():
    g = graph_from_edges([("a", "b"), ("b", "c"), ("b", "d")])
    arcs = arc_basis(g)
    psi = initial_arc_state(arcs, 1)  # degree 3
    p = node_probabilities(arcs, psi)
    assert abs(p[1] - 1.0) < 1e-15
    seg = psi[arcs.node_ptr[1] : arcs.node_ptr[2]]
    assert np.allclose(seg, 1.0 / np.sqrt(3.0), atol=1e-15)


def test_arc_state_from_scores_node_profile_proportional():
    rng = np.random.default_rng(67)
    g = random_graph(rng, 10)
    arcs = arc_basis(g)
    s = rng.random(10)
    psi = arc_state_from_scores(arcs, s)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    p = node_probabilities(arcs, psi)
    assert np.max(np.abs(p - s / s.sum())) < 1e-12


def test_real_score_state_walks_like_its_complex_cast():
    # the fixture interactome with a sparse nonnegative score vector: the
    # real state must walk exactly as its complex128 cast does, and give
    # exactly its node probabilities at every step
    g = greatest_component(read_edge_list(DATA / "synthetic_ppi.tsv"))
    arcs = arc_basis(g)
    rng = np.random.default_rng(0)
    s = rng.random(g.n) * (rng.random(g.n) < 0.1)
    psi = arc_state_from_scores(arcs, s)
    assert psi.dtype == np.float64
    psi_c = psi.astype(np.complex128)
    for _ in range(20):
        psi, psi_c = evolve(arcs, psi, 1), evolve(arcs, psi_c, 1)
        assert psi.dtype == np.float64
        assert np.array_equal(psi, psi_c.real) and not psi_c.imag.any()
        assert np.array_equal(node_probabilities(arcs, psi), node_probabilities(arcs, psi_c))


def test_arc_state_from_scores_validation():
    g = graph_from_edges([("a", "b")])
    arcs = arc_basis(g)
    with pytest.raises(ValueError, match="expected 2 scores"):
        arc_state_from_scores(arcs, [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        arc_state_from_scores(arcs, [1.0, -1.0])
    with pytest.raises(ValueError, match="positive entry"):
        arc_state_from_scores(arcs, [0.0, 0.0])
    from netqwalk.graphs import LabeledGraph

    g2 = LabeledGraph(("a", "b", "z"), g.edges, weights=g.weights, directed=False)
    arcs2 = arc_basis(g2)
    with pytest.raises(ValueError, match="isolated node 2"):
        arc_state_from_scores(arcs2, [1.0, 1.0, 1.0])
    # zero score on the isolated node is fine
    psi = arc_state_from_scores(arcs2, [1.0, 1.0, 0.0])
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_node_probabilities_validation():
    g = graph_from_edges([("a", "b")])
    arcs = arc_basis(g)
    with pytest.raises(ValueError, match="amplitudes"):
        node_probabilities(arcs, np.ones(5))


def test_transition_profile_by_label_and_index():
    g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    by_label = transition_profile(g, "b", 3)
    by_index = transition_profile(g, 1, 3)
    assert np.array_equal(by_label, by_index)
    assert abs(by_label.sum() - 1.0) < 1e-12


def test_transition_profile_against_dense_oracle():
    rng = np.random.default_rng(68)
    g = random_graph(rng, 7)
    arcs = arc_basis(g)
    u = coined_walk_unitary_in(g, arcs.tails, arcs.heads)
    for steps in (1, 4, 7):
        got = transition_profile(g, 0, steps)
        ref_psi = np.linalg.matrix_power(u, steps) @ initial_arc_state(arcs, 0)
        ref = np.bincount(arcs.tails, weights=np.abs(ref_psi) ** 2, minlength=arcs.n)
        assert np.max(np.abs(got - ref)) < 1e-12


def test_sweep_matches_the_coined_walk_oracle_at_every_step():
    # the oracle has its own arc order, coin blocks and shift; the graphs
    # have isolated nodes and degree-1 leaves, and the first one is weighted
    rng = np.random.default_rng(70)
    cases = [weighted_graph_with_isolated_node()]
    cases += [graph_with_leaves_and_isolated(rng, int(rng.integers(6, 14))) for _ in range(4)]
    grid = list(range(13))
    for g in cases:
        p0 = rng.random(g.n) * (np.bincount(g.edges.ravel(), minlength=g.n) > 0)
        p0 /= p0.sum()
        for steps, p in zip(grid, sweep(g, p0, grid, None), strict=True):
            assert np.max(np.abs(p - dtqrw_oracle(g, p0, steps))) < 1e-12, steps


def test_node_probabilities_of_a_non_uniform_arc_state_match_the_oracle():
    # the arcs leaving a node start with different amplitudes, so the node
    # probabilities show which arc the shift moves each amplitude onto
    rng = np.random.default_rng(71)
    cases = [weighted_graph_with_isolated_node()]
    cases += [graph_with_leaves_and_isolated(rng, int(rng.integers(6, 14))) for _ in range(4)]
    for g in cases:
        arcs = arc_basis(g)
        u = coined_walk_unitary_in(g, arcs.tails, arcs.heads)
        psi = rng.standard_normal(arcs.n_arcs)
        psi /= np.linalg.norm(psi)
        for steps in range(8):
            ref_psi = np.linalg.matrix_power(u, steps) @ psi
            ref = np.bincount(arcs.tails, weights=ref_psi**2, minlength=g.n)
            got = node_probabilities(arcs, evolve(arcs, psi, steps))
            assert np.max(np.abs(got - ref)) < 1e-12, steps


@st.composite
def positive_weight_graphs(draw):
    """A drawn undirected graph with at least one edge and no zero-weight edge:
    the oracle reads the arcs off the dense adjacency's nonzeros, while
    ``arc_basis`` keeps a zero-weight edge's arcs."""
    labels, edges, _ = draw(edge_lists())
    g = graph_from_edges([e for e in edges if e[2] > 0], directed=False, nodes=labels)
    assume(g.edge_count)
    return g


@settings(max_examples=150, deadline=None)
@given(positive_weight_graphs(), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_step_and_evolve_are_powers_of_the_coined_walk_unitary(g, steps, seed):
    arcs = arc_basis(g)
    u = coined_walk_unitary_in(g, arcs.tails, arcs.heads)
    rng = np.random.default_rng(seed)
    psi0 = rng.standard_normal(arcs.n_arcs) + 1j * rng.standard_normal(arcs.n_arcs)
    psi0 /= np.linalg.norm(psi0)
    psi = evolve(arcs, psi0, steps)
    assert np.max(np.abs(psi - np.linalg.matrix_power(u, steps) @ psi0)) < 1e-12
    assert np.max(np.abs(step(arcs, psi) - u @ psi)) < 1e-12
    assert abs(node_probabilities(arcs, psi).sum() - 1.0) < 1e-12


def test_walk_spreads_ballistically_on_cycle():
    # after a few steps the coined walk reaches distance ~steps on a long
    # cycle, unlike the diffusive classical walk; just check support
    n = 21
    g = graph_from_edges([(f"v{j}", f"v{(j + 1) % n}") for j in range(n)])
    p = transition_profile(g, 0, 8)
    reached = np.flatnonzero(p > 1e-12)
    dist = np.minimum(reached, n - reached)
    assert dist.max() == 8
