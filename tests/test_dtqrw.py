"""Tests for the coined arc-space walk.

The independent oracle is a dense walk unitary assembled from scratch in
this file: an explicit block-diagonal coin matrix times an explicit shift
permutation matrix, applied with ``numpy.linalg.matrix_power``.  The
library never forms that matrix, so agreement is a real cross-check.
"""

from pathlib import Path

import numpy as np
import pytest

from netqwalk.dtqrw import (
    ArcIndex,
    arc_basis,
    arc_state_from_scores,
    evolve,
    grover_coin,
    initial_arc_block,
    initial_arc_state,
    node_probabilities,
    step,
    step_inverse,
    transition_profile,
)
from netqwalk.graphs import (
    graph_from_edges,
    greatest_component,
    load_edge_list,
    read_edge_list,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def dense_walk_unitary(arcs: ArcIndex) -> np.ndarray:
    """Explicit (shift @ coin) matrix on the arc space, built independently."""
    m = arcs.n_arcs
    c = np.zeros((m, m), dtype=np.complex128)
    for node in range(arcs.n):
        lo, hi = int(arcs.node_ptr[node]), int(arcs.node_ptr[node + 1])
        if hi > lo:
            c[lo:hi, lo:hi] = grover_coin(hi - lo)
    s = np.zeros((m, m))
    for a in range(m):
        s[int(arcs.reverse[a]), a] = 1.0
    return s @ c


def random_graph(rng, n):
    edges = [(f"v{j}", f"v{j + 1}") for j in range(n - 1)]
    for _ in range(n):
        j, k = rng.integers(0, n, size=2)
        if j != k:
            edges.append((f"v{j}", f"v{k}"))
    return graph_from_edges(edges)


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
        u = dense_walk_unitary(arcs)
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
    u = dense_walk_unitary(arcs)
    psi0 = rng.standard_normal(arcs.n_arcs) + 1j * rng.standard_normal(arcs.n_arcs)
    psi0 /= np.linalg.norm(psi0)
    assert np.max(np.abs(step(arcs, psi0) - u @ psi0)) < 1e-13


def test_dense_walk_unitary_really_is_unitary():
    rng = np.random.default_rng(63)
    g = random_graph(rng, 9)
    arcs = arc_basis(g)
    u = dense_walk_unitary(arcs)
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
    with pytest.raises(ValueError, match="nonnegative"):
        evolve(arcs, psi0, -1)
    with pytest.raises(ValueError, match="length"):
        evolve(arcs, np.ones(3) / np.sqrt(3), 1)


def graph_with_leaves_and_isolated(rng, n):
    """Random graph; its last two nodes are isolated, its next-to-last two
    are degree-1 leaves hanging off random core nodes."""
    labels = [f"v{j}" for j in range(n)]
    core = n - 4
    edges = [(labels[j], labels[(j + 1) % core]) for j in range(core)]
    edges += [(labels[j], labels[k]) for j, k in rng.integers(0, core, size=(core, 2)) if j != k]
    edges += [(labels[n - 4], labels[int(rng.integers(0, core))]),
              (labels[n - 3], labels[int(rng.integers(0, core))])]
    return graph_from_edges(edges, nodes=labels)


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
    # real state must equal the complex128 state normalized in complex
    # arithmetic, and give exactly its node probabilities at every step
    # (at this seed a plain real norm can round differently)
    g = greatest_component(read_edge_list(DATA / "synthetic_ppi.tsv"))
    arcs = arc_basis(g)
    rng = np.random.default_rng(0)
    s = rng.random(g.n) * (rng.random(g.n) < 0.1)
    psi = arc_state_from_scores(arcs, s)
    assert psi.dtype == np.float64
    amp = np.sqrt(s / np.maximum(np.diff(arcs.node_ptr), 1))[arcs.tails].astype(np.complex128)
    psi_c = amp / np.linalg.norm(amp)
    assert np.array_equal(psi, psi_c.real) and not psi_c.imag.any()
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
    u = dense_walk_unitary(arcs)
    for steps in (1, 4, 7):
        got = transition_profile(g, 0, steps)
        ref_psi = np.linalg.matrix_power(u, steps) @ initial_arc_state(arcs, 0)
        ref = np.bincount(arcs.tails, weights=np.abs(ref_psi) ** 2, minlength=arcs.n)
        assert np.max(np.abs(got - ref)) < 1e-12


def test_walk_spreads_ballistically_on_cycle():
    # after a few steps the coined walk reaches distance ~steps on a long
    # cycle, unlike the diffusive classical walk; just check support
    n = 21
    g = graph_from_edges([(f"v{j}", f"v{(j + 1) % n}") for j in range(n)])
    p = transition_profile(g, 0, 8)
    reached = np.flatnonzero(p > 1e-12)
    dist = np.minimum(reached, n - reached)
    assert dist.max() == 8
