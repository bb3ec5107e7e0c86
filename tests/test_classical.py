"""Tests for the classical walkers (restart walk, coin-toss walk, diffusion).

Restart-walk oracles are worked out by hand on the 2-node and triangle
graphs and frozen as exact fractions; the residual of the fixed-point
equation is also checked directly so correctness does not rest on any one
solver path.  The restart walk and the discrete-time walk are also checked
against the definition oracles of ``walk_oracles``, which are built from
the dense adjacency alone, on graphs with dangling and isolated nodes.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from netqwalk import classical, expm
from netqwalk.classical import (
    TransitionMatrix,
    ctrw_evolve,
    ctrw_sweep,
    dtrw_evolve,
    dtrw_transition_profile,
    row_stochastic,
    rwr_iterate,
    rwr_steady_state,
)
from netqwalk.expm import ConvergenceError
from netqwalk.graphs import graph_from_edges, greatest_component, load_edge_list, read_edge_list
from netqwalk.states import delta_distribution
from walk_oracles import (
    ctrw_oracle,
    dtrw_oracle,
    restart_matrix,
    rwr_iterate_oracle,
    rwr_oracle,
    weighted_graph_with_isolated_node,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def random_connected_graph(rng, n):
    edges = [(f"v{j}", f"v{j + 1}") for j in range(n - 1)]
    for _ in range(n):
        j, k = rng.integers(0, n, size=2)
        if j != k:
            edges.append((f"v{j}", f"v{k}"))
    return graph_from_edges(edges)


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


def test_transition_matrix_validates_sign_and_row_sums():
    m = sp.csr_matrix(np.array([[0.5, 0.5], [0.0, 0.0]]))
    TransitionMatrix(m, [False, True])
    with pytest.raises(ValueError, match="nonnegative"):
        TransitionMatrix(sp.csr_matrix(np.array([[1.5, -0.5], [0.0, 1.0]])), [False, False])
    with pytest.raises(ValueError, match="sum to 1"):
        TransitionMatrix(m, [False, False])
    with pytest.raises(ValueError, match="sum to 0"):
        TransitionMatrix(sp.csr_matrix(np.array([[0.5, 0.5], [0.0, 0.3]])), [False, True])


def test_column_normalization_on_path():
    # the restart walk steps with the transpose of the row normalization,
    # which on a graph without dangling nodes is the column normalization
    g = graph_from_edges([("a", "b"), ("b", "c")])
    m = row_stochastic(g).matrix.T.toarray()
    # node b has degree 2, so its column splits evenly
    expected = np.array([[0.0, 0.5, 0.0], [1.0, 0.0, 1.0], [0.0, 0.5, 0.0]])
    assert np.allclose(m, expected, atol=1e-15)
    assert np.array_equal(m, restart_matrix(g, np.full(3, 1 / 3)))


def test_dangling_column_teleports_to_restart():
    # directed edge a -> b leaves b with no outgoing neighbors, so one
    # restart step sends b's mass to the restart distribution
    g = load_edge_list("a\tb", directed=True)
    p0 = np.array([0.25, 0.75])
    alpha = 0.6
    hop = np.array([0.0, 0.25]) + 0.75 * p0
    expected = alpha * hop + (1 - alpha) * p0
    assert np.max(np.abs(rwr_iterate(g, p0, alpha, 1) - expected)) < 1e-15


def test_row_stochastic_leaves_dangling_rows_empty():
    g = load_edge_list("a\tb", directed=True)
    walk = row_stochastic(g)
    # a hops to b; dangling b has an empty row, and the walkers decide
    # where its mass goes
    assert np.array_equal(walk.matrix.toarray(), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert walk.dangling.tolist() == [False, True]


def test_row_stochastic_rows_sum_to_one():
    rng = np.random.default_rng(40)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 20)))
        m = row_stochastic(g).matrix
        sums = np.asarray(m.sum(axis=1)).reshape(-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# restart walk
# ---------------------------------------------------------------------------


def test_rwr_two_node_closed_form():
    # single edge, start at a, alpha = 1/2:
    # p_a = 1/2 p_b + 1/2, p_b = 1/2 p_a  =>  p = (2/3, 1/3)
    g = graph_from_edges([("a", "b")])
    p = rwr_steady_state(g, delta_distribution(2, 0), 0.5)
    assert np.max(np.abs(p - np.array([2 / 3, 1 / 3]))) < 1e-12


def test_rwr_triangle_closed_form():
    # triangle, start at node 0, alpha = 0.85: by symmetry p1 = p2 and
    # solving the 2x2 system gives p = (23/57, 17/57, 17/57).
    g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    p = rwr_steady_state(g, delta_distribution(3, 0), 0.85)
    assert np.max(np.abs(p - np.array([23 / 57, 17 / 57, 17 / 57]))) < 1e-10


def test_rwr_fixed_point_residual():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 30)))
        p0 = rng.random(g.n)
        p0 /= p0.sum()
        alpha = float(rng.uniform(0.05, 0.95))
        p = rwr_steady_state(g, p0, alpha)
        m = restart_matrix(g, p0)
        residual = p - alpha * (m @ p) - (1.0 - alpha) * p0
        assert np.max(np.abs(residual)) < 1e-10
        assert abs(p.sum() - 1.0) < 1e-10


def test_rwr_direct_and_power_agree():
    rng = np.random.default_rng(42)
    g = random_connected_graph(rng, 25)
    p0 = np.full(g.n, 1 / g.n)
    power = rwr_steady_state(g, p0, 0.85)
    assert np.max(np.abs(rwr_oracle(g, p0, 0.85) - power)) < 1e-8


def test_rwr_steady_state_takes_no_linear_solve(monkeypatch):
    gc = greatest_component(read_edge_list(DATA / "synthetic_ppi.tsv"))
    p0 = delta_distribution(gc.n, 0)

    def refuse(*args, **kwargs):
        raise AssertionError("rwr_steady_state called np.linalg.solve")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    p = rwr_steady_state(gc, p0, 0.85)
    assert abs(p.sum() - 1.0) < 1e-10


def test_rwr_alpha_zero_returns_restart_distribution():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    p0 = np.array([0.2, 0.5, 0.3])
    assert np.array_equal(rwr_steady_state(g, p0, 0.0), p0)


def test_rwr_validation():
    g = graph_from_edges([("a", "b")])
    p0 = np.full(2, 1 / 2)
    for alpha in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            rwr_steady_state(g, p0, alpha)
    with pytest.raises(ValueError, match="sums"):
        rwr_steady_state(g, np.array([0.9, 0.9]), 0.5)
    with pytest.raises(ValueError, match="^iteration count must be >= 0$"):
        rwr_iterate(g, p0, 0.5, n_iter=-1)


def test_rwr_steady_state_raises_when_power_iteration_runs_out(monkeypatch):
    monkeypatch.setattr(classical, "POWER_MAX_ITER", 3)
    g = graph_from_edges([("a", "b"), ("b", "c")])
    with pytest.raises(ConvergenceError, match="did not converge in 3 steps"):
        rwr_steady_state(g, np.array([1.0, 0.0, 0.0]), 0.85)


def test_rwr_iterate_recurrence_and_limit():
    g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    p0 = delta_distribution(4, 0)
    alpha = 0.6
    m = restart_matrix(g, p0)
    # n_iter = 0 is the restart distribution itself
    assert np.array_equal(rwr_iterate(g, p0, alpha, 0), p0)
    # each iteration applies exactly one update
    p1 = rwr_iterate(g, p0, alpha, 1)
    assert np.max(np.abs(p1 - (alpha * (m @ p0) + (1 - alpha) * p0))) < 1e-15
    p5 = rwr_iterate(g, p0, alpha, 5)
    expected = p0.copy()
    for _ in range(5):
        expected = alpha * (m @ expected) + (1 - alpha) * p0
    assert np.max(np.abs(p5 - expected)) < 1e-15
    # long truncation approaches the steady state geometrically
    p200 = rwr_iterate(g, p0, alpha, 200)
    steady = rwr_steady_state(g, p0, alpha)
    assert np.max(np.abs(p200 - steady)) < 1e-12


def test_rwr_mass_concentrates_near_seed():
    # restart pins mass near the seed: seed entry is the unique maximum
    rng = np.random.default_rng(43)
    g = random_connected_graph(rng, 15)
    p = rwr_steady_state(g, delta_distribution(g.n, 3), 0.7)
    assert p.argmax() == 3


# ---------------------------------------------------------------------------
# discrete-time walk
# ---------------------------------------------------------------------------


def test_dtrw_two_node_alternation():
    g = graph_from_edges([("a", "b")])
    p0 = delta_distribution(2, 0)
    assert np.allclose(dtrw_evolve(g, p0, 1), [0.0, 1.0], atol=1e-15)
    assert np.allclose(dtrw_evolve(g, p0, 2), [1.0, 0.0], atol=1e-15)
    assert np.allclose(dtrw_evolve(g, p0, 7), [0.0, 1.0], atol=1e-15)


def test_dtrw_path_split():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    p1 = dtrw_evolve(g, delta_distribution(3, 1), 1)
    assert np.allclose(p1, [0.5, 0.0, 0.5], atol=1e-15)


def test_dtrw_conserves_probability():
    rng = np.random.default_rng(44)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 25)))
        p0 = rng.random(g.n)
        p0 /= p0.sum()
        p = dtrw_evolve(g, p0, int(rng.integers(0, 30)))
        assert abs(p.sum() - 1.0) < 1e-12
        assert p.min() >= 0.0


def test_dtrw_zero_steps_identity_and_validation():
    g = graph_from_edges([("a", "b")])
    p0 = np.array([0.3, 0.7])
    assert np.array_equal(dtrw_evolve(g, p0, 0), p0)
    with pytest.raises(ValueError, match=">= 0"):
        dtrw_evolve(g, p0, -1)
    shape = r"^probability states must form a vector or a 2-d block, got shape \(2, 1, 1\)$"
    with pytest.raises(ValueError, match=shape):
        dtrw_evolve(g, p0.reshape(2, 1, 1), 1)


def test_dtrw_transition_profile_matches_matrix_power():
    rng = np.random.default_rng(45)
    g = random_connected_graph(rng, 12)
    for steps in (0, 1, 3, 6):
        ref = dtrw_oracle(g, delta_distribution(g.n, 2), steps)
        got = dtrw_transition_profile(g, 2, steps)
        assert np.max(np.abs(got - ref)) < 1e-12


def graph_with_dangling_and_isolated(rng, n):
    """Directed random graph; its last two nodes have no edges at all, and
    every node ``j`` with ``j % 5 == 0`` has no outgoing edge."""
    labels = [f"v{j}" for j in range(n)]
    edges = [
        (labels[j], labels[k])
        for j, k in rng.integers(0, n - 2, size=(3 * n, 2))
        if j != k and j % 5
    ]
    return graph_from_edges(edges, directed=True, nodes=labels)


@pytest.mark.parametrize("k", [1, 6])
def test_dtrw_block_columns_match_vector_walks(k):
    rng = np.random.default_rng(47)
    g = graph_with_dangling_and_isolated(rng, 30)
    block = rng.random((g.n, k)) * (rng.random((g.n, k)) < 0.5)
    block[g.n - 1, 0] = 1.0  # mass on an isolated node
    block /= block.sum(axis=0)
    for steps in (0, 1, 5):
        got = dtrw_evolve(g, block, steps)
        assert got.shape == (g.n, k) and got.dtype == np.float64
        for j in range(k):
            assert np.array_equal(got[:, j], dtrw_evolve(g, block[:, j], steps))
    assert dtrw_evolve(g, block, 5)[g.n - 1, 0] == block[g.n - 1, 0]


def test_dtrw_block_names_the_bad_column():
    g = graph_with_dangling_and_isolated(np.random.default_rng(48), 12)
    block = np.full((g.n, 3), 1.0 / g.n)
    negative = block.copy()
    negative[:2, 1] = [-0.5, 0.5 + 1.0 / g.n]
    with pytest.raises(ValueError, match="column 1 has negative entry"):
        dtrw_evolve(g, negative, 2)
    heavy = block.copy()
    heavy[:, 2] *= 2.0
    with pytest.raises(ValueError, match="column 2 sums to"):
        dtrw_evolve(g, heavy, 2)
    with pytest.raises(ValueError, match="length"):
        dtrw_evolve(g, block[1:], 2)


def test_dtrw_dangling_node_absorbs():
    g = load_edge_list("a\tb", directed=True)
    p = dtrw_evolve(g, delta_distribution(2, 0), 10)
    assert np.allclose(p, [0.0, 1.0], atol=1e-15)


# ---------------------------------------------------------------------------
# definition oracles, on graphs with dangling and isolated nodes
# ---------------------------------------------------------------------------


def oracle_cases():
    """Undirected graphs with two isolated nodes and directed graphs with
    sinks and isolated nodes, each with a restart distribution that has
    zeros and puts mass on dangling nodes."""
    rng = np.random.default_rng(49)
    for n in (6, 17, 40):
        labels = [f"v{j}" for j in range(n)]
        edges = [(labels[j], labels[j + 1]) for j in range(n - 3)]
        edges += [(labels[j], labels[k]) for j, k in rng.integers(0, n - 2, size=(n, 2)) if j != k]
        for g in (graph_from_edges(edges, nodes=labels), graph_with_dangling_and_isolated(rng, n)):
            p0 = rng.random(g.n) * (rng.random(g.n) < 0.6)
            p0[[0, g.n - 1]] += 0.5
            yield g, p0 / p0.sum()


def test_rwr_matches_the_dense_restart_oracle():
    for g, p0 in oracle_cases():
        for alpha in (0.3, 0.85):
            got = rwr_steady_state(g, p0, alpha)
            assert np.max(np.abs(got - rwr_oracle(g, p0, alpha))) < 1e-11


def test_rwr_iterate_matches_the_truncated_series():
    for g, p0 in oracle_cases():
        for n_iter in (0, 1, 4, 9):
            got = rwr_iterate(g, p0, 0.85, n_iter)
            assert np.max(np.abs(got - rwr_iterate_oracle(g, p0, 0.85, n_iter))) < 1e-14


def test_dtrw_matches_the_holding_matrix_power():
    rng = np.random.default_rng(50)
    for g, p0 in oracle_cases():
        block = np.column_stack([p0, rng.dirichlet(np.ones(g.n), size=3).T])
        for steps in (0, 1, 5, 12):
            for start in (p0, block):
                got = dtrw_evolve(g, start, steps)
                assert np.max(np.abs(got - dtrw_oracle(g, start, steps))) < 1e-14


def _traced_peak(walk) -> int:
    tracemalloc.start()
    try:
        walk()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rwr_dangling_mass_takes_no_copies_of_the_restart_vector():
    # a 3,000-node path plus 1,000 isolated nodes, with a uniform p0: a
    # matrix holding p0 in each dangling column has 4 million entries
    labels = [f"v{j}" for j in range(4000)]
    g = graph_from_edges(zip(labels[:2999], labels[1:3000]), nodes=labels)
    p0 = np.full(g.n, 1 / g.n)
    assert _traced_peak(lambda: rwr_steady_state(g, p0, 0.85)) < 8e6
    assert _traced_peak(lambda: rwr_iterate(g, p0, 0.85, 5)) < 8e6
    # a 2,000-node graph takes no n x n array (one would hold 32 MB)
    small = graph_from_edges(zip(labels[:1499], labels[1:1500]), nodes=labels[:2000])
    q0 = np.full(small.n, 1 / small.n)
    assert _traced_peak(lambda: rwr_steady_state(small, q0, 0.85)) < 1e6


# ---------------------------------------------------------------------------
# continuous-time diffusion
# ---------------------------------------------------------------------------


def test_ctrw_two_node_closed_form():
    g = graph_from_edges([("a", "b")])
    for t in (0.0, 0.3, 1.0, 4.0):
        p = ctrw_evolve(g, delta_distribution(2, 0), t)
        expected = np.array([(1 + np.exp(-2 * t)) / 2, (1 - np.exp(-2 * t)) / 2])
        assert np.max(np.abs(p - expected)) < 1e-12


def test_ctrw_matches_dense_oracle():
    rng = np.random.default_rng(46)
    from netqwalk.graphs import laplacian

    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(3, 18)))
        p0 = rng.random(g.n)
        p0 /= p0.sum()
        t = float(rng.uniform(0.0, 3.0))
        got = ctrw_evolve(g, p0, t)
        ref = (scipy.linalg.expm(-t * laplacian(g).toarray()) @ p0).real
        assert np.max(np.abs(got - ref)) < 1e-10


def test_ctrw_uniform_limit_on_connected_graph():
    rng = np.random.default_rng(47)
    g = random_connected_graph(rng, 10)
    p = ctrw_evolve(g, delta_distribution(g.n, 0), 200.0)
    assert np.max(np.abs(p - 1.0 / g.n)) < 1e-9


def assert_ctrw_sweep_matches_the_oracle(grid, tol):
    g = weighted_graph_with_isolated_node()
    p0 = np.zeros(g.n)
    p0[[0, 2, 5, g.n - 1]] = (0.3, 0.1, 0.2, 0.4)
    for t, p in zip(grid, ctrw_sweep(g, p0, grid, None), strict=True):
        assert np.max(np.abs(p - ctrw_oracle(g, p0, t))) < tol, t


@pytest.mark.parametrize("kernel, tol", [("dense", 1e-12), ("lanczos", 1e-10)])
def test_ctrw_sweep_matches_the_dense_definition_oracle(kernel, tol, expm_kernel):
    expm_kernel(kernel)
    assert_ctrw_sweep_matches_the_oracle([0.25 * i for i in range(13)], tol)


@pytest.mark.parametrize("kernel, tol", [("dense", 1e-12), ("lanczos", 1e-10)])
def test_a_ctrw_sweep_in_blocks_of_three_times_matches_the_oracle(
    kernel, tol, expm_kernel, monkeypatch
):
    # each block starts from the last row of the block before it
    expm_kernel(kernel)
    n = weighted_graph_with_isolated_node().n
    monkeypatch.setattr(expm, "_BLOCK_BYTES", 16 * n * 3)
    grid = [0.25 * i for i in range(17)]
    assert [b.size for b in expm.time_blocks(grid, n)] == [3, 3, 3, 3, 3, 2]
    assert_ctrw_sweep_matches_the_oracle(grid, tol)
