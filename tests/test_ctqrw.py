"""Tests for the continuous-time quantum walk layer.

Closed-form oracles: the single edge gives transfer probability
``sin(t)**2`` (Rabi oscillation between two sites), the triangle gives
``(4/9) * sin(3t/2)**2`` from the complete-graph spectrum ``{n-1, -1}``,
and collapse of ``(sqrt(.8), sqrt(.2))`` gives ``(.8, .2)/sqrt(.68)``.
"""

import hashlib
import math
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_strategies import small_graphs
from netqwalk.ctqrw import (
    HAMILTONIAN_KINDS,
    CollapseSchedule,
    _check_drift,
    build_hamiltonian,
    collapse,
    evolve,
    evolve_with_collapses,
    initial_state_from_scores,
    measure,
    random_chiral_phases,
    sweep,
    transition_probability,
    transition_rate,
    uniform_chiral_phases,
)
from netqwalk import expm
from netqwalk.expm import ConvergenceError
from netqwalk.graphs import (
    graph_from_edges,
    greatest_component,
    load_edge_list,
    read_edge_list,
)
from netqwalk.metrics import TIE_ATOL, TIE_RTOL, rank_by_probability
from netqwalk.states import delta_distribution
from walk_oracles import (
    ctqrw_oracle,
    hamiltonian,
    random_graph,
    weighted_graph_with_isolated_node,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def k2():
    return graph_from_edges([("a", "b")])


def triangle():
    return graph_from_edges([("a", "b"), ("b", "c"), ("c", "a")])


def unit_state(n, i):
    psi = np.zeros(n, dtype=np.complex128)
    psi[i] = 1.0
    return psi


# ---------------------------------------------------------------------------
# Hamiltonian construction
# ---------------------------------------------------------------------------


def test_kind_and_phases_validation():
    g = triangle()
    with pytest.raises(ValueError, match="kind"):
        build_hamiltonian(g, "magnetic")
    with pytest.raises(ValueError, match="only meaningful"):
        build_hamiltonian(g, "adjacency", uniform_chiral_phases(g, 0.3))
    with pytest.raises(ValueError, match="only meaningful"):
        build_hamiltonian(g, "laplacian", uniform_chiral_phases(g, 0.3))
    with pytest.raises(ValueError, match="one phase per edge"):
        build_hamiltonian(g, "chiral")


def test_adjacency_hamiltonian_matches_matrix():
    g = triangle()
    h = build_hamiltonian(g, "adjacency")
    expected = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.complex128)
    assert np.array_equal(h.matrix.toarray(), expected)


def test_laplacian_hamiltonian_matches_matrix():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    h = build_hamiltonian(g, "laplacian")
    expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 2 - 1]], dtype=np.complex128)
    expected[2, 2] = 1
    assert np.array_equal(h.matrix.toarray(), expected)


def test_non_chiral_kinds_reject_directed_graphs():
    g = load_edge_list("a\tb\nb\tc", directed=True)
    with pytest.raises(ValueError, match="undirected"):
        build_hamiltonian(g, "adjacency")
    with pytest.raises(ValueError, match="undirected"):
        build_hamiltonian(g, "laplacian")


def test_chiral_entries_carry_the_phase():
    g = graph_from_edges([("a", "b", 2.0), ("b", "c"), ("a", "c", 0.5), ("c", "d")])
    phases = np.array([0.7, -1.3, 2.9, 0.1])
    m = build_hamiltonian(g, "chiral", phases).matrix.toarray()
    assert np.count_nonzero(m) == 2 * g.edge_count
    for (j, k), w, phi in zip(g.edges, g.weights, phases):
        assert m[j, k] == w * np.exp(1j * phi)
        assert m[k, j] == np.conj(m[j, k])
    # negating every angle conjugates each pair, i.e. reverses the circulation
    m_neg = build_hamiltonian(g, "chiral", -phases).matrix.toarray()
    assert np.max(np.abs(m_neg - m.conj())) < 1e-15


def test_chiral_preserves_weight_modulus():
    g = graph_from_edges([("a", "b", 2.5), ("b", "c", 0.5)])
    h = build_hamiltonian(g, "chiral", uniform_chiral_phases(g, 1.1))
    m = np.abs(h.matrix.toarray())
    assert abs(m[0, 1] - 2.5) < 1e-12
    assert abs(m[1, 2] - 0.5) < 1e-12


def test_chiral_phase_errors():
    g = triangle()
    for bad in (np.zeros(2), np.zeros(4), np.zeros((3, 1)), 0.3):
        with pytest.raises(ValueError, match="expected 3 phases"):
            build_hamiltonian(g, "chiral", bad)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="phases must be finite"):
            build_hamiltonian(g, "chiral", np.array([0.1, value, 0.2]))


def test_chiral_antiparallel_directed_edges_sum():
    # a directed graph may store both (0, 1) and (1, 0); their phased
    # terms add in H[0, 1], and H stays Hermitian
    g = load_edge_list("a\tb\t2\nb\ta\t0.5\nb\tc", directed=True)
    phases = np.array([0.4, 1.1, -0.6])
    order = {(int(j), int(k)): e for e, (j, k) in enumerate(g.edges)}
    h = build_hamiltonian(g, "chiral", phases).matrix.toarray()
    w = g.weights
    e01, e10, e12 = order[(0, 1)], order[(1, 0)], order[(1, 2)]
    expected01 = w[e01] * np.exp(1j * phases[e01]) + w[e10] * np.exp(-1j * phases[e10])
    assert abs(h[0, 1] - expected01) < 1e-15
    assert h[1, 0] == np.conj(h[0, 1])
    assert h[1, 2] == np.exp(1j * phases[e12])
    assert np.array_equal(h, h.conj().T)


def test_fixture_chiral_hamiltonian_is_pinned():
    # sha256 of the CSR arrays that the prioritization pipeline builds for
    # the fixture's greatest component at rng seed 0, recorded with the
    # earlier node-pair phase-map construction; the edge-array build must
    # reproduce it bit for bit
    gc = greatest_component(read_edge_list(DATA / "synthetic_ppi.tsv"))
    m = build_hamiltonian(gc, "chiral", random_chiral_phases(gc, 0)).matrix
    digest = hashlib.sha256()
    for a, dtype in ((m.indptr, "<i8"), (m.indices, "<i8"), (m.data, "<c16")):
        digest.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    assert digest.hexdigest() == (
        "d3baed8badc8e866920c9bb5ef77c0b51029f3adafc1395ddf0c240e759d2c21"
    )


def test_random_chiral_phases_cover_all_edges_and_are_reproducible():
    g = triangle()
    s1 = random_chiral_phases(g, 123)
    s2 = random_chiral_phases(g, 123)
    assert np.array_equal(s1, s2)
    assert s1.shape == (g.edge_count,)
    assert np.all((0.0 <= s1) & (s1 < 2.0 * np.pi))
    assert np.array_equal(s1, np.random.default_rng(123).uniform(0.0, 2.0 * np.pi, 3))
    h = build_hamiltonian(g, "chiral", s1)
    assert h.n == 3


def test_zero_phase_chiral_equals_adjacency():
    g = triangle()
    ha = build_hamiltonian(g, "adjacency")
    hc = build_hamiltonian(g, "chiral", uniform_chiral_phases(g, 0.0))
    assert np.max(np.abs(ha.matrix.toarray() - hc.matrix.toarray())) < 1e-15


# ---------------------------------------------------------------------------
# closed-form evolutions
# ---------------------------------------------------------------------------


def test_two_node_rabi_oscillation():
    h = build_hamiltonian(k2(), "adjacency")
    for t in np.linspace(0.0, 6.0, 25):
        p01 = transition_probability(h, 1, 0, float(t))
        assert abs(p01 - np.sin(t) ** 2) < 1e-12
        p00 = transition_probability(h, 0, 0, float(t))
        assert abs(p00 - np.cos(t) ** 2) < 1e-12


def test_triangle_transfer_probability():
    h = build_hamiltonian(triangle(), "adjacency")
    for t in np.linspace(0.0, 5.0, 21):
        expected = (4.0 / 9.0) * np.sin(1.5 * t) ** 2
        assert abs(transition_probability(h, 1, 0, float(t)) - expected) < 1e-12


def test_laplacian_and_adjacency_agree_on_regular_graphs():
    # on a d-regular graph L = dI - A, so the propagators differ by a
    # global phase and all transition probabilities coincide
    g = graph_from_edges(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    )  # 4-cycle, 2-regular
    ha = build_hamiltonian(g, "adjacency")
    hl = build_hamiltonian(g, "laplacian")
    for t in (0.4, 1.3, 2.9):
        for dest in range(4):
            pa = transition_probability(ha, dest, 0, t)
            pl = transition_probability(hl, dest, 0, t)
            assert abs(pa - pl) < 1e-11


def test_unitarity_random_loop():
    rng = np.random.default_rng(50)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(2, 20)))
        kind = ("adjacency", "laplacian", "chiral")[int(rng.integers(0, 3))]
        if kind == "chiral":
            phases = random_chiral_phases(g, int(rng.integers(0, 10_000)))
        else:
            phases = None
        h = build_hamiltonian(g, kind, phases)
        psi0 = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        psi0 /= np.linalg.norm(psi0)
        psi = evolve(h, psi0, float(rng.uniform(0.0, 8.0)))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_real_hamiltonian_transition_symmetry():
    # for real H the propagator is complex symmetric, so P(j<-k) = P(k<-j)
    rng = np.random.default_rng(51)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(3, 15)))
        kind = ("adjacency", "laplacian")[int(rng.integers(0, 2))]
        h = build_hamiltonian(g, kind)
        j, k = rng.integers(0, g.n, size=2)
        t = float(rng.uniform(0.1, 5.0))
        fwd = transition_probability(h, int(j), int(k), t)
        bwd = transition_probability(h, int(k), int(j), t)
        assert abs(fwd - bwd) < 1e-12


def test_chiral_cycle_breaks_transition_symmetry():
    # a quarter-turn phase on each arc of the 3-cycle makes transport
    # direction dependent; a real Hamiltonian could never do this
    g = triangle()
    h = build_hamiltonian(g, "chiral", uniform_chiral_phases(g, np.pi / 2.0))
    asym = max(
        abs(
            transition_probability(h, 1, 0, t)
            - transition_probability(h, 0, 1, t)
        )
        for t in np.arange(0.05, 5.0, 0.05)
    )
    assert asym > 0.05


def test_transition_probabilities_sum_to_one():
    rng = np.random.default_rng(52)
    g = random_graph(rng, 9)
    h = build_hamiltonian(g, "chiral", random_chiral_phases(g, 7))
    total = sum(transition_probability(h, j, 4, 1.7) for j in range(g.n))
    assert abs(total - 1.0) < 1e-10


def test_transition_probability_at_zero_time():
    h = build_hamiltonian(triangle(), "adjacency")
    assert transition_probability(h, 0, 0, 0.0) == 1.0
    assert transition_probability(h, 1, 0, 0.0) == 0.0


def test_the_transition_helpers_take_one_time():
    h = build_hamiltonian(triangle(), "adjacency")
    for helper in (transition_probability, transition_rate):
        with pytest.raises(ValueError, match=r"t must be one time, got an array of shape \(2,\)"):
            helper(h, 0, 1, np.array([1.0, 2.0]))
    assert transition_probability(h, 0, 1, np.float64(1.0)) == transition_probability(h, 0, 1, 1.0)


# ---------------------------------------------------------------------------
# transition rate
# ---------------------------------------------------------------------------


def test_rate_matches_centered_difference():
    rng = np.random.default_rng(53)
    hstep = 1e-5
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(3, 12)))
        kinds = ("adjacency", "laplacian", "chiral")
        kind = kinds[int(rng.integers(0, 3))]
        if kind == "chiral":
            phases = random_chiral_phases(g, int(rng.integers(0, 1000)))
        else:
            phases = None
        h = build_hamiltonian(g, kind, phases)
        j, k = (int(x) for x in rng.integers(0, g.n, size=2))
        t = float(rng.uniform(0.2, 4.0))
        rate = transition_rate(h, j, k, t)
        numeric = (
            transition_probability(h, j, k, t + hstep)
            - transition_probability(h, j, k, t - hstep)
        ) / (2 * hstep)
        assert abs(rate - numeric) < 1e-6


def test_rate_two_node_closed_form():
    # d/dt sin^2(t) = sin(2t)
    h = build_hamiltonian(k2(), "adjacency")
    for t in (0.0, 0.4, 1.1, 2.8):
        assert abs(transition_rate(h, 1, 0, t) - np.sin(2 * t)) < 1e-10


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------


def test_collapse_hand_oracle():
    psi = np.array([np.sqrt(0.8), np.sqrt(0.2)], dtype=np.complex128)
    out = collapse(psi)
    expected = np.array([0.8, 0.2]) / np.sqrt(0.8**2 + 0.2**2)
    assert np.max(np.abs(out - expected)) < 1e-15
    assert abs(np.linalg.norm(out) - 1.0) < 1e-15


def test_collapse_discards_phases():
    psi = np.array([0.6 * np.exp(2.1j), 0.8 * np.exp(-0.4j)], dtype=np.complex128)
    out = collapse(psi)
    assert np.max(np.abs(out.imag)) == 0.0
    ref = collapse(np.array([0.6, 0.8]))
    assert np.max(np.abs(out - ref)) < 1e-15


def test_collapse_validation():
    with pytest.raises(ValueError, match="zero state"):
        collapse(np.zeros(3))
    # a NaN or an infinite amplitude gave a NaN state (inf / inf), not an error
    for bad in ([np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="non-finite"):
            collapse(np.array(bad))


def test_schedule_validation():
    CollapseSchedule((0.5, 1.0, 2.0))
    with pytest.raises(ValueError, match="positive"):
        CollapseSchedule((0.0, 1.0))
    with pytest.raises(ValueError, match="increasing"):
        CollapseSchedule((1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        CollapseSchedule((1.0, np.inf))
    with pytest.raises(ValueError, match="inside"):
        CollapseSchedule((1.0, 2.0)).validate_horizon(2.0)
    CollapseSchedule((1.0,)).validate_horizon(2.0)


def test_empty_schedule_reduces_to_plain_evolution():
    rng = np.random.default_rng(54)
    g = random_graph(rng, 8)
    h = build_hamiltonian(g, "adjacency")
    psi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi0 /= np.linalg.norm(psi0)
    a = evolve_with_collapses(h, psi0, 2.3)
    b = evolve(h, psi0, 2.3)
    assert np.array_equal(a, b)


def test_collapse_schedule_matches_manual_composition():
    rng = np.random.default_rng(55)
    g = random_graph(rng, 10)
    h = build_hamiltonian(g, "adjacency")
    psi0 = unit_state(10, 2)
    auto = evolve_with_collapses(h, psi0, 3.0, schedule=(1.0, 2.2))
    manual = evolve(h, psi0, 1.0)
    manual = collapse(manual)
    manual = evolve(h, manual, 1.2)
    manual = collapse(manual)
    manual = evolve(h, manual, 0.8)
    assert np.max(np.abs(auto - manual)) < 1e-12


def test_collapse_suppresses_return_interference():
    # on the 2-node graph a collapse at t = pi/4 freezes the distribution
    # at (1/2, 1/2) amplitudes; the collapsed state sqrt of that evolves
    # differently from the coherent one
    h = build_hamiltonian(k2(), "adjacency")
    psi0 = unit_state(2, 0)
    coherent = measure(evolve(h, psi0, np.pi / 2))
    collapsed = measure(evolve_with_collapses(h, psi0, np.pi / 2, schedule=(np.pi / 4,)))
    # coherent evolution returns all mass to the far node at t = pi/2
    assert abs(coherent[1] - 1.0) < 1e-12
    assert collapsed[1] < 0.999


def test_evolve_with_collapses_validation():
    h = build_hamiltonian(k2(), "adjacency")
    psi0 = unit_state(2, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        evolve_with_collapses(h, psi0, -1.0)
    with pytest.raises(ValueError, match="inside"):
        evolve_with_collapses(h, psi0, 1.0, schedule=(1.0,))


def test_a_string_of_collapse_times_is_a_value_error():
    # the schedule read "12" as the collapse times (1.0, 2.0), one per character
    with pytest.raises(ValueError, match="collapse times must be a sequence, not the string '12'"):
        CollapseSchedule("12")
    with pytest.raises(ValueError, match="collapse times .* '12'"):
        evolve_with_collapses(build_hamiltonian(k2(), "adjacency"), unit_state(2, 0), 3.0, "12")


# ---------------------------------------------------------------------------
# measurement, ranking, score states
# ---------------------------------------------------------------------------


def test_measure_basic_and_validation():
    p = measure(np.array([0.6, 0.8j]))
    assert np.max(np.abs(p - np.array([0.36, 0.64]))) < 1e-15
    assert not p.flags.writeable
    with pytest.raises(ValueError, match="not normalized"):
        measure(np.array([1.0, 1.0]))
    # a NaN sum passed the old test `abs(total - 1) > 1e-8` and gave NaN probabilities
    with pytest.raises(ValueError, match="not normalized and finite: .* sum to nan"):
        measure(np.array([np.nan, 1.0]))


def test_initial_state_from_scores():
    psi = initial_state_from_scores([3.0, 0.0, 4.0])
    assert np.max(np.abs(psi - np.array([0.6, 0.0, 0.8]))) < 1e-15
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
    with pytest.raises(ValueError, match="nonempty"):
        initial_state_from_scores([])
    with pytest.raises(ValueError, match="nonnegative"):
        initial_state_from_scores([1.0, -0.5])
    with pytest.raises(ValueError, match="positive"):
        initial_state_from_scores([0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        initial_state_from_scores([1.0, np.nan])


def test_rank_by_probability_orders_and_breaks_ties_by_index():
    r = rank_by_probability(np.array([0.2, 0.5, 0.2, 0.1]))
    assert r.items == (1, 0, 2, 3)
    assert np.array_equal(r.scores, np.array([0.5, 0.2, 0.2, 0.1]))


def test_rank_by_probability_ties_survive_rounding_noise():
    # four tie groups, members interleaved by index; one group sits near
    # 1e-13, where 1e-15 noise is a large relative perturbation
    p = np.array([0.1, 0.3, 1e-13, 0.1, 0.3, 0.0, 1e-13, 0.1, 0.3, 1e-13, 0.0, 0.1])
    expected = (1, 4, 8, 0, 3, 7, 11, 2, 6, 9, 5, 10)
    assert rank_by_probability(p).items == expected
    rng = np.random.default_rng(7)
    for _ in range(20):
        noisy = p + rng.uniform(-1e-15, 1e-15, p.shape)
        r = rank_by_probability(noisy)
        assert r.items == expected
        assert np.all(np.diff(r.scores) <= 0)
        # every member of a group carries the group's largest value
        assert r.scores[0] == r.scores[2] == noisy[[1, 4, 8]].max()


def test_rank_by_probability_real_gaps_still_rank_by_value():
    p = 0.2 * np.array([1.0, 1.0 + 1e-9, 1.0 - 1e-9])
    r = rank_by_probability(p)
    assert r.items == (1, 0, 2)
    assert np.array_equal(r.scores, p[[1, 0, 2]])


def test_rank_by_probability_tie_groups_chain_without_width_bound():
    # each consecutive gap is just inside the tolerance, so all 50 values
    # form one group although its ends lie far more than a tolerance apart
    values = [0.5]
    for _ in range(49):
        values.append(values[-1] - 0.9 * (TIE_RTOL * values[-1] + TIE_ATOL))
    order = np.random.default_rng(3).permutation(50)
    p = np.empty(50)
    p[order] = values
    assert values[0] - values[-1] > 20 * (TIE_RTOL * values[0] + TIE_ATOL)
    r = rank_by_probability(np.append(p, 0.4))
    assert r.items == tuple(range(50)) + (50,)
    assert np.array_equal(r.scores, np.append(np.full(50, 0.5), 0.4))


def test_rank_by_probability_labels_and_exclusions():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    labels = ("a", "b", "c", "d")
    r = rank_by_probability(p, labels=labels, exclude=("a", 2))
    assert r.items == ("b", "d")
    with pytest.raises(ValueError, match="labels"):
        rank_by_probability(p, exclude=("a",))
    with pytest.raises(ValueError, match="label per probability"):
        rank_by_probability(p, labels=("a", "b"))


def test_delocalization_on_path_graph():
    # sanity: mass actually leaves the source on a path of 5 nodes
    g = graph_from_edges([(f"v{j}", f"v{j + 1}") for j in range(4)])
    h = build_hamiltonian(g, "adjacency")
    p = measure(evolve(h, unit_state(5, 0), 1.5))
    assert p[0] < 0.8
    assert abs(p.sum() - 1.0) < 1e-12


def test_check_drift_renormalizes_small_drift_and_rejects_large():
    # drift up to 1e-12 passes untouched, up to 1e-8 is renormalized away
    exact = unit_state(3, 1)
    assert _check_drift(exact) is exact
    for drift in (1e-10, -1e-10, 5e-9):
        psi = exact * (1.0 + drift)
        out = _check_drift(psi)
        assert np.array_equal(out, psi / np.linalg.norm(psi))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-15
    for drift in (2e-8, -1e-7, 1e-3):
        with pytest.raises(ConvergenceError, match="unitarity"):
            _check_drift(exact * (1.0 + drift))


# ---------------------------------------------------------------------------
# definition oracle: dense H, scipy's expm, the collapses replayed
# ---------------------------------------------------------------------------


def directed_weighted_graph():
    """Directed graph with an antiparallel pair, a 3-cycle and a source node."""
    pairs = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 0), (2, 5), (6, 4)]
    weights = np.random.default_rng(52).uniform(0.5, 2.0, len(pairs))
    labels = [f"u{j}" for j in range(7)]
    edges = [(labels[j], labels[k], w) for (j, k), w in zip(pairs, weights)]
    return graph_from_edges(edges, directed=True, nodes=labels)


def assert_sweep_matches_the_oracle(grid, collapses, tol):
    undirected = weighted_graph_with_isolated_node()
    for g, kind in (
        (undirected, "adjacency"),
        (undirected, "laplacian"),
        (undirected, "chiral"),
        (directed_weighted_graph(), "chiral"),
    ):
        p0 = np.zeros(g.n)
        p0[[0, 2, 5, g.n - 1]] = (0.3, 0.1, 0.2, 0.4)
        config = SimpleNamespace(hamiltonian=kind, rng_seed=5, collapse_times=collapses)
        phases = random_chiral_phases(g, 5) if kind == "chiral" else None
        h = hamiltonian(g, kind, phases)
        for t, p in zip(grid, sweep(g, p0, grid, config), strict=True):
            assert np.max(np.abs(p - ctqrw_oracle(h, p0, t, collapses))) < tol, (kind, t)


@pytest.mark.parametrize("kernel, tol", [("dense", 1e-12), ("lanczos", 1e-10)])
def test_sweep_matches_the_dense_definition_oracle(kernel, tol, expm_kernel):
    # collapses at 0.6 and at 1.5, which is also a grid point: a point at a
    # collapse time is measured before that collapse
    expm_kernel(kernel)
    assert_sweep_matches_the_oracle([0.25 * i for i in range(13)], (0.6, 1.5), tol)


@pytest.mark.parametrize("kernel, tol", [("dense", 1e-12), ("lanczos", 1e-10)])
def test_a_sweep_in_blocks_of_three_times_matches_the_oracle(
    kernel, tol, expm_kernel, monkeypatch
):
    # each block starts from the last row of the block before it, and each
    # collapse from the last grid time at or before it.  The collapse at 0.5
    # is on the grid time that closes a full block; 0.6 and 0.65 fall in one
    # grid gap and leave an empty segment between them; 1.6 falls between
    # two grid times, after a segment of two blocks; 2.0 is on the grid time
    # that closes a block of two; the last segment runs through three blocks
    expm_kernel(kernel)
    n = weighted_graph_with_isolated_node().n
    monkeypatch.setattr(expm, "_BLOCK_BYTES", 16 * n * 3)
    grid = [0.25 * i for i in range(17)]
    assert [b.size for b in expm.time_blocks(grid, n)] == [3, 3, 3, 3, 3, 2]
    assert [b.size for b in expm.time_blocks(grid, directed_weighted_graph().n)][0] == 3
    assert_sweep_matches_the_oracle(grid, (0.5, 0.6, 0.65, 1.6, 2.0), tol)


# ---------------------------------------------------------------------------
# property tests on drawn small graphs: evolve, one row per time, and the
# collapses against scipy's expm of the dense Hamiltonian
# ---------------------------------------------------------------------------

#: ``expm.DENSE_LIMIT`` that sends every action to the kernel of that name
#: (the ``expm_kernel`` fixture is function-scoped, so ``@given`` cannot take it).
KERNEL_LIMITS = {"dense": math.inf, "lanczos": 0}


def drawn_walk(data, kind):
    """The walk Hamiltonian of ``kind`` on a drawn nonempty graph (undirected
    unless chiral), its dense oracle and a random unit complex start state."""
    graphs = small_graphs().filter(lambda g: g.n and (kind == "chiral" or not g.directed))
    g = data.draw(graphs, label="graph")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    phases = random_chiral_phases(g, seed) if kind == "chiral" else None
    rng = np.random.default_rng(seed)
    psi0 = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    return build_hamiltonian(g, kind, phases), hamiltonian(g, kind, phases), psi0 / np.linalg.norm(psi0)


@pytest.mark.parametrize("kernel, tol", [("dense", 1e-14), ("lanczos", 1e-10)])
@pytest.mark.parametrize("kind", HAMILTONIAN_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_evolve_gives_one_unit_row_per_time(kernel, tol, kind, data):
    # an array of times used to raise ConvergenceError: one norm over all rows
    h, dense, psi0 = drawn_walk(data, kind)
    times = data.draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5).map(sorted))
    with mock.patch.object(expm, "DENSE_LIMIT", KERNEL_LIMITS[kernel]):
        rows = evolve(h, psi0, np.array(times))
        alone = [evolve(h, psi0, t) for t in times]
    assert rows.shape == (len(times), h.n)
    for t, row, single in zip(times, rows, alone):
        assert np.max(np.abs(row - scipy.linalg.expm(-1j * t * dense) @ psi0)) < 1e-10, t
        assert abs(np.linalg.norm(row) - 1.0) < 1e-10, t
        assert np.max(np.abs(row - single)) < tol, t


@pytest.mark.parametrize("kernel", KERNEL_LIMITS)
@pytest.mark.parametrize("kind", HAMILTONIAN_KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_evolve_with_collapses_matches_the_collapse_oracle(kernel, kind, data):
    # one or two collapses, then one or more final times after the last of them
    h, dense, psi0 = drawn_walk(data, kind)
    times = data.draw(st.lists(st.floats(0.05, 3.0), min_size=2, max_size=5, unique=True).map(sorted))
    cut = data.draw(st.integers(1, min(2, len(times) - 1)), label="collapses")
    collapses, finals = times[:cut], np.array(times[cut:])
    with mock.patch.object(expm, "DENSE_LIMIT", KERNEL_LIMITS[kernel]):
        rows = evolve_with_collapses(h, psi0, finals, collapses)
    assert rows.shape == (finals.size, h.n)
    for t, row in zip(finals, rows):
        assert np.max(np.abs(measure(row) - ctqrw_oracle(dense, psi0, t, collapses))) < 1e-10, t
