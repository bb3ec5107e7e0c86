"""Tests for the matrix-exponential action kernels.

The independent oracle throughout is ``scipy.linalg.expm`` applied to the
full dense matrix; the library itself never forms the exponential, so
agreement is a genuine cross-check rather than a tautology.
"""

import inspect
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from netqwalk import classical, ctqrw, expm
from netqwalk.expm import (
    ConvergenceError,
    HermiticityError,
    SparseHermitian,
    as_hermitian,
    expm_action,
    real_expm_action,
)
from netqwalk.graphs import graph_from_edges, greatest_component, laplacian, read_edge_list
from traced_memory import traced_peak

DATA = Path(__file__).resolve().parent.parent / "data"


def random_hermitian(rng, n, density=0.4, real=False):
    """Random sparse Hermitian matrix with entries of order one."""
    mask = rng.random((n, n)) < density
    a = rng.standard_normal((n, n))
    if not real:
        a = a + 1j * rng.standard_normal((n, n))
    a = a * mask
    h = (a + a.conj().T) / 2.0
    return sp.csr_matrix(h)


def oracle_expm(h, v, scale):
    """Dense reference: expm(scale * H) @ v via scipy."""
    dense = np.asarray(h.toarray() if sp.issparse(h) else h)
    return scipy.linalg.expm(scale * dense) @ v


# ---------------------------------------------------------------------------
# SparseHermitian wrapper
# ---------------------------------------------------------------------------


def test_wrapper_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        SparseHermitian(sp.csr_matrix(np.ones((2, 3))))


def test_wrapper_rejects_non_finite():
    m = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        SparseHermitian(sp.csr_matrix(m))


def test_wrapper_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(HermiticityError):
        SparseHermitian(sp.csr_matrix(m))
    # complex case: H[j,k] must equal conj(H[k,j])
    m = np.array([[0.0, 1j], [1j, 0.0]])
    with pytest.raises(HermiticityError):
        SparseHermitian(sp.csr_matrix(m))


def test_wrapper_accepts_hermitian_and_reports_reality():
    rng = np.random.default_rng(7)
    hr = SparseHermitian(random_hermitian(rng, 6, real=True))
    hc = SparseHermitian(random_hermitian(rng, 6, real=False))
    assert hr.is_real
    assert not hc.is_real
    assert hr.n == 6


def test_wrapper_holds_a_real_matrix_as_float64():
    # a complex input whose imaginary parts are all zero is real
    for m in (np.eye(2, dtype=int), np.array([[0, 1], [1, 0]], dtype=complex)):
        assert SparseHermitian(sp.csr_matrix(m)).matrix.dtype == np.float64
    h = SparseHermitian(sp.csr_matrix(np.array([[0, 1j], [-1j, 0]])))
    assert h.matrix.dtype == np.complex128 and not h.is_real
    with pytest.raises(AttributeError):
        h.matrix = sp.csr_matrix(np.eye(2))


def test_wrapper_caches_eigendecomposition():
    rng = np.random.default_rng(8)
    op = SparseHermitian(random_hermitian(rng, 5))
    w1, v1 = op.eigendecomposition
    w2, v2 = op.eigendecomposition
    assert w1 is w2 and v1 is v2
    # and it actually diagonalizes the matrix
    rec = v1 @ np.diag(w1) @ v1.conj().T
    assert np.allclose(rec, op.matrix.toarray(), atol=1e-12)


def random_graph(rng, n, extra):
    """Connected undirected graph: a path plus ``extra`` random chords."""
    edges = [(f"v{j}", f"v{j + 1}") for j in range(n - 1)]
    for _ in range(extra):
        j, k = rng.integers(0, n, size=2)
        if j != k:
            edges.append((f"v{j}", f"v{k}"))
    return graph_from_edges(edges)


def test_real_generator_gives_real_orthogonal_eigenvectors():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 300, 900)
    for h in (
        ctqrw.build_hamiltonian(g, "adjacency"),
        as_hermitian(laplacian(g)),
    ):
        w, v = h.eigendecomposition
        assert w.dtype == np.float64 and v.dtype == np.float64
        assert np.abs(v.T @ v - np.eye(g.n)).max() < 1e-13
        dense = h.matrix.toarray().real
        assert np.abs(v @ np.diag(w) @ v.T - dense).max() < 1e-12


def test_chiral_generator_keeps_complex_eigenvectors():
    rng = np.random.default_rng(12)
    g = random_graph(rng, 60, 120)
    h = ctqrw.build_hamiltonian(g, "chiral", ctqrw.random_chiral_phases(g, 3))
    assert not h.is_real
    w, v = h.eigendecomposition
    assert w.dtype == np.float64 and v.dtype == np.complex128
    assert np.abs(v.conj().T @ v - np.eye(g.n)).max() < 1e-13
    assert np.abs(v @ np.diag(w) @ v.conj().T - h.matrix.toarray()).max() < 1e-12


@pytest.mark.parametrize(("hamiltonian", "itemsize", "bound"), [
    ("adjacency", 8, 4.0),
    ("chiral", 16, 3.5),
])
def test_the_eigendecomposition_holds_one_dense_matrix_at_its_peak(hamiltonian, itemsize, bound):
    # LAPACK writes V over the dense matrix and adds about 2n^2 entries of
    # workspace; a C-ordered input that ``eigh`` copies to Fortran order
    # first adds one more n x n array (4.75 and 4.01 n^2 entries here)
    g = random_graph(np.random.default_rng(13), 600, 1800)
    phases = ctqrw.random_chiral_phases(g, 3) if hamiltonian == "chiral" else None
    h = ctqrw.build_hamiltonian(g, hamiltonian, phases)
    (w, v), peak = traced_peak(lambda: h.eigendecomposition)
    assert v.itemsize == itemsize and v.flags.f_contiguous
    assert peak / (itemsize * g.n**2) < bound


@pytest.mark.parametrize("real_h", [True, False])
def test_dense_action_matches_expm_for_real_complex_and_strided_vectors(
    real_h, expm_kernel
):
    expm_kernel("dense")
    rng = np.random.default_rng(13)
    n = 40
    h = as_hermitian(random_hermitian(rng, n, density=0.2, real=real_h))
    assert h.is_real == real_h
    base = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    vectors = {
        "real": rng.standard_normal(n),
        "complex": base[:n].copy(),
        "strided complex": base[::2],
        "strided real": base.real[::2],
    }
    for t in (0.3, -1.1, 2.7):
        for name, v in vectors.items():
            got = expm_action(h, v, t)
            ref = oracle_expm(h.matrix, v, -1j * t)
            assert np.max(np.abs(got - ref)) < 1e-12, (name, t)


def test_dense_grid_norm_drift_stays_below_renormalisation():
    # nothing along a 101-point grid on a real graph should need renormalising
    rng = np.random.default_rng(15)
    g = random_graph(rng, 400, 1600)
    psi0 = np.zeros(g.n, dtype=np.complex128)
    psi0[rng.choice(g.n, size=12, replace=False)] = 1.0 / np.sqrt(12.0)
    for kind in ("adjacency", "laplacian"):
        h = ctqrw.build_hamiltonian(g, kind)
        drift = max(
            abs(np.linalg.norm(expm_action(h, psi0, 0.1 * i)) - 1.0) for i in range(101)
        )
        assert drift < ctqrw._DRIFT_RENORM, (kind, drift)


def test_norm_estimate_brackets_spectral_norm():
    rng = np.random.default_rng(9)
    for _ in range(10):
        op = SparseHermitian(random_hermitian(rng, 12))
        true = np.abs(scipy.linalg.eigvalsh(op.matrix.toarray())).max()
        est = op.norm_estimate
        # inflated power-iteration estimate: never badly below the truth
        assert est >= 0.9 * true
        assert est <= 2.0 * true + 1e-12


def test_as_hermitian_passthrough_preserves_cache():
    rng = np.random.default_rng(10)
    op = SparseHermitian(random_hermitian(rng, 4))
    assert as_hermitian(op) is op
    # matrix-like input gets wrapped
    assert isinstance(as_hermitian(np.eye(3)), SparseHermitian)


# ---------------------------------------------------------------------------
# expm_action (unitary propagator)
# ---------------------------------------------------------------------------


def test_dense_backend_matches_scipy_oracle(expm_kernel):
    expm_kernel("dense")
    rng = np.random.default_rng(20)
    for _ in range(25):
        n = int(rng.integers(2, 24))
        h = random_hermitian(rng, n, real=bool(rng.integers(0, 2)))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        t = float(rng.uniform(-3.0, 3.0))
        got = expm_action(h, v, t)
        ref = oracle_expm(h, v, -1j * t)
        assert np.max(np.abs(got - ref)) < 1e-10


def test_lanczos_backend_matches_scipy_oracle(expm_kernel):
    expm_kernel("lanczos", 1e-11)
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(8, 40))
        h = random_hermitian(rng, n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        t = float(rng.uniform(0.1, 5.0))
        got = expm_action(h, v, t)
        ref = oracle_expm(h, v, -1j * t)
        assert np.max(np.abs(got - ref)) < 1e-8


def test_backends_agree_with_each_other(expm_kernel):
    rng = np.random.default_rng(22)
    h = random_hermitian(rng, 30)
    v = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    v /= np.linalg.norm(v)
    expm_kernel("dense")
    a = expm_action(h, v, 2.5)
    expm_kernel("lanczos", 1e-12)
    b = expm_action(h, v, 2.5)
    assert np.max(np.abs(a - b)) < 1e-9


def test_zero_time_returns_exact_copy():
    rng = np.random.default_rng(23)
    h = random_hermitian(rng, 6)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    out = expm_action(h, v, 0.0)
    assert np.array_equal(out, v)  # bitwise, not merely close
    out[0] = 99.0  # must be a copy, not a view
    assert v[0] != 99.0


def test_zero_hamiltonian_returns_exact_copy():
    v = np.array([0.6, 0.8j], dtype=np.complex128)
    out = expm_action(sp.csr_matrix((2, 2)), v, 3.7)
    assert np.array_equal(out, v)


@pytest.mark.parametrize("kernel", ["dense", "lanczos"])
def test_an_array_of_times_gives_one_row_per_time(expm_kernel, kernel):
    # a dense block differs from the one-time actions only by the rounding of
    # one matrix product; a Lanczos block reads its times from shared bases, so
    # its rows are held to the kernel's 1e-10 against the dense oracle; rows at
    # t == 0 are the start state bitwise
    expm_kernel(kernel)
    rng = np.random.default_rng(29)
    times = np.array([0.0, 0.4, 1.3, 0.0, 2.5])
    g = graph_from_edges([(f"v{j}", f"v{(j + 1) % 9}") for j in range(9)] + [("v0", "v4")])
    p0 = rng.random(g.n)
    p0 /= p0.sum()

    def agrees(row, single, exact):
        if kernel == "dense":
            return np.max(np.abs(row - single)) < 1e-14
        return np.max(np.abs(row - exact)) < 1e-10

    for real in (True, False):
        h = as_hermitian(random_hermitian(rng, 16, real=real))
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        rows = expm_action(h, v, times)
        assert rows.shape == (5, 16)
        for row, t in zip(rows, times):
            assert agrees(row, expm_action(h, v, t), oracle_expm(h.matrix, v, -1j * t))
        assert np.array_equal(rows[0], v) and np.array_equal(rows[3], v)
    lap = laplacian(g)
    rows = real_expm_action(lap, p0, times)
    assert rows.shape == (5, g.n)
    for row, t in zip(rows, times):
        assert agrees(row, real_expm_action(lap, p0, t), oracle_expm(lap, p0, -t))
    assert np.array_equal(rows[0], p0) and np.array_equal(rows[3], p0)


def test_a_lanczos_block_takes_negative_unsorted_and_repeated_times(expm_kernel):
    # each sign is its own pass, and a horizon beyond two substeps puts
    # several times in one substep and leaves one substep with no time
    expm_kernel("lanczos")
    rng = np.random.default_rng(32)
    h = as_hermitian(random_hermitian(rng, 24))
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    horizon = 2.5 * expm.SPLIT_BOUND / h.norm_estimate
    times = np.array([-1.5, 0.7, 0.0, 3.0, -0.2, 0.7, horizon, -0.0, -horizon])
    rows = expm_action(h, v, times)
    for row, t in zip(rows, times):
        assert np.max(np.abs(row - oracle_expm(h.matrix, v, -1j * t))) < 1e-10, t
    assert all(np.array_equal(rows[i], v) for i in np.flatnonzero(times == 0))
    g = graph_from_edges([(f"v{j}", f"v{(j + 1) % 30}") for j in range(30)] + [("v0", "v15")])
    lap = laplacian(g)
    p0 = rng.random(g.n)
    p0 /= p0.sum()
    times = np.abs(times[::-1]) * 4.0
    rows = real_expm_action(lap, p0, times)
    for row, t in zip(rows, times):
        assert np.max(np.abs(row - oracle_expm(lap, p0, -t))) < 1e-10, t
    assert all(np.array_equal(rows[i], p0) for i in np.flatnonzero(times == 0))


def test_time_blocks_cap_a_block_of_either_kernel():
    for n in (2000, expm.DENSE_LIMIT + 1, 4000):
        blocks = list(expm.time_blocks(range(100_000), n))
        assert np.array_equal(np.concatenate(blocks), np.arange(100_000))
        assert max(b.size for b in blocks) * 16 * n <= expm._BLOCK_BYTES
        assert blocks[0].size == expm._BLOCK_BYTES // (16 * n)
    beyond = list(expm.time_blocks(range(5), expm.DENSE_LIMIT + 1))
    assert [b.tolist() for b in beyond] == [[0.0, 1.0, 2.0, 3.0, 4.0]]


def test_unitarity_preserves_norm():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        h = random_hermitian(rng, n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        t = float(rng.uniform(0.0, 10.0))
        out = expm_action(h, v, t)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_group_property_composition():
    # exp(-iH(t1+t2)) v == exp(-iHt2) exp(-iHt1) v
    rng = np.random.default_rng(25)
    h = as_hermitian(random_hermitian(rng, 12))
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    v /= np.linalg.norm(v)
    one_shot = expm_action(h, v, 1.7)
    two_step = expm_action(h, expm_action(h, v, 0.9), 0.8)
    assert np.max(np.abs(one_shot - two_step)) < 1e-10


def test_negative_time_inverts_evolution():
    rng = np.random.default_rng(26)
    h = as_hermitian(random_hermitian(rng, 10))
    v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    v /= np.linalg.norm(v)
    back = expm_action(h, expm_action(h, v, 2.2), -2.2)
    assert np.max(np.abs(back - v)) < 1e-10


def test_long_time_lanczos_splitting(expm_kernel):
    # norm(H)*t well beyond one Krylov substep
    rng = np.random.default_rng(27)
    h = random_hermitian(rng, 20)
    v = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    v /= np.linalg.norm(v)
    t = 60.0
    expm_kernel("lanczos", 1e-10)
    got = expm_action(h, v, t)
    ref = oracle_expm(h, v, -1j * t)
    assert np.max(np.abs(got - ref)) < 1e-7


def _fixture_chiral():
    """The chiral Hamiltonian of the 490-node fixture component (phases at
    rng seed 0) and the uniform start state."""
    g = greatest_component(read_edge_list(DATA / "synthetic_ppi.tsv"))
    h = ctqrw.build_hamiltonian(g, "chiral", ctqrw.random_chiral_phases(g, 0))
    return h, np.ones(g.n) / np.sqrt(g.n)


def test_lanczos_matches_dense_on_the_fixture_chiral_hamiltonian(expm_kernel, monkeypatch):
    # 490 nodes: the subspace stops well short of n, and t = 5 and 10 split
    # into substeps; the per-action iteration counts pin the stopping rule
    h, v = _fixture_chiral()
    calls = []
    eigh_tridiagonal = scipy.linalg.eigh_tridiagonal

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh_tridiagonal(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    for t, iterations in ((0.5, 20), (2.0, 37), (5.0, 102), (10.0, 190)):
        calls.clear()
        expm_kernel("lanczos")
        got = expm_action(h, v, t)
        assert len(calls) == iterations
        expm_kernel("dense")
        assert np.max(np.abs(got - expm_action(h, v, t))) < 1e-9


@pytest.mark.parametrize("kernel", ["dense", "lanczos"])
def test_continuous_sweeps_ignore_numpy_global_random_state(expm_kernel, kernel):
    # the Lanczos norm estimate draws from its own generator; a kernel that
    # drew from numpy's global state would tie the sweeps to it
    g = greatest_component(read_edge_list(DATA / "synthetic_ppi.tsv"))
    p0 = np.random.default_rng(3).random(g.n)
    p0 /= p0.sum()
    grid = np.linspace(0.0, 5.0, 51)
    config = SimpleNamespace(hamiltonian="chiral", rng_seed=0, collapse_times=(1.0, 2.5, 4.0))
    expm_kernel(kernel)
    state, runs = np.random.get_state(), []
    try:
        for seed in (0, 1):
            np.random.seed(seed)
            runs.append((list(ctqrw.sweep(g, p0, grid, config)),
                         list(classical.ctrw_sweep(g, p0, grid, config))))
    finally:
        np.random.set_state(state)
    for first, second in zip(*runs):
        assert np.array_equal(first, second)


def _record_substeps(monkeypatch) -> list[int]:
    """The substep count of every Lanczos pass from now on, in order."""
    counts, substeps = [], expm._substeps

    def recording(a, v, unit, span, n_sub, out, rows):
        counts.append(n_sub)
        return substeps(a, v, unit, span, n_sub, out, rows)

    monkeypatch.setattr(expm, "_substeps", recording)
    return counts


@pytest.mark.parametrize("cap, passes", [(30, [3, 6]), (16, [3, 6, 12, 24])])
def test_a_lanczos_basis_at_the_cap_doubles_the_substeps(expm_kernel, monkeypatch, cap, passes):
    # t = 5 on the fixture takes 3 substeps of up to 102 iterations in all;
    # with a cap of 30 vectors one basis runs out and the pass is redone
    # with twice the substeps, with 16 three passes are redone
    h, v = _fixture_chiral()
    expm_kernel("lanczos")
    monkeypatch.setattr(expm, "_MAX_KRYLOV", cap)
    counts = _record_substeps(monkeypatch)
    got = expm_action(h, v, 5.0)
    assert counts == passes
    assert np.max(np.abs(got - oracle_expm(h.matrix, v, -5j))) < 1e-11


def test_a_lanczos_action_that_hits_the_cap_four_times_raises(expm_kernel, monkeypatch):
    h, v = _fixture_chiral()
    expm_kernel("lanczos")
    monkeypatch.setattr(expm, "_MAX_KRYLOV", 12)
    counts = _record_substeps(monkeypatch)
    message = "Lanczos action did not converge to 1e-10 (n=490, t=5.0)"
    with pytest.raises(ConvergenceError, match=re.escape(message)):
        expm_action(h, v, 5.0)
    assert counts == [3, 6, 12, 24]


@pytest.mark.parametrize("t", [1e12, -1e30])
def test_a_time_too_long_for_the_substeps_is_refused_before_any_basis(expm_kernel, monkeypatch, t):
    # 1e30 overflowed the int64 substep indices, and 1e12 planned about 6e11 substeps
    h, v = _fixture_chiral()
    expm_kernel("lanczos")
    counts = _record_substeps(monkeypatch)
    message = f"evolution time {t:g} needs more than 100000 Lanczos substeps"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        expm_action(h, v, np.array([2.0, t]))
    assert counts == []


def test_the_substep_cap_admits_a_plan_of_its_size(expm_kernel, monkeypatch):
    # t = 5 on the fixture plans 3 substeps
    h, v = _fixture_chiral()
    expm_kernel("lanczos")
    counts = _record_substeps(monkeypatch)
    monkeypatch.setattr(expm, "_MAX_SUBSTEPS", 3)
    expm_action(h, v, 5.0)
    monkeypatch.setattr(expm, "_MAX_SUBSTEPS", 2)
    with pytest.raises(ValueError, match="^evolution time 5 needs more than 2 Lanczos substeps$"):
        expm_action(h, v, 5.0)
    assert counts == [3]


def test_expm_action_input_validation():
    rng = np.random.default_rng(28)
    h = random_hermitian(rng, 4)
    with pytest.raises(ValueError, match="length"):
        expm_action(h, np.ones(3), 1.0)
    with pytest.raises(ValueError, match="finite"):
        expm_action(h, np.array([1.0, np.nan, 0, 0]), 1.0)
    with pytest.raises(ValueError, match="nonzero"):
        expm_action(h, np.zeros(4), 1.0)


@pytest.mark.parametrize("kernel", ["dense", "lanczos"])
def test_non_finite_times_are_rejected_by_both_kernels(expm_kernel, kernel):
    # a NaN or infinite time is named, never turned into NaN rows
    expm_kernel(kernel)
    h = random_hermitian(np.random.default_rng(33), 6)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="times must be finite"):
            expm_action(h, np.ones(6), [0.5, bad])
    g = graph_from_edges([("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="times must be finite"):
        real_expm_action(laplacian(g), np.array([1.0, 0.0, 0.0]), [np.nan])


def test_expm_action_and_wrapper_take_no_options():
    # the matrix size alone picks the kernel, at the module's tolerance
    assert list(inspect.signature(expm_action).parameters) == ["hamiltonian", "v", "t"]
    assert list(inspect.signature(SparseHermitian).parameters) == ["matrix"]


# ---------------------------------------------------------------------------
# real_expm_action (diffusion kernel)
# ---------------------------------------------------------------------------


def test_diffusion_two_node_closed_form():
    # L = [[1,-1],[-1,1]] from a single edge; exp(-Lt) delta_0 has
    # occupations ((1 + e^{-2t})/2, (1 - e^{-2t})/2).
    g = graph_from_edges([("a", "b")])
    lap = laplacian(g)
    for t in (0.0, 0.1, 0.5, 1.0, 3.0):
        p = real_expm_action(lap, np.array([1.0, 0.0]), t)
        expected = np.array([(1 + np.exp(-2 * t)) / 2, (1 - np.exp(-2 * t)) / 2])
        assert np.max(np.abs(p - expected)) < 1e-12


def test_diffusion_matches_scipy_oracle():
    rng = np.random.default_rng(30)
    for _ in range(10):
        n = int(rng.integers(3, 15))
        edges = []
        for j in range(n - 1):
            edges.append((f"v{j}", f"v{j + 1}"))
        for _ in range(n):
            j, k = rng.integers(0, n, size=2)
            if j != k:
                edges.append((f"v{j}", f"v{k}"))
        g = graph_from_edges(edges)
        lap = laplacian(g)
        p0 = rng.random(g.n)
        p0 /= p0.sum()
        t = float(rng.uniform(0.0, 4.0))
        got = real_expm_action(lap, p0, t)
        ref = oracle_expm(lap, p0, -t)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - ref)) < 1e-12


def test_diffusion_conserves_probability():
    rng = np.random.default_rng(31)
    g = graph_from_edges([(f"v{j}", f"v{(j + 1) % 9}") for j in range(9)])
    lap = laplacian(g)
    p0 = rng.random(9)
    p0 /= p0.sum()
    for t in (0.2, 1.0, 5.0, 25.0):
        p = real_expm_action(lap, p0, t)
        assert abs(p.sum() - 1.0) < 1e-10
        assert p.min() >= 0.0


def test_diffusion_converges_to_uniform():
    g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])
    lap = laplacian(g)
    p = real_expm_action(lap, np.array([1.0, 0.0, 0.0, 0.0]), 50.0)
    assert np.max(np.abs(p - 0.25)) < 1e-10


def test_diffusion_rejects_complex_generator():
    h = np.array([[1.0, 1j], [-1j, 1.0]])
    with pytest.raises(HermiticityError, match="real"):
        real_expm_action(h, np.array([0.5, 0.5]), 1.0)


def test_diffusion_takes_a_weighted_laplacian():
    g = graph_from_edges([("a", "b", 0.3), ("b", "c", 2.5), ("a", "c", 1e-3), ("c", "d", 7.0)])
    lap = laplacian(g)
    p0 = np.array([1.0, 0.0, 0.0, 0.0])
    got = real_expm_action(lap, p0, 0.8)
    assert np.max(np.abs(got - oracle_expm(lap, p0, -0.8))) < 1e-12
    assert abs(got.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("generator, row_sum", [
    # exp(-2t) p: its "distribution" summed to 0.135 at t = 1
    (2.0 * sp.eye(3), "2"),
    # minus the adjacency of a 3-node path: its result summed to 1.98
    (-sp.csr_matrix([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), "-1"),
])
def test_diffusion_rejects_a_generator_whose_rows_do_not_sum_to_zero(generator, row_sum):
    with pytest.raises(ValueError, match=rf"^diffusion generator row 0 sums to {row_sum}, not 0$"):
        real_expm_action(generator, np.array([1.0, 0.0, 0.0]), 1.0)


def test_diffusion_rejects_negative_time_and_bad_p():
    g = graph_from_edges([("a", "b")])
    lap = laplacian(g)
    with pytest.raises(ValueError, match=">= 0"):
        real_expm_action(lap, np.array([0.5, 0.5]), -1.0)
    with pytest.raises(ValueError, match="sums"):
        real_expm_action(lap, np.array([0.5, 0.6]), 1.0)
    with pytest.raises(ValueError, match="negative"):
        real_expm_action(lap, np.array([1.5, -0.5]), 1.0)


def test_diffusion_refuses_a_kernel_result_below_the_round_off_band(monkeypatch):
    # a negative entry of -1e-3 is no round-off of a working kernel
    monkeypatch.setattr(expm, "_action", lambda op, v, unit, t: np.array([0.6, 0.401, -1e-3]))
    lap = laplacian(graph_from_edges([("a", "b"), ("b", "c")]))
    message = r"^diffusion produced a negative probability -0\.001$"
    with pytest.raises(ConvergenceError, match=message):
        real_expm_action(lap, np.array([1.0, 0.0, 0.0]), 1.0)


def test_diffusion_zero_time_exact():
    g = graph_from_edges([("a", "b"), ("b", "c")])
    lap = laplacian(g)
    p0 = np.array([0.2, 0.3, 0.5])
    out = real_expm_action(lap, p0, 0.0)
    assert np.array_equal(out, p0)


def test_lanczos_action_runs_on_one_blas_thread_and_restores_it(expm_kernel, monkeypatch):
    calls = expm._openblas_threads()
    if calls is None:
        pytest.skip("numpy's OpenBLAS thread calls are not available")
    get, put = calls
    seen = []
    kernel = expm._lanczos_apply

    def spy(*args):
        seen.append(get())
        return kernel(*args)

    monkeypatch.setattr(expm, "_lanczos_apply", spy)
    rng = np.random.default_rng(8)
    h = random_hermitian(rng, 30)
    v = rng.standard_normal(30) + 0j
    threads = get()
    put(2)
    try:
        expm_kernel("lanczos")
        out = expm_action(h, v, 3.0)
        assert seen and set(seen) == {1}
        assert get() == 2
        with pytest.raises(RuntimeError), expm._one_blas_thread():
            raise RuntimeError
        assert get() == 2
    finally:
        put(threads)
    assert np.allclose(out, oracle_expm(h, v, -3.0j), atol=1e-9)
