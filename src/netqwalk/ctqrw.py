"""Continuous-time quantum random walks on labeled graphs.

A walk is generated by a Hermitian Hamiltonian built from the graph:
the adjacency matrix, the combinatorial Laplacian, or a chiral variant
whose edge entries carry unit-modulus phases ``exp(i * phi)``.  States
evolve under ``psi(t) = expm(-i H t) psi(0)``; wavefunction collapse
replaces the state by its normalized squared modulus at scheduled
times, which suppresses interference while retaining the quantum
propagator between collapses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expm import ConvergenceError, SparseHermitian, expm_action, time_blocks
from .graphs import LabeledGraph, adjacency_matrix, as_tuple, laplacian, node_index
from .states import as_amplitude_columns

__all__ = [
    "CollapseSchedule",
    "build_hamiltonian",
    "uniform_chiral_phases",
    "random_chiral_phases",
    "initial_state_from_scores",
    "evolve",
    "evolve_with_collapses",
    "transition_probability",
    "transition_rate",
    "collapse",
    "measure",
]

HAMILTONIAN_KINDS = ("adjacency", "laplacian", "chiral")

#: Norm drift beyond this is renormalized away; beyond _DRIFT_FAIL it is an error.
_DRIFT_RENORM = 1e-12
_DRIFT_FAIL = 1e-8


def uniform_chiral_phases(g: LabeledGraph, phi: float) -> np.ndarray:
    """The angle ``phi`` on every stored edge of ``g``, in ``g.edges`` order.

    For a directed graph the phase is oriented along each stored edge,
    so a directed cycle acquires a consistent circulation.
    """
    return np.full(g.edge_count, float(phi))


def random_chiral_phases(g: LabeledGraph, rng) -> np.ndarray:
    """Angles drawn uniformly from [0, 2*pi), one per stored edge of ``g``."""
    return np.random.default_rng(rng).uniform(0.0, 2.0 * np.pi, g.edge_count)


def build_hamiltonian(g: LabeledGraph, kind: str, phases=None) -> SparseHermitian:
    """Hermitian walk generator of the given ``kind`` for ``g``.

    Adjacency and Laplacian Hamiltonians require an undirected graph.
    The chiral kind takes ``phases``, one finite angle per stored edge
    in ``g.edges`` order: edge ``(j, k)`` of weight ``w`` adds
    ``w * exp(i phi)`` to ``H[j, k]`` and its conjugate to ``H[k, j]``.
    It accepts directed graphs; a directed pair ``(j, k)``, ``(k, j)``
    sums its two phased terms.
    """
    import scipy.sparse as sp

    if kind not in HAMILTONIAN_KINDS:
        raise ValueError(
            f"unknown hamiltonian kind {kind!r}; expected one of {HAMILTONIAN_KINDS}"
        )
    if kind != "chiral":
        if phases is not None:
            raise ValueError("phases are only meaningful for kind='chiral'")
        if kind == "adjacency":
            if g.directed:
                raise ValueError("adjacency Hamiltonian requires an undirected graph")
            return SparseHermitian(adjacency_matrix(g))
        return SparseHermitian(laplacian(g))
    if phases is None:
        raise ValueError("kind='chiral' needs one phase per edge")
    phi = np.asarray(phases, dtype=np.float64)
    if phi.shape != (g.edge_count,):
        raise ValueError(
            f"expected {g.edge_count} phases, one per edge, got shape {phi.shape}"
        )
    if not np.all(np.isfinite(phi)):
        raise ValueError("phases must be finite")
    h = g.weights * np.exp(1j * phi)
    j, k = g.edges[:, 0], g.edges[:, 1]
    matrix = sp.csr_matrix(
        (np.concatenate([h, h.conj()]), (np.concatenate([j, k]), np.concatenate([k, j]))),
        shape=(g.n, g.n),
    )
    return SparseHermitian(matrix)


def initial_state_from_scores(scores) -> np.ndarray:
    """Unit-norm initial state proportional to a nonnegative score vector."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if s.size == 0:
        raise ValueError("score vector must be nonempty")
    if not np.all(np.isfinite(s)):
        raise ValueError("score vector must be finite")
    if np.any(s < 0):
        raise ValueError("score vector must be nonnegative")
    nrm = float(np.linalg.norm(s))
    if nrm == 0.0:
        raise ValueError("score vector must have at least one positive entry")
    return (s / nrm).astype(np.complex128)


def _check_drift(psi: np.ndarray) -> np.ndarray:
    nrm = float(np.linalg.norm(psi))
    drift = abs(nrm - 1.0)
    if drift >= _DRIFT_FAIL:
        raise ConvergenceError(
            f"evolution lost unitarity: norm drifted by {drift:.3e}"
        )
    if drift > _DRIFT_RENORM:
        return psi / nrm
    return psi


def evolve(hamiltonian: SparseHermitian, psi0, t) -> np.ndarray:
    """State after Schrodinger evolution of ``psi0`` for time ``t``, a row per time of an array."""
    out = expm_action(hamiltonian, as_amplitude_columns(np.ravel(psi0), hamiltonian.n), t)
    for row in out.reshape(-1, hamiltonian.n):
        row[:] = _check_drift(row)
    return out


@dataclass(frozen=True)
class CollapseSchedule:
    """Strictly increasing collapse times, all inside (0, t_final)."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in as_tuple(self.times, "collapse times"))
        if not all(np.isfinite(times)):
            raise ValueError("collapse times must be finite")
        if any(t <= 0.0 for t in times):
            raise ValueError("collapse times must be positive")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("collapse times must be strictly increasing")
        object.__setattr__(self, "times", times)

    def validate_horizon(self, t_final: float) -> None:
        if self.times and self.times[-1] >= t_final:
            raise ValueError(
                f"collapse time {self.times[-1]} is not inside (0, {t_final})"
            )


def collapse(psi) -> np.ndarray:
    """Collapse a state onto its squared-modulus profile.

    The profile ``|psi|**2`` is renormalized to unit Euclidean norm,
    giving a valid state whose subsequent evolution is unitary.
    """
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(psi)):
        raise ValueError("cannot collapse a state with non-finite entries")
    prob = np.abs(psi) ** 2
    scale = float(np.linalg.norm(prob))
    if scale == 0.0:
        raise ValueError("cannot collapse the zero state")
    return (prob / scale).astype(np.complex128)


def evolve_with_collapses(
    hamiltonian: SparseHermitian,
    psi0,
    t_final,
    schedule=None,
) -> np.ndarray:
    """Evolve to ``t_final`` with collapses at the scheduled times.

    An empty schedule reduces exactly to :func:`evolve`; a sequence of times
    ``t_final``, an empty one too, gives one row per time.
    """
    if not isinstance(schedule, CollapseSchedule):
        schedule = CollapseSchedule(() if schedule is None else schedule)
    t_final = np.asarray(t_final)
    if (t_final < 0).any():
        raise ValueError(f"t_final must be nonnegative, got {t_final.min()}")
    if t_final.size:
        schedule.validate_horizon(t_final.min())
    psi, t_prev = psi0, 0.0
    for t_c in schedule.times:
        psi, t_prev = collapse(evolve(hamiltonian, psi, t_c - t_prev)), t_c
    return evolve(hamiltonian, psi, t_final - t_prev)


def _from_node(hamiltonian: SparseHermitian, node, t: float) -> np.ndarray:
    """``expm(-i H t) |node>`` for a node index checked against ``H`` and one time ``t``."""
    if np.ndim(t):
        raise ValueError(f"t must be one time, got an array of shape {np.shape(t)}")
    unit = np.zeros(hamiltonian.n, dtype=np.complex128)
    unit[node_index(node, hamiltonian.n, "destination node")] = 1.0
    return evolve(hamiltonian, unit, t)


def transition_probability(
    hamiltonian: SparseHermitian,
    source: int,
    destination: int,
    t: float,
) -> float:
    """Probability of finding at ``source`` a walker started at ``destination``.

    This is ``|<source| expm(-i H t) |destination>|**2``, clipped to
    [0, 1] against rounding.
    """
    source = node_index(source, hamiltonian.n, "source node")
    p = float(np.abs(_from_node(hamiltonian, destination, t)[source]) ** 2)
    return min(max(p, 0.0), 1.0)


def transition_rate(
    hamiltonian: SparseHermitian,
    source: int,
    destination: int,
    t: float,
) -> float:
    """Time derivative of :func:`transition_probability` at ``t``.

    With ``m = <source| expm(-i H t) |destination>`` the rate is
    ``2 Re(conj(m) * m')`` where ``m' = <source| -i H expm(-i H t)
    |destination>``.
    """
    source = node_index(source, hamiltonian.n, "source node")
    u = _from_node(hamiltonian, destination, t)
    m = u[source]
    m_dot = -1j * (hamiltonian.matrix @ u)[source]
    return float(2.0 * np.real(np.conj(m) * m_dot))


def measure(psi) -> np.ndarray:
    """Measurement distribution ``|psi_i|**2`` of a unit state."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    prob = np.abs(psi) ** 2
    total = float(prob.sum())
    if not abs(total - 1.0) <= 1e-8:  # a NaN sum fails this test too
        raise ValueError(
            f"state is not normalized and finite: probabilities sum to {total:.12f}"
        )
    out = prob / total
    out.setflags(write=False)
    return out


def sweep(g: LabeledGraph, p0, grid, config):
    """Measured walk from ``p0`` at each time of ``grid``, with ``config``'s collapses;
    each block of times and each collapse evolves from the last state computed."""
    chiral = config.hamiltonian == "chiral"
    phases = random_chiral_phases(g, config.rng_seed) if chiral else None
    h = build_hamiltonian(g, config.hamiltonian, phases)
    psi, start = initial_state_from_scores(p0), 0.0
    cuts = np.searchsorted(grid, config.collapse_times, side="right")
    for segment, tc in zip(np.split(grid, cuts), (*config.collapse_times, None)):
        for block in time_blocks(segment, h.n):
            for psi in evolve_with_collapses(h, psi, block - start):
                yield measure(psi)
            psi, start = psi.copy(), block[-1]  # the copy frees the block
        if tc is not None:
            psi, start = collapse(evolve(h, psi, tc - start)), tc
