"""Classical walk baselines: restart walks, diffusion, coin-toss walks.

All walkers map a probability vector over nodes to another probability
vector.  The restart walk uses the column-stochastic normalized adjacency
(dangling columns teleport fully to the restart distribution); the
discrete-time walk uses the row-stochastic transition matrix (dangling
nodes hold their mass); continuous-time diffusion integrates
``dp/dt = -L p`` through the shared exponential kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .expm import ConvergenceError, as_hermitian, real_expm_action
from .graphs import LabeledGraph, adjacency_matrix, laplacian
from .states import as_probability_columns, as_probability_vector, delta_distribution

POWER_MAX_ITER = 100_000
POWER_TOL = 1e-12
_DIRECT_DENSE_LIMIT = 2000


@dataclass(frozen=True)
class TransitionMatrix:
    """Nonnegative matrix tagged with its stochasticity orientation.

    ``orientation`` is "column" (columns sum to 1) or "row" (rows sum
    to 1); the tagged axis is validated to sum to 1 within 1e-12.
    """

    matrix: sp.csr_matrix
    orientation: str

    def __post_init__(self) -> None:
        if self.orientation not in ("column", "row"):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        axis = 0 if self.orientation == "column" else 1
        m = sp.csr_matrix(self.matrix)
        if m.nnz and (m.data < 0).any():
            raise ValueError("transition matrix must be nonnegative")
        sums = np.asarray(m.sum(axis=axis)).reshape(-1)
        bad = np.abs(sums - 1.0) > 1e-12
        if np.any(bad & (np.abs(sums) > 1e-12)):
            raise ValueError("tagged axis must sum to 1 for non-dangling nodes")
        object.__setattr__(self, "matrix", m)


def normalize_column_stochastic(g: LabeledGraph, p0) -> TransitionMatrix:
    """Column-normalized adjacency with full-teleport dangling columns.

    Column ``j`` is ``A[:, j] / deg(j)`` when ``deg(j) > 0`` and the
    restart distribution ``p0`` otherwise, so every column is a
    distribution and all eigenvalues have modulus <= 1.
    """
    p0 = as_probability_vector(p0, n=g.n)
    # adjacency rows index the tail node, so transpose puts each node's
    # outgoing weights into its own column before normalizing
    a = adjacency_matrix(g).transpose().tocsc()
    colsum = np.asarray(a.sum(axis=0)).reshape(-1)
    nonzero = colsum > 0
    scale = np.zeros(g.n)
    scale[nonzero] = 1.0 / colsum[nonzero]
    m = (a @ sp.diags(scale)).tocsr()
    dangling = np.flatnonzero(~nonzero)
    if dangling.size:
        support = np.flatnonzero(p0 > 0)
        cols = sp.csr_matrix(
            (
                np.tile(p0[support], dangling.size),
                (
                    np.tile(support, dangling.size),
                    np.repeat(dangling, support.size),
                ),
            ),
            shape=(g.n, g.n),
        )
        m = m + cols
    return TransitionMatrix(m, "column")


def row_stochastic(g: LabeledGraph) -> TransitionMatrix:
    """Row-normalized adjacency; dangling nodes hold their mass (P_ii = 1)."""
    a = adjacency_matrix(g)
    rowsum = np.asarray(a.sum(axis=1)).reshape(-1)
    nonzero = rowsum > 0
    scale = np.zeros(g.n)
    scale[nonzero] = 1.0 / rowsum[nonzero]
    m = sp.diags(scale) @ a
    hold = np.zeros(g.n)
    hold[~nonzero] = 1.0
    m = (m + sp.diags(hold)).tocsr()
    return TransitionMatrix(m, "row")


def _finalize_distribution(p: np.ndarray) -> np.ndarray:
    if p.min() < -1e-8:
        raise ConvergenceError(f"walk produced a negative probability {p.min():g}")
    return np.clip(p, 0.0, None)


def rwr_steady_state(g: LabeledGraph, p0, alpha: float) -> np.ndarray:
    """Steady state of the random walk with restart.

    Solves ``p = alpha * M p + (1 - alpha) * p0`` for the column-stochastic
    ``M`` of :func:`normalize_column_stochastic`, equivalently
    ``p = (1 - alpha) (I - alpha M)^{-1} p0``.

    Parameters
    ----------
    alpha : float
        Continuation probability in [0, 1); ``1 - alpha`` is the restart
        probability per step.

    Graphs of up to ``_DIRECT_DENSE_LIMIT`` nodes take a dense linear
    solve, larger ones power iteration; the two agree within 1e-8.
    """
    p0 = as_probability_vector(p0, n=g.n)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if alpha == 0.0:
        return p0.copy()
    m = normalize_column_stochastic(g, p0).matrix
    if g.n <= _DIRECT_DENSE_LIMIT:
        system = sp.eye(g.n, format="csc") - alpha * m.tocsc()
        p = np.linalg.solve(system.toarray(), (1.0 - alpha) * p0)
    else:
        p = p0.copy()
        for _ in range(POWER_MAX_ITER):
            nxt = alpha * (m @ p) + (1.0 - alpha) * p0
            if np.abs(nxt - p).sum() < POWER_TOL:
                p = nxt
                break
            p = nxt
        else:
            raise ConvergenceError(
                f"restart walk power iteration did not converge in {POWER_MAX_ITER} steps"
            )
    return _finalize_distribution(p)


def rwr_iterate(g: LabeledGraph, p0, alpha: float, n_iter: int) -> np.ndarray:
    """Restart walk truncated after exactly ``n_iter`` update steps."""
    p0 = as_probability_vector(p0, n=g.n)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if n_iter < 0:
        raise ValueError("iteration count must be >= 0")
    m = normalize_column_stochastic(g, p0).matrix
    p = p0.copy()
    for _ in range(n_iter):
        p = alpha * (m @ p) + (1.0 - alpha) * p0
    return _finalize_distribution(p)


def dtrw_evolve(g: LabeledGraph, p0, steps: int) -> np.ndarray:
    """Discrete-time random walk: ``steps`` applications of the row-stochastic
    transition matrix (dangling nodes hold their mass).

    ``p0`` is one distribution over nodes or an ``(n, k)`` block of ``k``
    distributions, one per column; column ``j`` of the result is the walk
    from column ``j``, with the same floating-point operations as the walk
    from that column alone.
    """
    p = as_probability_columns(p0, n=g.n)
    if steps < 0:
        raise ValueError("step count must be >= 0")
    wt = row_stochastic(g).matrix.transpose().tocsr()
    for _ in range(steps):
        p = wt @ p
    return _finalize_distribution(p)


def dtrw_transition_profile(g: LabeledGraph, source: int, steps: int) -> np.ndarray:
    """Distribution after ``steps`` coin tosses starting from ``source``."""
    return dtrw_evolve(g, delta_distribution(g.n, source), steps)


def ctrw_evolve(g: LabeledGraph, p0, t: float) -> np.ndarray:
    """Continuous-time diffusion ``exp(-L t) p0`` on an undirected graph."""
    return real_expm_action(as_hermitian(laplacian(g)), p0, t)
