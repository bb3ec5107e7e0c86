"""Classical walk baselines: restart walks, diffusion, coin-toss walks.

All walkers map a probability vector over nodes to another probability
vector.  The restart walk and the discrete-time walk step with one
matrix, the row-normalized adjacency of :func:`row_stochastic`.  The
rows of dangling nodes (no outgoing weight) are empty, and its
``dangling`` mask marks them; each walker applies its own rule to the
mass on those nodes.  The discrete-time walk holds it in place, and
the restart walk sends it to the restart distribution.  Its CCI profiles,
:func:`dtrw_profiles`, launch a walk from every node, dangling or not.
Continuous-time diffusion integrates ``dp/dt = -L p`` through the
shared exponential kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .expm import ConvergenceError, as_hermitian, real_expm_action, time_blocks
from .graphs import LabeledGraph, adjacency_matrix, as_int, laplacian
from .states import START_BLOCK, as_probability_columns, as_probability_vector, delta_distribution

POWER_MAX_ITER = 100_000
POWER_TOL = 1e-12


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-normalized transition matrix and the mask of its dangling nodes.

    ``matrix`` is nonnegative.  Each row sums to 1 within 1e-12, except
    the rows of the nodes flagged in ``dangling``, which sum to 0: a
    dangling node has no outgoing weight.  The walkers decide where its
    mass goes: :func:`dtrw_evolve` holds it in place, and the restart
    walk sends it to the restart distribution.
    """

    matrix: sp.csr_matrix
    dangling: np.ndarray

    def __post_init__(self) -> None:
        m = sp.csr_matrix(self.matrix)
        dangling = np.asarray(self.dangling, dtype=bool)
        if m.nnz and (m.data < 0).any():
            raise ValueError("transition matrix must be nonnegative")
        sums = np.asarray(m.sum(axis=1)).reshape(-1)
        if np.any(np.abs(sums[~dangling] - 1.0) > 1e-12):
            raise ValueError("rows must sum to 1 for non-dangling nodes")
        if sums[dangling].any():
            raise ValueError("rows of dangling nodes must sum to 0")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dangling", dangling)


def row_stochastic(g: LabeledGraph) -> TransitionMatrix:
    """Row-normalized adjacency ``D^-1 A``; the rows of dangling nodes stay
    empty, and a node whose out-weight is too small to invert is an error."""
    a = adjacency_matrix(g)
    rowsum = np.asarray(a.sum(axis=1)).reshape(-1)
    dangling = rowsum == 0
    with np.errstate(over="ignore"):
        scale = np.divide(1.0, rowsum, out=np.zeros(g.n), where=~dangling)
    if not np.isfinite(scale).all():
        i = np.argmin(np.isfinite(scale))
        weight = float(rowsum[i])
        raise ValueError(f"node {g.labels[i]!r} has out-weight {weight}, too small to invert")
    return TransitionMatrix((sp.diags(scale) @ a).tocsr(), dangling)


def _finalize_distribution(p: np.ndarray) -> np.ndarray:
    if p.min() < -1e-8:
        raise ConvergenceError(f"walk produced a negative probability {p.min():g}")
    return np.clip(p, 0.0, None)


def _restart_update(g: LabeledGraph, p0, alpha: float):
    """Check ``p0`` and ``alpha``; return ``p0`` as a vector and the restart
    walk's update ``p -> alpha (P^T p + d p0) + (1 - alpha) p0``, where ``d``
    is the mass on dangling nodes: it restarts at the seeds."""
    p0 = as_probability_vector(p0, n=g.n)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    walk = row_stochastic(g)
    wt, dangling = walk.matrix.transpose(), walk.dangling
    return p0, lambda p: alpha * (wt @ p + p[dangling].sum() * p0) + (1.0 - alpha) * p0


def rwr_steady_state(g: LabeledGraph, p0, alpha: float) -> np.ndarray:
    """Steady state of the random walk with restart.

    Solves ``p = alpha * M p + (1 - alpha) * p0``, where ``M`` is the
    transpose of :func:`row_stochastic` with ``p0`` in each dangling column,
    by iterating the update from ``p0`` until one step changes ``p`` by less
    than ``POWER_TOL`` in the 1-norm.  The update contracts by ``alpha``, so
    the result lies within ``alpha / (1 - alpha) * POWER_TOL`` of the steady
    state.  At ``alpha = 0`` the first update returns ``p0`` exactly.

    Parameters
    ----------
    alpha : float
        Continuation probability in [0, 1); ``1 - alpha`` is the restart
        probability per step.
    """
    p0, step = _restart_update(g, p0, alpha)
    p = p0.copy()
    for _ in range(POWER_MAX_ITER):
        nxt = step(p)
        if np.abs(nxt - p).sum() < POWER_TOL:
            return _finalize_distribution(nxt)
        p = nxt
    raise ConvergenceError(
        f"restart walk power iteration did not converge in {POWER_MAX_ITER} steps"
    )


def rwr_iterate(g: LabeledGraph, p0, alpha: float, n_iter: int) -> np.ndarray:
    """Restart walk truncated after exactly ``n_iter`` update steps."""
    p0, step = _restart_update(g, p0, alpha)
    if (n_iter := as_int(n_iter, "iteration count")) < 0:
        raise ValueError("iteration count must be >= 0")
    p = p0.copy()
    for _ in range(n_iter):
        p = step(p)
    return _finalize_distribution(p)


def dtrw_evolve(g: LabeledGraph | TransitionMatrix, p0, steps: int) -> np.ndarray:
    """Discrete-time random walk: ``steps`` applications of the row-stochastic
    transition matrix (dangling nodes hold their mass).

    ``g`` is the graph or its :func:`row_stochastic` matrix; a caller that
    walks one graph repeatedly builds that matrix once and passes it.
    ``p0`` is one distribution over nodes or an ``(n, k)`` block of ``k``
    distributions, one per column; column ``j`` of the result is the walk
    from column ``j``, with the same floating-point operations as the walk
    from that column alone.
    """
    walk = g if isinstance(g, TransitionMatrix) else row_stochastic(g)
    wt, dangling = walk.matrix.transpose(), walk.dangling
    p = as_probability_columns(p0, n=wt.shape[0])
    if (steps := as_int(steps, "step count")) < 0:
        raise ValueError("step count must be >= 0")
    for _ in range(steps):
        p, held = wt @ p, p[dangling]
        p[dangling] += held
    return _finalize_distribution(p)


def dtrw_transition_profile(g: LabeledGraph, source, steps: int) -> np.ndarray:
    """Distribution after ``steps`` coin tosses from ``source``, a node label or index."""
    return dtrw_evolve(g, delta_distribution(g.n, g.node(source, "source node")), steps)


def dtrw_profiles(g: LabeledGraph, steps: int):
    """Yield ``(nodes, block)`` for all nodes, ``START_BLOCK`` at a time: column ``c`` of ``block``
    is row ``nodes[c]`` of ``P**steps``, :func:`dtrw_transition_profile` bit for bit."""
    walk = row_stochastic(g)
    for lo in range(0, g.n, START_BLOCK):
        nodes = np.arange(lo, min(lo + START_BLOCK, g.n))
        yield nodes, dtrw_evolve(walk, np.eye(g.n, nodes.size, -lo), steps)


def ctrw_evolve(g: LabeledGraph, p0, t: float) -> np.ndarray:
    """Continuous-time diffusion ``exp(-L t) p0`` on an undirected graph."""
    return next(ctrw_sweep(g, p0, (t,), None))


def rwr_sweep(g: LabeledGraph, p0, grid, config):
    """The restart walk's steady state, the one point of its grid."""
    yield rwr_steady_state(g, p0, config.alpha)


def ctrw_sweep(g: LabeledGraph, p0, grid, config):
    """Diffusion from ``p0`` at each ``grid`` time, each block of times continuing from the last."""
    lap = as_hermitian(laplacian(g))
    p, start = p0, 0.0
    for block in time_blocks(grid, g.n):
        for p in real_expm_action(lap, p, block - start):
            yield p
        p, start = p / p.sum(), block[-1]  # the next action checks the sum


def dtrw_sweep(g: LabeledGraph, p0, grid, config):
    """The walk at each step count of ``grid``, continuing from the one before."""
    walk = row_stochastic(g)
    p, done = p0, 0
    for n in grid:
        p, done = dtrw_evolve(walk, p, n - done), n
        yield p
