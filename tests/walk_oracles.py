"""Definition oracles for the restart walk and the discrete-time walk.

Each is built from the dense adjacency alone, not from
``netqwalk.classical``, so a test that compares the two does not share
the kernels' normalization or their rule for dangling nodes (nodes with
no outgoing weight).
"""

import numpy as np

from netqwalk.graphs import adjacency_matrix


def _outgoing(g):
    a = adjacency_matrix(g).toarray()
    out = a.sum(axis=1, keepdims=True)
    return a, out, out[:, 0] == 0


def restart_matrix(g, p0):
    """Column-stochastic restart-walk matrix: column ``j`` is node ``j``'s
    outgoing weights over their sum, or ``p0`` when ``j`` is dangling."""
    a, out, dangling = _outgoing(g)
    m = (a / np.where(dangling[:, None], 1.0, out)).T
    m[:, dangling] = np.asarray(p0)[:, None]
    return m


def rwr_oracle(g, p0, alpha):
    """Restart-walk steady state ``(1 - alpha) (I - alpha M)^-1 p0``, solved densely."""
    return np.linalg.solve(np.eye(g.n) - alpha * restart_matrix(g, p0), (1.0 - alpha) * p0)


def rwr_iterate_oracle(g, p0, alpha, n_iter):
    """``n_iter`` restart-walk updates from ``p0``, as the truncated series
    ``(alpha M)^n p0 + (1 - alpha) sum_{k<n} (alpha M)^k p0``."""
    step = alpha * restart_matrix(g, p0)
    series = sum(np.linalg.matrix_power(step, k) @ p0 for k in range(n_iter))
    return np.linalg.matrix_power(step, n_iter) @ p0 + (1.0 - alpha) * series


def holding_matrix(g):
    """Row-stochastic walk matrix: row ``j`` is node ``j``'s outgoing weights
    over their sum, and a dangling node holds its mass (``P_jj = 1``)."""
    a, out, dangling = _outgoing(g)
    return np.where(dangling[:, None], np.eye(g.n), a / np.where(dangling[:, None], 1.0, out))


def dtrw_oracle(g, p0, steps):
    """``steps`` discrete-time walk steps from ``p0`` (a vector or a block of
    columns), as the matrix power ``(P^T)^steps p0``."""
    return np.linalg.matrix_power(holding_matrix(g).T, steps) @ p0
