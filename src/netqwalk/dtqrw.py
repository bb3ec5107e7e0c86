"""Discrete-time coined quantum walks on the arc space of a graph.

The walker lives on directed arcs: each undirected edge {j, k}
contributes the arcs (j, k) and (k, j).  One step applies a coin
within every node's outgoing-arc segment and then the flip-flop shift,
which moves the amplitude of (j, k) onto (k, j).  The coin is the
Grover diffusion operator ``2/d * J - I`` on each degree-``d`` segment.
Both the coin and the shift are unitary, so node probabilities (summed
over outgoing arcs) stay normalized.

Sums over each node's outgoing arcs are one product with the ``n x
n_arcs`` incidence matrix that :func:`arc_basis` builds once.  The coin
and the shift are real, so a real state stays real (float64) and gives
the same node probabilities as the complex walk.  The walk functions
take one state or an ``(n_arcs, k)`` block of states, one per column,
and apply the same floating-point operations to every column.
:func:`profiles` walks from each node that has an arc; no other node launches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import LabeledGraph, adjacency_matrix, as_int, node_index
from .states import START_BLOCK, as_amplitude_columns

__all__ = [
    "ArcIndex",
    "arc_basis",
    "grover_coin",
    "initial_arc_state",
    "initial_arc_block",
    "arc_state_from_scores",
    "step",
    "step_inverse",
    "evolve",
    "node_probabilities",
    "transition_profile",
    "profiles",
]


@dataclass(frozen=True)
class ArcIndex:
    """Sorted arc enumeration of an undirected graph.

    Arcs are ordered lexicographically by (tail, head); ``node_ptr``
    delimits the outgoing-arc segment of each node in CSR style,
    ``reverse`` is the involution mapping each arc to its opposite, and
    ``incidence`` is the ``n x n_arcs`` 0/1 matrix (row pointer
    ``node_ptr``, column indices ``0..n_arcs-1``) that sums each node's
    segment.
    """

    n: int
    tails: np.ndarray
    heads: np.ndarray
    node_ptr: np.ndarray
    reverse: np.ndarray
    incidence: sp.csr_matrix

    @property
    def n_arcs(self) -> int:
        return int(self.tails.shape[0])


def arc_basis(g: LabeledGraph) -> ArcIndex:
    """Arc enumeration for ``g``, which must be undirected.

    Edge weights play no role here; the coined walk sees only the
    connectivity.  Directed graphs are rejected — symmetrize first.
    """
    if g.directed:
        raise ValueError(
            "arc-space walks are defined on undirected graphs; "
            "build a symmetrized view first"
        )
    n = g.n
    # the CSR rows of the symmetric adjacency are the arcs in (tail, head)
    # order, and a zero-weight edge keeps its entries; with the arc numbers
    # as data, the transpose lists arc (k, j) where arc (j, k) sits
    a = adjacency_matrix(g)
    node_ptr = a.indptr.astype(np.int64)
    heads = a.indices.astype(np.int64)
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(node_ptr))
    n_arcs = tails.shape[0]
    arc_ids = sp.csr_matrix((np.arange(n_arcs), a.indices, a.indptr), shape=(n, n))
    reverse = arc_ids.T.tocsr().data
    if not np.array_equal(reverse[reverse], np.arange(n_arcs)):
        raise AssertionError("arc reversal failed to be an involution")
    incidence = sp.csr_matrix(
        (np.ones(n_arcs), np.arange(n_arcs), node_ptr), shape=(n, n_arcs)
    )
    for arr in (tails, heads, node_ptr, reverse):
        arr.setflags(write=False)
    return ArcIndex(n, tails, heads, node_ptr, reverse, incidence)


def grover_coin(d: int) -> np.ndarray:
    """Grover diffusion coin ``2/d * J - I`` on a degree-``d`` node."""
    if d < 1:
        raise ValueError(f"coin dimension must be >= 1, got {d}")
    return (2.0 / d) * np.ones((d, d)) - np.eye(d)


def _apply_coin(arcs: ArcIndex, psi: np.ndarray) -> np.ndarray:
    # Grover blocks are real symmetric, hence self-adjoint.
    scale = 2.0 / np.diff(arcs.node_ptr)[arcs.tails]
    if psi.ndim == 2:
        scale = scale[:, np.newaxis]
    return scale * (arcs.incidence @ psi)[arcs.tails] - psi


def step(arcs: ArcIndex, psi) -> np.ndarray:
    """One walk step: coin within each node segment, then flip-flop shift."""
    return evolve(arcs, psi, 1)


def step_inverse(arcs: ArcIndex, psi) -> np.ndarray:
    """Inverse walk step: shift back, then the same self-adjoint coin."""
    psi = as_amplitude_columns(psi, arcs.n_arcs)
    return _apply_coin(arcs, psi[arcs.reverse])


def evolve(arcs: ArcIndex, psi0, steps: int) -> np.ndarray:
    """State after ``steps`` applications of the walk unitary.

    ``psi0`` is one unit-norm arc state or an ``(n_arcs, k)`` block of
    them, one per column; each column evolves as it would alone.
    """
    if (steps := as_int(steps, "step count")) < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    psi = as_amplitude_columns(psi0, arcs.n_arcs)
    for _ in range(steps):
        psi = _apply_coin(arcs, psi)[arcs.reverse]
    return psi


def initial_arc_block(arcs: ArcIndex, nodes) -> np.ndarray:
    """Real ``(n_arcs, len(nodes))`` block whose column ``c`` is the uniform
    superposition over the outgoing arcs of ``nodes[c]``."""
    psi = np.zeros((arcs.n_arcs, len(nodes)))
    for c, node in enumerate(nodes):
        node = node_index(node, arcs.n, "start node")
        lo, hi = arcs.node_ptr[node], arcs.node_ptr[node + 1]
        if hi == lo:
            raise ValueError(
                f"node {node} is isolated and cannot launch an arc-space walk"
            )
        psi[lo:hi, c] = 1.0 / np.sqrt(hi - lo)
    return psi


def initial_arc_state(arcs: ArcIndex, node: int) -> np.ndarray:
    """Uniform superposition over the outgoing arcs of ``node`` (complex)."""
    return initial_arc_block(arcs, [node])[:, 0].astype(np.complex128)


def arc_state_from_scores(arcs: ArcIndex, scores) -> np.ndarray:
    """Arc state spreading each node's score across its outgoing arcs.

    Arc (j, k) receives amplitude ``sqrt(scores[j] / degree(j))`` before
    normalization, so the node-probability profile of the initial state
    is proportional to ``scores``.  The state is real (float64), so the
    walk runs in real arithmetic.  Positive scores on isolated nodes
    cannot be represented and raise a ``ValueError``.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if s.shape[0] != arcs.n:
        raise ValueError(f"expected {arcs.n} scores, got {s.shape[0]}")
    if not np.all(np.isfinite(s)) or np.any(s < 0):
        raise ValueError("scores must be finite and nonnegative")
    degrees = np.diff(arcs.node_ptr)
    stranded = np.flatnonzero((s > 0) & (degrees == 0))
    if stranded.size:
        raise ValueError(
            f"isolated node {int(stranded[0])} carries positive score"
        )
    per_arc = s / np.maximum(degrees, 1)
    psi = np.sqrt(per_arc[arcs.tails])
    nrm = math.sqrt(math.fsum(psi * psi))
    if nrm == 0.0:
        raise ValueError("scores must have at least one positive entry")
    return psi * (1.0 / nrm)


def node_probabilities(arcs: ArcIndex, psi) -> np.ndarray:
    """Per-node probabilities, summed over each node's outgoing arcs.

    For an ``(n_arcs, k)`` block of states, column ``j`` of the ``(n, k)``
    result belongs to column ``j`` of ``psi``.
    """
    psi = np.asarray(psi)
    if psi.ndim not in (1, 2) or psi.shape[0] != arcs.n_arcs:
        raise ValueError(
            f"expected {arcs.n_arcs} amplitudes per state, got shape {psi.shape}"
        )
    return arcs.incidence @ (np.abs(psi) ** 2)


def transition_profile(g: LabeledGraph, source, steps: int) -> np.ndarray:
    """Node distribution after ``steps`` from a walker launched at ``source``.

    The walker starts in the uniform superposition over the source's
    outgoing arcs.  ``source`` may be a node label or index.
    """
    arcs = arc_basis(g)
    psi = evolve(arcs, initial_arc_state(arcs, g.node(source, "start node")), steps)
    return node_probabilities(arcs, psi)


def profiles(g: LabeledGraph, steps: int):
    """Yield ``(nodes, block)`` for every node with an arc, ``START_BLOCK`` at a
    time; column ``c`` of ``block`` is :func:`transition_profile` from ``nodes[c]``,
    bit for bit, walked in float64 from real start states."""
    arcs = arc_basis(g)
    launched = np.flatnonzero(np.diff(arcs.node_ptr))
    for lo in range(0, launched.size, START_BLOCK):
        nodes = launched[lo : lo + START_BLOCK]
        yield nodes, node_probabilities(arcs, evolve(arcs, initial_arc_block(arcs, nodes), steps))


def sweep(g: LabeledGraph, p0, grid, config):
    """Node probabilities at each step count of ``grid``, continuing from the last."""
    arcs = arc_basis(g)
    psi, done = arc_state_from_scores(arcs, p0), 0
    for n in grid:
        psi, done = evolve(arcs, psi, n - done), n
        yield node_probabilities(arcs, psi)
