"""Discrete-time coined quantum walks on the arc space of a graph.

The walker lives on directed arcs: each undirected edge {j, k}
contributes the arcs (j, k) and (k, j).  One step applies a coin
within every node's outgoing-arc segment and then the flip-flop shift,
which moves the amplitude of (j, k) onto (k, j).  The coin is the
Grover diffusion operator ``2/d * J - I`` on each degree-``d`` segment.  Both the coin and the shift are unitary, so node
probabilities (summed over outgoing arcs) stay normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import LabeledGraph
from .states import as_amplitude_vector

__all__ = [
    "ArcIndex",
    "arc_basis",
    "grover_coin",
    "initial_arc_state",
    "arc_state_from_scores",
    "step",
    "step_inverse",
    "evolve",
    "node_probabilities",
    "transition_profile",
]


@dataclass(frozen=True)
class ArcIndex:
    """Sorted arc enumeration of an undirected graph.

    Arcs are ordered lexicographically by (tail, head); ``node_ptr``
    delimits the outgoing-arc segment of each node in CSR style, and
    ``reverse`` is the involution mapping each arc to its opposite.
    """

    n: int
    tails: np.ndarray
    heads: np.ndarray
    node_ptr: np.ndarray
    reverse: np.ndarray

    @property
    def n_arcs(self) -> int:
        return int(self.tails.shape[0])

    def degree(self, node: int) -> int:
        return int(self.node_ptr[node + 1] - self.node_ptr[node])


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
    if g.edge_count:
        e = g.edges
        tails = np.concatenate([e[:, 0], e[:, 1]])
        heads = np.concatenate([e[:, 1], e[:, 0]])
    else:
        tails = np.empty(0, dtype=np.int64)
        heads = np.empty(0, dtype=np.int64)
    order = np.lexsort((heads, tails))
    tails = tails[order]
    heads = heads[order]
    node_ptr = np.searchsorted(tails, np.arange(n + 1))
    keys = tails * n + heads
    reverse = np.searchsorted(keys, heads * n + tails)
    if not np.array_equal(reverse[reverse], np.arange(tails.shape[0])):
        raise AssertionError("arc reversal failed to be an involution")
    for arr in (tails, heads, node_ptr, reverse):
        arr.setflags(write=False)
    return ArcIndex(n, tails, heads, node_ptr, reverse)


def grover_coin(d: int) -> np.ndarray:
    """Grover diffusion coin ``2/d * J - I`` on a degree-``d`` node."""
    if d < 1:
        raise ValueError(f"coin dimension must be >= 1, got {d}")
    return (2.0 / d) * np.ones((d, d)) - np.eye(d)


def _segment_sums(arcs: ArcIndex, psi: np.ndarray) -> np.ndarray:
    re = np.bincount(arcs.tails, weights=psi.real, minlength=arcs.n)
    im = np.bincount(arcs.tails, weights=psi.imag, minlength=arcs.n)
    return re + 1j * im


def _apply_coin(arcs: ArcIndex, psi: np.ndarray) -> np.ndarray:
    # Grover blocks are real symmetric, hence self-adjoint.
    degrees = np.diff(arcs.node_ptr)
    sums = _segment_sums(arcs, psi)
    return (2.0 / degrees[arcs.tails]) * sums[arcs.tails] - psi


def step(arcs: ArcIndex, psi) -> np.ndarray:
    """One walk step: coin within each node segment, then flip-flop shift."""
    psi = as_amplitude_vector(psi, arcs.n_arcs)
    return _apply_coin(arcs, psi)[arcs.reverse]


def step_inverse(arcs: ArcIndex, psi) -> np.ndarray:
    """Inverse walk step: shift back, then the same self-adjoint coin."""
    psi = as_amplitude_vector(psi, arcs.n_arcs)
    return _apply_coin(arcs, psi[arcs.reverse])


def evolve(arcs: ArcIndex, psi0, steps: int) -> np.ndarray:
    """State after ``steps`` applications of the walk unitary."""
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    psi = as_amplitude_vector(psi0, arcs.n_arcs)
    for _ in range(int(steps)):
        psi = _apply_coin(arcs, psi)[arcs.reverse]
    return psi


def initial_arc_state(arcs: ArcIndex, node: int) -> np.ndarray:
    """Uniform superposition over the outgoing arcs of ``node``."""
    d = arcs.degree(node)
    if d == 0:
        raise ValueError(
            f"node {node} is isolated and cannot launch an arc-space walk"
        )
    psi = np.zeros(arcs.n_arcs, dtype=np.complex128)
    lo = int(arcs.node_ptr[node])
    psi[lo : lo + d] = 1.0 / np.sqrt(d)
    return psi


def arc_state_from_scores(arcs: ArcIndex, scores) -> np.ndarray:
    """Arc state spreading each node's score across its outgoing arcs.

    Arc (j, k) receives amplitude ``sqrt(scores[j] / degree(j))`` before
    normalization, so the node-probability profile of the initial state
    is proportional to ``scores``.  Positive scores on isolated nodes
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
    psi = np.sqrt(per_arc[arcs.tails]).astype(np.complex128)
    nrm = float(np.linalg.norm(psi))
    if nrm == 0.0:
        raise ValueError("scores must have at least one positive entry")
    return psi / nrm


def node_probabilities(arcs: ArcIndex, psi) -> np.ndarray:
    """Per-node probabilities, summed over each node's outgoing arcs."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if psi.shape[0] != arcs.n_arcs:
        raise ValueError(f"expected {arcs.n_arcs} amplitudes, got {psi.shape[0]}")
    return np.bincount(arcs.tails, weights=np.abs(psi) ** 2, minlength=arcs.n)


def transition_profile(g: LabeledGraph, source, steps: int) -> np.ndarray:
    """Node distribution after ``steps`` from a walker launched at ``source``.

    The walker starts in the uniform superposition over the source's
    outgoing arcs.  ``source`` may be a node label or index.
    """
    arcs = arc_basis(g)
    idx = g.index(source) if isinstance(source, str) else int(source)
    psi = evolve(arcs, initial_arc_state(arcs, idx), steps)
    return node_probabilities(arcs, psi)
