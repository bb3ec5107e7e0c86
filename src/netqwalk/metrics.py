"""Ranking evaluation and walk-profile analysis.

Walker distributions become rankings with ties defined up to rounding;
precision@K and average precision@K score a ranked gene list against a
ground-truth relevance set.  Transition profiles (one distribution per
start node) are compared through their pairwise Euclidean distances, and
thresholded profiles carve communication subgraphs out of CCI networks.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import islice

import numpy as np

from .graphs import CCI_LAYERS, LabeledGraph, PartitionedCciGraph, as_int, as_tuple, node_index

#: Neighbouring probabilities ``a >= b`` in a ranking are tied unless
#: ``a - b > TIE_RTOL * max(|a|, |b|) + TIE_ATOL``.  Propagators return
#: equal probabilities with rounding noise of about 1e-15 that changes
#: with the BLAS build and thread count; the absolute term covers values
#: so small that this noise is a large fraction of them.
TIE_RTOL = 1e-12
TIE_ATOL = 1e-14


@dataclass(frozen=True, eq=False)
class RankedList:
    """Ordered predictions, best first, with the score behind each rank.

    Given ``graph``, ``items`` are its node indices and the list holds
    their labels; the graph's labels are unique, so distinct indices are
    distinct items.
    """

    items: tuple
    scores: np.ndarray
    graph: InitVar[LabeledGraph | None] = None

    def __post_init__(self, graph) -> None:
        if graph is None:
            items = tuple(self.items)
            repeats = len(set(items)) != len(items)
        else:
            items = tuple(graph.label_array.take(self.items))
            repeats = len(items) > 0 and np.bincount(self.items).max() > 1
        scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if len(items) != scores.shape[0]:
            raise ValueError("one score per ranked item is required")
        if repeats:
            raise ValueError("ranked items must be unique")
        if scores.size > 1 and np.any(np.diff(scores) > 0):
            raise ValueError("scores must be non-increasing")
        scores = scores.copy()
        scores.setflags(write=False)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.items)


def rank_by_probability(p, labels=None, exclude=()) -> RankedList:
    """Nodes ranked by probability, ties broken by ascending index.

    Ties are defined up to rounding: after sorting by descending
    probability, a new tie group starts only where neighbours ``a >= b``
    differ by more than ``TIE_RTOL * max(|a|, |b|) + TIE_ATOL``.  Inside a
    group nodes are ordered by ascending index and every score is the
    group's largest value, so the ranking does not follow rounding noise.
    Groups chain: only neighbouring gaps are compared, so a run of values
    whose every consecutive gap is within the tolerance forms one group,
    however far apart its ends are, and a member's score can exceed its
    own probability by more than the tolerance.

    ``labels`` is a sequence of one label per node or a ``LabeledGraph``
    of ``len(p)`` nodes, whose labels are then read from one array without
    a Python int per node.  ``exclude`` removes nodes (indices, or labels
    when ``labels`` is given) from the ranking entirely, which is how seed
    genes are kept out of a prioritized list; an index outside ``[0, n)``
    raises.
    """
    return _rank(p, labels, exclude, TIE_RTOL, TIE_ATOL)


def _rank(p, labels, exclude, rtol, atol) -> RankedList:
    """``rank_by_probability`` with tie tolerances ``rtol`` and ``atol``."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    n = p.shape[0]
    graph = labels if isinstance(labels, LabeledGraph) else None
    if labels is not None and (labels.n if graph is not None else len(labels)) != n:
        raise ValueError("one label per probability is required")
    excluded = set()
    label_index = graph.index if graph is not None else None
    for e in as_tuple(exclude, "exclude"):
        if isinstance(e, str):
            if labels is None:
                raise ValueError("label exclusions require labels")
            # a sequence's index is built once; a repeated label maps to its first index
            label_index = label_index or dict(zip(labels[::-1], range(n - 1, -1, -1))).__getitem__
            try:
                excluded.add(label_index(e))
            except KeyError:
                raise ValueError(f"excluded label {e!r} is not a ranked label") from None
        else:
            excluded.add(node_index(e, n, "excluded node index"))
    keep = np.ones(n, dtype=bool)
    keep[list(excluded)] = False
    nodes = np.flatnonzero(keep)
    vals, m = p[nodes], nodes.shape[0]
    # One unstable sort, then sorts of integer keys that are already in
    # order up to each run of equal values (NaN equals NaN, -0.0 equals 0.0).
    # A sort moves each key only inside its run, so subtracting the run's
    # base recovers the position; equal values end up in index order.
    q = np.argsort(-vals)
    sorted_vals = vals[q]
    new_run = np.ones(m, dtype=bool)
    new_run[1:] = (sorted_vals[1:] != sorted_vals[:-1]) & ~(
        np.isnan(sorted_vals[1:]) & np.isnan(sorted_vals[:-1])
    )
    run_base = (np.cumsum(new_run) - 1) * m
    by_value = np.sort(run_base + q) - run_base
    values = vals[by_value]
    # A NaN gap fails the comparison, so NaN never joins a tie group.
    starts = np.ones(m, dtype=bool)
    gap_tol = rtol * np.maximum(np.abs(values[:-1]), np.abs(values[1:])) + atol
    starts[1:] = ~(values[:-1] - values[1:] <= gap_tol)
    group = np.cumsum(starts) - 1
    # ``nodes`` ascends, so ordering each group by position orders it by index.
    group_base = group * m
    order, scores = nodes[np.sort(group_base + by_value) - group_base], values[starts][group]
    if graph is not None:
        return RankedList(order, scores, graph)
    order = order.tolist()
    return RankedList([labels[i] for i in order] if labels is not None else order, scores)


def _top_items(ranked, k: int) -> list:
    """The first ``k`` items of a ``RankedList`` or of any iterable of items."""
    return list(islice(ranked.items if isinstance(ranked, RankedList) else ranked, k))


def precision_at_k(ranked, relevant, k: int) -> float:
    """Fraction of the first ``k`` ranks that are relevant.

    The denominator stays ``k`` even when fewer than ``k`` items were
    ranked.
    """
    k = as_int(k, "k", 1)
    rel = set(as_tuple(relevant, "relevant"))
    hits = sum(1 for item in _top_items(ranked, k) if item in rel)
    return hits / k


def average_precision_at_k(ranked, relevant, k: int) -> float:
    """Average precision at ``k`` against a nonempty relevance set.

    The precision at each relevant rank ``N <= k`` is averaged and
    normalized by ``min(k, M)`` with ``M`` the relevance-set size, so a
    ranking whose first ``min(k, M)`` items are exactly the relevant
    items scores 1.
    """
    k = as_int(k, "k", 1)
    rel = set(as_tuple(relevant, "relevant"))
    if not rel:
        raise ValueError("relevance set must be nonempty")
    hits = 0
    total = 0.0
    for n, item in enumerate(_top_items(ranked, k), start=1):
        if item in rel:
            hits += 1
            total += hits / n
    return total / min(k, len(rel))


def pairwise_distance_matrix(profiles, others=None) -> np.ndarray:
    """Euclidean distance from every row of ``profiles`` to every row of
    ``others`` (default ``profiles``), shaped as ``cdist(profiles, others)``.
    Each entry depends on its two rows alone, so ``(P[lo:hi], P)`` gives rows
    ``lo:hi`` of the whole symmetric, zero-diagonal matrix bit for bit."""
    mat = _finite_rows(profiles, "profiles")
    other = mat if others is None else _finite_rows(others, "others")
    if other.shape[1] != mat.shape[1]:
        raise ValueError(f"others must have {mat.shape[1]} columns, got {other.shape[1]}")
    # imported here so that only ``cci``, which measures distances, pays for it
    from scipy.spatial.distance import cdist

    # a finite row is exactly 0.0 from itself: every difference is +0.0
    return cdist(mat, other)


def _finite_rows(rows, name: str) -> np.ndarray:
    try:
        mat = np.asarray(rows, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{name} must be rows of one dimension: {exc}") from None
    if mat.ndim != 2 or not mat.shape[0]:
        raise ValueError(f"at least one {name} row is required, as 2-D rows; got {mat.shape}")
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if bad.size:
        raise ValueError(f"{name} row {bad[0]} has a non-finite entry")
    return mat


def walk_support_subgraph(
    cci: PartitionedCciGraph,
    profiles,
    targets,
    epsilon: float,
) -> LabeledGraph:
    """Subgraph of three-hop communication paths supported by a walk.

    A directed edge survives when it lies on some ``sender -> ligand ->
    receptor -> receiver`` path ending in a target whose every hop
    ``u -> v`` carries transition probability ``profiles[u][v] >=
    epsilon``.  The result shares the node set of ``cci`` and its edge
    set shrinks monotonically as ``epsilon`` grows.

    Parameters
    ----------
    profiles : ndarray of shape (n, n)
        Row ``u`` is the walker's node distribution when started at ``u``;
        a non-finite entry raises.
    targets : iterable of node labels or indices
        Receiver-side endpoints of the paths of interest (must be nonempty);
        an index outside ``[0, n)`` raises.
    epsilon : float
        Per-hop probability threshold in (0, 1).
    """
    g = cci.graph
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    target_set = {g.node(t, "target node index") for t in targets}
    if not target_set:
        raise ValueError("at least one target node is required")
    prof = _finite_rows(profiles, "profiles")
    if prof.shape != (g.n, g.n):
        raise ValueError(f"profiles must have shape ({g.n}, {g.n}), got {prof.shape}")
    # PartitionedCciGraph has every edge step one layer forward, so reach spreads
    # one layer per hop: forward from the senders, then backward from the target receivers
    layer, last = cci.layer, len(CCI_LAYERS) - 1
    tails, heads = g.edges.T
    hop, ok = layer[tails], prof[tails, heads] >= epsilon
    reached = layer == 0
    leads = np.isin(np.arange(g.n), list(target_set)) & (layer == last)
    for h in range(last):
        reached[heads[(hop == h) & ok & reached[tails]]] = True
    for h in reversed(range(last)):
        leads[tails[(hop == h) & ok & leads[heads]]] = True
    return LabeledGraph(g.labels, g.edges[ok & reached[tails] & leads[heads]], directed=True)
