"""Ranking evaluation and walk-profile analysis.

Walker distributions become rankings with ties defined up to rounding;
precision@K and average precision@K score a ranked gene list against a
ground-truth relevance set.  Transition profiles (one distribution per
start node) are compared through their pairwise Euclidean distances, and
thresholded profiles carve communication subgraphs out of CCI networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import LabeledGraph, PartitionedCciGraph, node_index

#: Neighbouring probabilities ``a >= b`` in a ranking are tied unless
#: ``a - b > TIE_RTOL * max(|a|, |b|) + TIE_ATOL``.  Propagators return
#: equal probabilities with rounding noise of about 1e-15 that changes
#: with the BLAS build and thread count; the absolute term covers values
#: so small that this noise is a large fraction of them.
TIE_RTOL = 1e-12
TIE_ATOL = 1e-14


@dataclass(frozen=True)
class RankedList:
    """Ordered predictions, best first, with the score behind each rank."""

    items: tuple
    scores: np.ndarray

    def __post_init__(self) -> None:
        items = tuple(self.items)
        scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if len(items) != scores.shape[0]:
            raise ValueError("one score per ranked item is required")
        if len(set(items)) != len(items):
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

    ``exclude`` removes nodes (indices, or labels when ``labels`` is
    given) from the ranking entirely, which is how seed genes are kept
    out of a prioritized list; an index outside ``[0, n)`` raises.
    """
    return _rank(p, labels, exclude, TIE_RTOL, TIE_ATOL)


def _rank(p, labels, exclude, rtol, atol) -> RankedList:
    """``rank_by_probability`` with tie tolerances ``rtol`` and ``atol``."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    n = p.shape[0]
    if labels is not None and len(labels) != n:
        raise ValueError("one label per probability is required")
    excluded = set()
    for e in exclude:
        if isinstance(e, str):
            if labels is None:
                raise ValueError("label exclusions require labels")
            excluded.add(list(labels).index(e))
        else:
            excluded.add(node_index(e, n, "excluded node index"))
    keep = np.ones(n, dtype=bool)
    keep[list(excluded)] = False
    nodes = np.flatnonzero(keep)
    by_value = np.argsort(-p[nodes], kind="stable")
    values = p[nodes][by_value]
    # A NaN gap fails the comparison, so NaN never joins a tie group.
    starts = np.ones(nodes.shape[0], dtype=bool)
    gap_tol = rtol * np.maximum(np.abs(values[:-1]), np.abs(values[1:])) + atol
    starts[1:] = ~(values[:-1] - values[1:] <= gap_tol)
    group = np.cumsum(starts) - 1
    # ``nodes`` ascends, so a stable sort by group orders each group by index.
    group_of_node = np.empty_like(group)
    group_of_node[by_value] = group
    order = nodes[np.argsort(group_of_node, kind="stable")].tolist()
    items = tuple([labels[i] for i in order] if labels is not None else order)
    return RankedList(items, values[starts][group])


def _ranked_items(ranked) -> list:
    return list(ranked.items) if isinstance(ranked, RankedList) else list(ranked)


def precision_at_k(ranked, relevant, k: int) -> float:
    """Fraction of the first ``k`` ranks that are relevant.

    The denominator stays ``k`` even when fewer than ``k`` items were
    ranked.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    items = _ranked_items(ranked)
    rel = set(relevant)
    hits = sum(1 for item in items[:k] if item in rel)
    return hits / k


def average_precision_at_k(ranked, relevant, k: int) -> float:
    """Average precision at ``k`` against a nonempty relevance set.

    The precision at each relevant rank ``N <= k`` is averaged and
    normalized by ``min(k, M)`` with ``M`` the relevance-set size, so a
    ranking whose first ``min(k, M)`` items are exactly the relevant
    items scores 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rel = set(relevant)
    if not rel:
        raise ValueError("relevance set must be nonempty")
    items = _ranked_items(ranked)
    hits = 0
    total = 0.0
    for n, item in enumerate(items[:k], start=1):
        if item in rel:
            hits += 1
            total += hits / n
    return total / min(k, len(rel))


def pairwise_distance_matrix(profiles) -> np.ndarray:
    """Euclidean distance between every pair of rows of the 2-D array
    ``profiles``, one distribution per row.  The result is symmetric with a
    zero diagonal.
    """
    try:
        mat = np.asarray(profiles, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"profiles must be rows of one dimension: {exc}") from None
    if mat.ndim != 2 or not mat.shape[0]:
        raise ValueError(f"at least one profile is required, as 2-D rows; got shape {mat.shape}")
    # imported here so that only ``cci``, which measures distances, pays for it
    from scipy.spatial.distance import cdist

    d = cdist(mat, mat)
    np.fill_diagonal(d, 0.0)
    return d


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
        Row ``u`` is the walker's node distribution when started at ``u``.
    targets : iterable of node labels or indices
        Receiver-side endpoints of the paths of interest (must be nonempty);
        an index outside ``[0, n)`` raises.
    epsilon : float
        Per-hop probability threshold in (0, 1).
    """
    g = cci.graph
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")

    def to_index(x) -> int:
        return g.index(x) if isinstance(x, str) else node_index(x, g.n, "target node index")

    target_set = {to_index(t) for t in targets}
    if not target_set:
        raise ValueError("at least one target node is required")
    prof = np.asarray(profiles, dtype=np.float64)
    if prof.shape != (g.n, g.n):
        raise ValueError(f"profiles must have shape ({g.n}, {g.n}), got {prof.shape}")
    succ: dict[int, list[int]] = {}
    for j, k in g.edges:
        succ.setdefault(int(j), []).append(int(k))
    kept: set[tuple[int, int]] = set()
    for s in cci.nodes_in_layer("sender"):
        for l in succ.get(s, ()):  # noqa: E741 - ligand index
            if prof[s, l] < epsilon:
                continue
            for r in succ.get(l, ()):
                if prof[l, r] < epsilon:
                    continue
                for ct in succ.get(r, ()):
                    if ct in target_set and prof[r, ct] >= epsilon:
                        kept.update(((s, l), (l, r), (r, ct)))
    edges = np.array(sorted(kept), dtype=np.int64).reshape(-1, 2)
    return LabeledGraph(g.labels, edges, directed=True)
