"""Definition oracles for the classical and the quantum walks, and for
the ranking of their distributions.

Each is built from the dense adjacency (or the edge arrays) alone, not
from ``netqwalk.classical``, ``netqwalk.ctqrw``, ``netqwalk.dtqrw`` or
``netqwalk.expm``, so a test that compares the two does not share the
kernels' normalization, their rule for dangling nodes (nodes with no
outgoing weight), their Hamiltonian assembly, their exponential, or the
coined walk's arc enumeration, coin and shift.

``cci_graph_oracle`` checks a CCI graph's rows one at a time and builds
it through :func:`graph_from_edges`, where ``build_cci_graph`` checks
every hop in one array operation.
"""

import numpy as np
import scipy.linalg

from netqwalk.graphs import CCI_LAYERS, CciValidationError, adjacency_matrix, graph_from_edges


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


def random_graph(rng, n):
    """Connected undirected graph on ``v0``..``v{n-1}``: a path, plus up to
    ``n`` random chords (duplicates merge, self-loops are skipped)."""
    edges = [(f"v{j}", f"v{j + 1}") for j in range(n - 1)]
    for _ in range(n):
        j, k = rng.integers(0, n, size=2)
        if j != k:
            edges.append((f"v{j}", f"v{k}"))
    return graph_from_edges(edges)


def weighted_graph_with_isolated_node():
    """Undirected graph on nine nodes with weights in [0.5, 2]: a cycle with
    chords on ``v0``-``v7``, and ``v8`` without edges."""
    rng = np.random.default_rng(51)
    pairs = [(j, (j + 1) % 8) for j in range(8)] + [(0, 4), (1, 6), (2, 5), (3, 7)]
    edges = [(f"v{j}", f"v{k}", w) for (j, k), w in zip(pairs, rng.uniform(0.5, 2.0, 12))]
    return graph_from_edges(edges, nodes=[f"v{j}" for j in range(9)])


def graph_with_leaves_and_isolated(rng, n):
    """Random graph; its last two nodes are isolated, its next-to-last two
    are degree-1 leaves hanging off random core nodes."""
    labels = [f"v{j}" for j in range(n)]
    core = n - 4
    edges = [(labels[j], labels[(j + 1) % core]) for j in range(core)]
    edges += [(labels[j], labels[k]) for j, k in rng.integers(0, core, size=(core, 2)) if j != k]
    edges += [(labels[n - 4], labels[int(rng.integers(0, core))]),
              (labels[n - 3], labels[int(rng.integers(0, core))])]
    return graph_from_edges(edges, nodes=labels)


def _laplacian(a):
    return np.diag(a.sum(axis=1)) - a


def ctrw_oracle(g, p0, t):
    """Diffusion ``expm(-L t) p0`` with ``L = D - A`` from the dense adjacency."""
    return scipy.linalg.expm(-t * _laplacian(adjacency_matrix(g).toarray())) @ p0


def hamiltonian(g, kind, phases=None):
    """Dense walk Hamiltonian: ``A``, ``D - A``, or (chiral) the sum over the
    stored edges ``(j, k)`` of weight ``w`` and angle ``phi`` of
    ``w exp(i phi)`` at ``(j, k)`` and ``w exp(-i phi)`` at ``(k, j)``."""
    if kind == "adjacency":
        return adjacency_matrix(g).toarray()
    if kind == "laplacian":
        return _laplacian(adjacency_matrix(g).toarray())
    h = np.zeros((g.n, g.n), dtype=np.complex128)
    for (j, k), w, phi in zip(g.edges.tolist(), g.weights, phases):
        h[j, k] += w * np.exp(1j * phi)
        h[k, j] += w * np.exp(-1j * phi)
    return h


def ctqrw_oracle(h, p0, t, collapses=()):
    """Node distribution at ``t`` of the walk ``expm(-i H t)`` from the
    amplitudes ``p0 / |p0|_2``, collapsed at each time of ``collapses``
    before ``t``: the state becomes ``|psi|^2`` over its 2-norm."""
    psi, start = np.asarray(p0, dtype=np.complex128) / np.linalg.norm(p0), 0.0
    for tc in [c for c in collapses if c < t]:
        psi = np.abs(scipy.linalg.expm(-1j * (tc - start) * h) @ psi) ** 2
        psi, start = psi / np.linalg.norm(psi), tc
    return np.abs(scipy.linalg.expm(-1j * (t - start) * h) @ psi) ** 2


def coined_walk_unitary(g):
    """Dense arc-space walk ``S C`` of an undirected graph, and the tail and
    the head of each arc.

    The arcs ``(j, k)`` are the nonzero entries of the dense adjacency,
    listed by head and then by tail.  ``C`` is block diagonal, with the
    Grover block ``2/d J - I`` on the ``d`` arcs leaving each node, and the
    flip-flop shift ``S`` moves the amplitude of ``(j, k)`` onto ``(k, j)``.
    """
    heads, tails = np.nonzero(adjacency_matrix(g).toarray().T)
    index = {(j, k): a for a, (j, k) in enumerate(zip(tails.tolist(), heads.tolist()))}
    coin = np.zeros((len(index), len(index)))
    for node in np.unique(tails):
        out = np.flatnonzero(tails == node)
        coin[np.ix_(out, out)] = 2.0 / out.size - np.eye(out.size)
    shift = np.zeros_like(coin)
    for (j, k), a in index.items():
        shift[index[(k, j)], a] = 1.0
    return shift @ coin, tails, heads


def coined_walk_unitary_in(g, tails, heads):
    """:func:`coined_walk_unitary` with its arcs listed in another order: row
    and column ``a`` belong to the arc ``(tails[a], heads[a])``."""
    u, own_tails, own_heads = coined_walk_unitary(g)
    own = {arc: a for a, arc in enumerate(zip(own_tails.tolist(), own_heads.tolist()))}
    order = [own[arc] for arc in zip(np.asarray(tails).tolist(), np.asarray(heads).tolist())]
    return u[np.ix_(order, order)]


def cci_graph_oracle(nodes, edges):
    """``(graph, layers)`` of the node rows ``(label, layer)`` and the edge
    rows ``(u, v)``: ``layers`` names each node's layer.  The first bad node
    row, then the first bad edge row, raises a CciValidationError."""
    seen: dict[str, str] = {}
    for label, layer in nodes:
        label = str(label).strip()
        layer = str(layer).strip().lower()
        if layer not in CCI_LAYERS:
            raise CciValidationError(
                f"node {label!r}: unknown layer {layer!r} "
                f"(expected one of {', '.join(CCI_LAYERS)})"
            )
        if label in seen:
            raise CciValidationError(f"duplicate node label {label!r}")
        seen[label] = layer
    rank = {layer: i for i, layer in enumerate(CCI_LAYERS)}
    pairs = []
    for u, v in edges:
        u, v = str(u).strip(), str(v).strip()
        for endpoint in (u, v):
            if endpoint not in seen:
                raise CciValidationError(
                    f"edge ({u}, {v}): unknown node {endpoint!r}"
                )
        du, dv = rank[seen[u]], rank[seen[v]]
        if dv != du + 1:
            if du == dv:
                kind = "intra-layer edge"
            elif dv < du:
                kind = "reverse-direction edge"
            else:
                kind = "layer-skipping edge"
            raise CciValidationError(
                f"{kind} ({u} [{seen[u]}] -> {v} [{seen[v]}]) is not allowed"
            )
        pairs.append((u, v))
    return graph_from_edges(pairs, directed=True, nodes=seen), tuple(seen.values())


def support_oracle(cci, profiles, targets, epsilon):
    """Sorted ``(tail, head)`` index pairs of the edges that lie on some
    ``sender -> ligand -> receptor -> receiver`` path ending in a node of
    ``targets`` (indices) whose every hop ``(u, v)`` has ``profiles[u, v] >=
    epsilon``, found by listing every three-hop path from every sender."""
    succ = {}
    for j, k in cci.graph.edges.tolist():
        succ.setdefault(j, []).append(k)
    kept = set()
    for s in cci.nodes_in_layer("sender"):
        for lig in succ.get(s, ()):
            for r in succ.get(lig, ()):
                for c in succ.get(r, ()):
                    hops = ((s, lig), (lig, r), (r, c))
                    if c in targets and all(profiles[u, v] >= epsilon for u, v in hops):
                        kept.update(hops)
    return sorted(kept)


def dtqrw_oracle(g, p0, steps):
    """Node distribution after ``steps`` coined-walk steps, as ``(S C)^steps``
    on the start state whose arcs leaving node ``j`` each hold amplitude
    ``sqrt(p0[j] / deg(j))``, over its 2-norm; the probability of a node sums
    ``|psi|^2`` over the arcs leaving it.  ``p0`` may be a block of columns."""
    u, tails, _ = coined_walk_unitary(g)
    degree = np.bincount(tails, minlength=g.n)
    p = np.asarray(p0, dtype=np.float64).reshape(g.n, -1)
    psi = np.sqrt(p[tails] / degree[tails, None])
    psi = psi / np.linalg.norm(psi, axis=0)
    prob = np.abs(np.linalg.matrix_power(u, steps) @ psi) ** 2
    out = np.array([prob[tails == node].sum(axis=0) for node in range(g.n)])
    return out.reshape(np.shape(p0))


def rank_oracle(p, labels, exclude, rtol, atol):
    """``(items, scores)`` of ``metrics._rank`` by two stable mergesorts: nodes
    sorted by descending value (equal values, NaN among them, by index), cut
    into tie groups where a neighbouring gap exceeds ``rtol * max(|a|, |b|) +
    atol``, then sorted by group (members by index); a member scores its
    group's first value.  ``exclude`` holds indices and labels."""
    p = np.asarray(p, dtype=np.float64)
    excluded = {list(labels).index(e) if isinstance(e, str) else int(e) for e in exclude}
    nodes = np.array([i for i in range(p.shape[0]) if i not in excluded], dtype=np.int64)
    by_value = np.argsort(-p[nodes], kind="stable")
    values = p[nodes][by_value]
    starts = np.ones(nodes.shape[0], dtype=bool)
    gap_tol = rtol * np.maximum(np.abs(values[:-1]), np.abs(values[1:])) + atol
    starts[1:] = ~(values[:-1] - values[1:] <= gap_tol)
    group = np.cumsum(starts) - 1
    group_of_node = np.empty_like(group)
    group_of_node[by_value] = group
    order = nodes[np.argsort(group_of_node, kind="stable")].tolist()
    items = tuple([labels[i] for i in order] if labels is not None else order)
    return items, values[starts][group]
