"""Hypothesis strategies for small graphs, shared by the property tests.

``edge_lists`` draws the raw input of :func:`graph_from_edges`, so a test
can also hand its index pairs to code that takes them before the
constructor drops self-loops and merges duplicates; ``small_graphs``
draws the :class:`LabeledGraph` built from it.  ``support_cases`` draws a
small CCI graph with the profiles, targets and threshold of a support
subgraph, and ``cci_tables`` the raw node and edge rows of one, bad rows
among them.
"""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from netqwalk.graphs import CCI_LAYERS, build_cci_graph, graph_from_edges

WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
# each layer's name as a node table may spell it
SPELLINGS = [(name, name.title(), f" {name.upper()}", f"{name} ") for name in CCI_LAYERS]


@st.composite
def edge_lists(draw, max_nodes: int = 12):
    """``(labels, edges, directed)``: ``labels`` lists up to ``max_nodes``
    labels and ``edges`` holds ``(u, v, w)`` tuples over them.

    Isolated nodes, self-loops, duplicate edges and zero weights all
    occur, and so do the empty graph and graphs without edges.
    """
    n = draw(st.integers(0, max_nodes))
    labels = [f"v{i}" for i in range(n)]
    edges = []
    if n:
        node = st.sampled_from(labels)
        edges = draw(st.lists(st.tuples(node, node, WEIGHTS), max_size=3 * max_nodes))
    return labels, edges, draw(st.booleans())


def small_graphs(max_nodes: int = 12):
    """A directed or undirected :class:`LabeledGraph` of up to ``max_nodes`` nodes."""
    return edge_lists(max_nodes).map(
        lambda drawn: graph_from_edges(drawn[1], directed=drawn[2], nodes=drawn[0])
    )


@st.composite
def support_cases(draw, per_layer: int = 4):
    """``(cci, profiles, targets, epsilon)``: a four-layer CCI graph of up to
    ``per_layer`` nodes a layer, listed in a shuffled order, with a random
    set of forward edges, some of them repeated; hop probabilities from a
    few values that include ``epsilon`` itself; and target indices from
    every layer.

    Empty layers, isolated nodes and graphs without edges all occur.
    """
    counts = draw(st.lists(st.integers(0, per_layer), min_size=4, max_size=4))
    assume(sum(counts))
    nodes = draw(st.permutations(
        [(f"{layer}{i}", layer) for layer, k in zip(CCI_LAYERS, counts) for i in range(k)]
    ))
    layers = [[label for label, lay in nodes if lay == layer] for layer in CCI_LAYERS]
    hops = [(u, v) for tails, heads in zip(layers, layers[1:]) for u in tails for v in heads]
    kept = draw(st.lists(st.booleans(), min_size=len(hops), max_size=len(hops)))
    edges = [hop for hop, keep in zip(hops, kept) if keep]
    edges += draw(st.lists(st.sampled_from(hops), max_size=4)) if hops else []
    n, epsilon = len(nodes), draw(st.sampled_from([0.1, 0.25, 0.5]))
    values = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])
    profiles = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    targets = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return build_cci_graph(nodes, edges), profiles, targets, epsilon


@st.composite
def cci_tables(draw, max_nodes: int = 6):
    """``(nodes, edges)``: node rows ``(label, layer)`` and edge rows ``(u,
    v)`` as :func:`build_cci_graph` takes them.

    The labels fill the layers in turn, and labels and layer names carry
    spaces or odd case.  A quarter of the tables have a row of layer
    "bogus", which is no layer, and a quarter repeat a label; an edge end
    may be no node.  Half of the edge lists are forward hops, repeats among
    them, a quarter of them followed by a pair of any two labels; the other
    half are any pairs, so self-loops and every kind of bad hop occur,
    before or after good ones.
    """
    labels = draw(st.permutations("abcdefgh"))[: draw(st.integers(1, max_nodes))]
    nodes = [(label, draw(st.sampled_from(SPELLINGS[i % 4]))) for i, label in enumerate(labels)]
    rare = st.sampled_from([False, False, False, True])
    bogus = st.tuples(st.sampled_from([*labels, "y"]), st.just("bogus"))
    for row in (bogus, st.tuples(st.sampled_from(labels), st.sampled_from(sum(SPELLINGS, ())))):
        if draw(rare):
            nodes.insert(draw(st.integers(0, len(nodes))), draw(row))
    forward = [
        (u, v) for i, u in enumerate(labels) for j, v in enumerate(labels) if j % 4 == i % 4 + 1
    ]
    pairs = st.tuples(*[st.sampled_from([*labels, "x"])] * 2)
    edges = draw(st.lists(pairs, max_size=8))
    if forward and draw(st.booleans()):
        edges = draw(st.lists(st.sampled_from(forward), max_size=8)) + edges[: int(draw(rare))]
    pad = st.sampled_from(["{}", " {}", "{} "]).map(lambda form: form.format)
    nodes = [(draw(pad)(label), name) for label, name in nodes]
    return nodes, [(draw(pad)(u), draw(pad)(v)) for u, v in edges]
