"""Hypothesis strategies for small graphs, shared by the property tests.

``edge_lists`` draws the raw input of :func:`graph_from_edges`, so a test
can also hand its index pairs to code that takes them before the
constructor drops self-loops and merges duplicates; ``small_graphs``
draws the :class:`LabeledGraph` built from it.
"""

from hypothesis import strategies as st

from netqwalk.graphs import graph_from_edges

WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.0])


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
