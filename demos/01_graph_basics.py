"""
Loading graphs and reading their connectivity
=============================================

Builds a small two-component network from an in-memory edge list,
prints the matrices the walkers consume, and extracts the greatest
connected component the way every analysis in this package does.
"""

import numpy as np

from netqwalk.graphs import (
    adjacency_matrix,
    degree_vector,
    graph_from_edges,
    graph_stats,
    greatest_component,
    laplacian,
    load_edge_list,
)

# a 5-node core plus a detached pair; duplicate edges merge by summing
# their weights, which is how multi-evidence interactions accumulate
edges = [
    ("braf", "map2k1"),
    ("map2k1", "mapk1"),
    ("mapk1", "braf"),
    ("mapk1", "mapk3"),
    ("mapk3", "dusp6"),
    ("braf", "map2k1"),  # second line of evidence for the same pair
    ("snca", "park7"),
]
g = graph_from_edges(edges)
print("nodes:", g.labels)
print("stats:", graph_stats(g))

# the adjacency and Laplacian back the continuous walkers
with np.printoptions(precision=2, suppress=True):
    print("\nadjacency:\n", adjacency_matrix(g).toarray())
    print("\nweighted degrees:", degree_vector(g))
    print("\nlaplacian:\n", laplacian(g).toarray())

# component decomposition: every pipeline restricts itself to the
# greatest component before walking, so detached fragments never rank
sizes = np.bincount(g.components)  # g.components: each node's component id
print("\nfragments:", sizes.size, "sizes:", sorted(sizes.tolist(), reverse=True))
gc = greatest_component(g)
print("greatest component keeps:", gc.labels)

# the same graph can come from a TSV edge list; a third column holds
# weights, comments and blank lines are skipped
text = """\
# tab-separated interactome excerpt
braf\tmap2k1\t2.0
map2k1\tmapk1
mapk1\tbraf
"""
g2 = load_edge_list(text)
print("\nparsed from text:", graph_stats(g2))
print("braf-map2k1 weight:", adjacency_matrix(g2).toarray()[0, 1])
