"""
Cell-cell-interaction graphs: comparing walkers on a multipartite web
=====================================================================

A CCI graph is four-partite: sender cells release ligands, ligands bind
receptors, receptors signal receiver cells.  Both discrete walkers run
on the symmetrized view; their per-node transition profiles are
compared through pairwise distances, and hop probabilities above a
threshold carve out the communication subgraph that is actually
supported by the walk.
"""

from pathlib import Path

import numpy as np

from netqwalk.metrics import pairwise_distance_matrix
from netqwalk.pipeline import CciConfig, run_cci_analysis

DATA = Path(__file__).resolve().parent.parent / "data"
config = CciConfig(
    nodes_path=str(DATA / "cci_nodes.tsv"),
    edges_path=str(DATA / "cci_edges.tsv"),
    steps=5,
    targets=("C1",),
    epsilon=0.2,
)
result = run_cci_analysis(config)
g = result.cci.graph
print("layers:", result.cci.layer_counts())

# ----------------------------------------------------------------------
# five-step transition profiles (rows = start node)
# ----------------------------------------------------------------------
for walker in ("dtrw", "dtqrw"):
    prof = result.walkers[walker].profiles
    print(f"\n{walker} five-step profiles:")
    print("      " + "  ".join(f"{l:>5s}" for l in g.labels))
    for j, lab in enumerate(g.labels):
        print(f"  {lab:3s} " + "  ".join(f"{v:5.3f}" for v in prof[j]))

# an odd step count matters: the layered graph is bipartite, so even
# step counts put zero mass one layer away from every start node
even = run_cci_analysis(
    CciConfig(
        nodes_path=config.nodes_path, edges_path=config.edges_path,
        steps=4, targets=("C1",), epsilon=0.2,
    )
)
hop = even.walkers["dtqrw"].profiles[g.index("S1"), g.index("L1")]
print(f"\nS1 -> L1 hop probability after 4 (even) steps: {hop}  (bipartite blackout)")

# ----------------------------------------------------------------------
# profile distances separate the two sender lanes
# ----------------------------------------------------------------------
for walker in ("dtrw", "dtqrw"):
    d = pairwise_distance_matrix(result.walkers[walker].profiles)
    s1, s2 = g.index("S1"), g.index("S2")
    print(f"{walker}: distance(S1, S2) = {d[s1, s2]:.4f}")

# ----------------------------------------------------------------------
# the supported communication subgraph at epsilon = 0.2
# ----------------------------------------------------------------------
print("\nsupport subgraphs (hop >= 0.2 along complete sender->receiver paths):")
for walker in ("dtrw", "dtqrw"):
    sub = result.walkers[walker].support
    chain = ", ".join(f"{g.labels[j]}->{g.labels[k]}" for j, k in sub.edges)
    print(f"  {walker}: {chain}")
s2, l2 = g.index("S2"), g.index("L2")
p = result.walkers["dtrw"].profiles[s2, l2]
print(
    f"\nnote: S2->L2 carries probability {p:.2f} but appears in no support set -\n"
    "its lane never reaches a receptor, and only complete three-hop paths count."
)
