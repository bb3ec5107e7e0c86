"""networkx as a reference that owes nothing to this repository's code.

Every oracle in ``walk_oracles.py`` is code of this repository; these check the
restart walk and the component labelling on the bundled interactome
against networkx, where it is installed.  It is no dependency of the
package, so the module is skipped without it.
"""

from pathlib import Path

import numpy as np
import pytest

from netqwalk.classical import rwr_steady_state
from netqwalk.graphs import greatest_component, read_edge_list, weak_labels
from netqwalk.pipeline import read_score_table

nx = pytest.importorskip("networkx")

DATA = Path(__file__).resolve().parent.parent / "data"


def _nx_graph(g):
    G = nx.Graph()
    G.add_nodes_from(g.labels)
    G.add_weighted_edges_from(
        (g.labels[j], g.labels[k], w) for (j, k), w in zip(g.edges.tolist(), g.weights.tolist())
    )
    return G


def test_the_restart_walk_is_networkx_pagerank_personalized_to_the_seeds():
    gc = greatest_component(read_edge_list(DATA / "synthetic_ppi.tsv"))
    scores = read_score_table(DATA / "synthetic_scores.tsv")
    seeds = [gc.index(label) for label, p in scores.items() if p < 0.01 and label in gc]
    assert len(seeds) > 1
    p0 = np.zeros(gc.n)
    p0[seeds] = 1.0 / len(seeds)
    restart = dict(zip(gc.labels, p0.tolist()))
    ranks = nx.pagerank(_nx_graph(gc), alpha=0.85, personalization=restart, dangling=restart,
                        tol=1e-15, weight="weight")
    expected = np.array([ranks[label] for label in gc.labels])
    assert np.max(np.abs(rwr_steady_state(gc, p0, 0.85) - expected)) < 1e-12


def test_weak_labels_split_the_interactome_as_networkx_does():
    g = read_edge_list(DATA / "synthetic_ppi.tsv")
    labels = weak_labels(g.n, g.edges)
    ours = {frozenset(np.asarray(g.labels)[labels == c].tolist()) for c in np.unique(labels)}
    assert len(ours) > 1
    assert ours == {frozenset(c) for c in nx.connected_components(_nx_graph(g))}
