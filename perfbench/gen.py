"""Seeded input generators for the benchmark workloads.

``write_interactome`` mirrors ``data/make_synthetic.py`` at any size: an
Erdos-Renyi background with a planted community that holds the seeds
and targets, three detached fragments, one seed label absent from the
graph and one gene listed in both p-value tables.  Background edges are
drawn as random node pairs and de-duplicated, so memory grows with the
number of edges, not with n**2 as ``np.triu_indices`` would.

``write_cci`` writes a four-layer cell-cell-interaction graph in which
every non-isolated node of the first three layers has four forward
edges; one node per layer has no edge at all, so the coined walker's
zero-row path runs.

The program under test only ever sees the files written here.  The same
arguments write byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BLOCK = 60            # planted community: nodes 0..59
P_IN = 0.30           # intra-community edge probability
N_SEEDS = 12          # community genes 0..11 pass p < 0.01
N_TARGETS = 30        # community genes 12..41 pass p < 5e-8
N_SCORE_DECOYS = 80
N_TARGET_DECOYS = 40
ABSENT_SEED = "GX999"  # seed label that no edge mentions
SHARED_GENE = 5        # seed that the target table lists as well
# fragments detached from the main component, offsets past the main block:
# a triangle, a path and a square
FRAGMENT_EDGES = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (6, 7), (7, 8), (8, 9), (6, 9))
N_FRAGMENT_NODES = 10

CCI_LAYERS = ("sender", "ligand", "receptor", "receiver")
CCI_PREFIX = ("S", "L", "R", "C")
CCI_TARGETS = 3
CCI_FANOUT = 4
MEAN_DEGREE = 6.0


@dataclass(frozen=True)
class InteractomeFiles:
    graph: Path
    scores: Path
    targets: Path


@dataclass(frozen=True)
class CciFiles:
    nodes_path: Path
    edges_path: Path
    targets: tuple[str, ...]


def _label(i: int) -> str:
    return f"G{i:05d}"


def _background_pairs(rng, n_main: int) -> np.ndarray:
    """Distinct pairs (i < j) of an Erdos-Renyi graph, none inside the block."""
    n_pairs = n_main * (n_main - 1) // 2 - BLOCK * (BLOCK - 1) // 2
    m = int(rng.binomial(n_pairs, MEAN_DEGREE / (n_main - 1)))
    codes = np.empty(0, dtype=np.int64)
    while codes.size < m:
        draw = (m - codes.size) * 9 // 8 + 16
        i = rng.integers(0, n_main, size=draw)
        j = rng.integers(0, n_main, size=draw)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        ok = (lo != hi) & (hi >= BLOCK)
        codes = np.concatenate([codes, lo[ok] * n_main + hi[ok]])
        # keep first occurrences in draw order, so truncation stays uniform
        _, first = np.unique(codes, return_index=True)
        codes = codes[np.sort(first)]
    codes = codes[:m]
    return np.stack([codes // n_main, codes % n_main], axis=1)


def _block_pairs(rng) -> np.ndarray:
    iu, ju = np.triu_indices(BLOCK, k=1)
    keep = rng.random(iu.size) < P_IN
    return np.stack([iu[keep], ju[keep]], axis=1)


def write_interactome(out: Path, n: int, seed: int) -> InteractomeFiles:
    """Write ``graph.tsv``, ``scores.tsv`` and ``targets.tsv`` with ``n`` nodes."""
    n_main = n - N_FRAGMENT_NODES
    if n_main <= BLOCK + N_SCORE_DECOYS + N_TARGET_DECOYS:
        raise ValueError(f"interactome of {n} nodes is too small")
    rng = np.random.default_rng([seed, n])
    pairs = np.concatenate([_block_pairs(rng), _background_pairs(rng, n_main)])
    # an edge list cannot declare edgeless nodes, so stitch them in
    lonely = np.flatnonzero(np.bincount(pairs.ravel(), minlength=n_main) == 0)
    stitched = np.stack([lonely, (lonely + 7) % n_main], axis=1)
    pairs = np.sort(np.concatenate([pairs, stitched]), axis=1)
    pairs = np.unique(pairs, axis=0)
    frag = np.asarray(FRAGMENT_EDGES) + n_main

    out.mkdir(parents=True, exist_ok=True)
    graph = out / "graph.tsv"
    lines = [f"# synthetic interactome: planted {BLOCK}-gene community on {n} nodes"]
    lines += [f"{_label(a)}\t{_label(b)}" for a, b in np.concatenate([pairs, frag]).tolist()]
    graph.write_text("\n".join(lines) + "\n")

    scores = out / "scores.tsv"
    lines = ["# seed study p-values (seeds pass p < 0.01)"]
    lines += [f"{_label(i)}\t{0.0005 * (i + 1)}" for i in range(N_SEEDS)]
    decoys = rng.choice(np.arange(BLOCK, n_main), N_SCORE_DECOYS, replace=False)
    lines += [
        f"{_label(i)}\t{round(float(rng.uniform(0.02, 1.0)), 6)}" for i in sorted(decoys)
    ]
    lines.append(f"{ABSENT_SEED}\t0.003")
    scores.write_text("\n".join(lines) + "\n")

    targets = out / "targets.tsv"
    lines = ["# target study p-values (targets pass p < 5e-8)"]
    lines += [f"{_label(i)}\t1e-09" for i in range(N_SEEDS, N_SEEDS + N_TARGETS)]
    lines.append(f"{_label(SHARED_GENE)}\t1e-09")
    decoys = rng.choice(np.arange(BLOCK, n_main), N_TARGET_DECOYS, replace=False)
    lines += [
        f"{_label(i)}\t{round(float(rng.uniform(0.01, 0.9)), 6)}" for i in sorted(decoys)
    ]
    targets.write_text("\n".join(lines) + "\n")

    return InteractomeFiles(graph, scores, targets)


def write_cci(out: Path, per_layer: int, seed: int) -> CciFiles:
    """Write ``cci_nodes.tsv`` and ``cci_edges.tsv`` with four layers."""
    if per_layer <= CCI_FANOUT + 1:
        raise ValueError("each layer needs more nodes than the fanout")
    rng = np.random.default_rng([seed, per_layer, CCI_FANOUT])
    labels = [[f"{p}{i:04d}" for i in range(per_layer)] for p in CCI_PREFIX]
    isolated = rng.integers(0, per_layer, size=len(CCI_LAYERS))
    live = [np.delete(np.arange(per_layer), k) for k in isolated]
    edges = []
    for layer in range(len(CCI_LAYERS) - 1):
        for u in live[layer].tolist():
            for v in sorted(rng.choice(live[layer + 1], CCI_FANOUT, replace=False).tolist()):
                edges.append((labels[layer][u], labels[layer + 1][v]))
    reached = sorted({v for _, v in edges if v.startswith(CCI_PREFIX[-1])})
    targets = tuple(sorted(rng.choice(reached, CCI_TARGETS, replace=False).tolist()))

    out.mkdir(parents=True, exist_ok=True)
    nodes_path = out / "cci_nodes.tsv"
    lines = ["# label\tlayer"]
    for layer, names in zip(CCI_LAYERS, labels):
        lines += [f"{name}\t{layer}" for name in names]
    nodes_path.write_text("\n".join(lines) + "\n")
    edges_path = out / "cci_edges.tsv"
    lines = ["# directed forward-layer edges: sender -> ligand -> receptor -> receiver"]
    lines += [f"{u}\t{v}" for u, v in edges]
    edges_path.write_text("\n".join(lines) + "\n")
    return CciFiles(nodes_path, edges_path, targets)
