"""
Continuous-time quantum walks: oscillation instead of relaxation
================================================================

Evolves unit states under exp(-iHt) on small graphs where the dynamics
are known in closed form, then ranks nodes by measurement probability
the way the prioritization pipeline does.
"""

import numpy as np

from netqwalk.ctqrw import (
    HamiltonianSpec,
    build_hamiltonian,
    evolve,
    measure,
    transition_probability,
    transition_rate,
)
from netqwalk.graphs import graph_from_edges
from netqwalk.metrics import rank_by_probability

# ----------------------------------------------------------------------
# two nodes: the walker oscillates, it never settles
# ----------------------------------------------------------------------
k2 = graph_from_edges([("u", "v")])
h2 = build_hamiltonian(k2, HamiltonianSpec.adjacency())
print("two-node transfer probability |<v|exp(-iHt)|u>|^2 vs sin^2(t):")
for t in (0.0, 0.5, np.pi / 2, 2.5, np.pi):
    p = transition_probability(h2, 1, 0, t)
    print(f"  t={t:5.3f}   p={p:.6f}   sin^2={np.sin(t) ** 2:.6f}")

# the instantaneous rate matches d/dt sin^2 = sin(2t)
t = 0.8
print(f"rate at t={t}: {transition_rate(h2, 1, 0, t):.6f} vs {np.sin(2 * t):.6f}")

# ----------------------------------------------------------------------
# triangle: the complete-graph spectrum caps the transfer at 4/9
# ----------------------------------------------------------------------
tri = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a")])
h3 = build_hamiltonian(tri, HamiltonianSpec.adjacency())
peak = max(transition_probability(h3, 1, 0, t) for t in np.linspace(0, 10, 2001))
print(f"\ntriangle peak transfer: {peak:.6f}  (closed form caps it at 4/9 = {4 / 9:.6f})")

# ----------------------------------------------------------------------
# a 6-node graph: evolve, measure, rank
# ----------------------------------------------------------------------
g = graph_from_edges(
    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c"), ("d", "e"), ("e", "f")]
)
h = build_hamiltonian(g, HamiltonianSpec.adjacency())
psi0 = np.zeros(g.n, dtype=complex)
psi0[g.index("a")] = 1.0

print("\nmeasurement distributions from 'a':")
for t in (0.5, 1.0, 2.0):
    p = measure(evolve(h, psi0, t))
    with np.printoptions(precision=3, suppress=True):
        print(f"  t={t:3.1f}: {p}   (sum={p.sum():.12f})")

# ranking excludes the seed, exactly as the gene prioritization does
p = measure(evolve(h, psi0, 1.2))
ranking = rank_by_probability(p, labels=g.labels, exclude=["a"])
print("\nranking at t=1.2 without the seed:")
for label, score in zip(ranking.items, ranking.scores):
    print(f"  {label}  {score:.4f}")

# norm preservation is what separates this from diffusion
drift = abs(np.linalg.norm(evolve(h, psi0, 37.0)) - 1.0)
print(f"\nnorm drift after t=37: {drift:.2e}")
