"""
Chiral Hamiltonians: breaking the direction symmetry
====================================================

A real Hamiltonian always gives P(j -> k) = P(k -> j).  Putting a unit
phase exp(i*phi) on each edge keeps the generator Hermitian but lets a
cycle carry circulation, so transport acquires a preferred direction.
This demo scans the 3-cycle at phi = pi/2 (the maximally chiral point)
and shows that randomized phases steer a walker around an odd ring while
an even ring stays perfectly balanced.
"""

import numpy as np

from netqwalk.ctqrw import (
    build_hamiltonian,
    transition_probability,
    uniform_chiral_phases,
)
from netqwalk.graphs import graph_from_edges

# ----------------------------------------------------------------------
# the 3-cycle at phi = pi/2
# ----------------------------------------------------------------------
tri = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a")])
h_real = build_hamiltonian(tri, "adjacency")
h_chiral = build_hamiltonian(tri, "chiral", uniform_chiral_phases(tri, np.pi / 2))

print("forward/backward transfer on the 3-cycle (source a, sink b):")
print("        real H           chiral H (phi = pi/2)")
for t in (0.5, 1.0, 1.5, 2.0, 3.6):
    fr = transition_probability(h_real, 1, 0, t)
    br = transition_probability(h_real, 0, 1, t)
    fc = transition_probability(h_chiral, 1, 0, t)
    bc = transition_probability(h_chiral, 0, 1, t)
    print(f"  t={t:3.1f}  {fr:.4f}/{br:.4f}      {fc:.4f}/{bc:.4f}")

ts = np.arange(0.01, 5.0, 0.01)
asym = [
    abs(
        transition_probability(h_chiral, 1, 0, float(t))
        - transition_probability(h_chiral, 0, 1, float(t))
    )
    for t in ts
]
i = int(np.argmax(asym))
print(f"\nmax asymmetry {asym[i]:.4f} at t = {ts[i]:.2f}  (real H: exactly 0)")

# ----------------------------------------------------------------------
# phases are oriented along the stored edge direction
# ----------------------------------------------------------------------
m = h_chiral.matrix.toarray()
print("\nchiral H entries (note conjugate pairs):")
print(f"  H[a,b] = {m[0, 1]:.3f}   H[b,a] = {m[1, 0]:.3f}")

# ----------------------------------------------------------------------
# random phases on rings: odd cycles can be steered, even cycles cannot
# ----------------------------------------------------------------------
# An even ring is bipartite, and a pure-hopping Hamiltonian on a
# bipartite graph anticommutes with the sublattice sign operator.
# Together with the ring's mirror symmetry that forces
# P(clockwise) = P(counterclockwise) from a localized start, no matter
# which phases the edges carry.  Odd rings have no such protection, so
# random phases generically bias the flow.
from netqwalk.ctqrw import evolve, measure, random_chiral_phases

print("\nrandom-phase rings at t=4 (start v0, same phase seed):")
for n in (12, 13):
    ring = graph_from_edges([(f"v{j}", f"v{(j + 1) % n}") for j in range(n)])
    h_rand = build_hamiltonian(ring, "chiral", random_chiral_phases(ring, rng=7))
    psi0 = np.zeros(n, dtype=complex)
    psi0[0] = 1.0
    p = measure(evolve(h_rand, psi0, 4.0))
    clockwise = p[1 : (n + 1) // 2].sum()
    counter = p[n // 2 + 1 :].sum()
    tag = "even ring: tie is exact" if n % 2 == 0 else "odd ring: biased"
    print(
        f"  n={n}: clockwise {clockwise:.3f}  counter {counter:.3f}"
        f"  ({tag})"
    )
    print(f"       total probability {p.sum():.12f}")
