"""
Wavefunction collapse: trading interference for classical spreading
===================================================================

At each scheduled time the state is replaced by its normalized
squared-modulus profile: the probabilities survive, the phases do not.
Between collapses the evolution stays fully quantum.  Dense schedules
push the dynamics toward classical diffusion; this demo shows the
effect on revival dynamics and on where the walker ends up.
"""

import numpy as np

from netqwalk.ctqrw import (
    HamiltonianSpec,
    build_hamiltonian,
    collapse,
    evolve,
    evolve_with_collapses,
    measure,
)
from netqwalk.graphs import graph_from_edges

# ----------------------------------------------------------------------
# the 2-node revival and how one collapse destroys it
# ----------------------------------------------------------------------
# At t = pi/4 the amplitudes are (cos(pi/4), -i sin(pi/4)): an equal
# split whose relative phase is exactly what refocuses the walker at
# t = pi.  Collapsing there keeps the 50/50 profile but forgets the
# phase, so the revival tops out at 1/2.  (Collapsing at t = pi/2 would
# change nothing: the state is momentarily a basis state, and a basis
# state is its own collapse.)
k2 = graph_from_edges([("u", "v")])
h2 = build_hamiltonian(k2, HamiltonianSpec.adjacency())
psi0 = np.array([1.0, 0.0], dtype=complex)

coherent = measure(evolve(h2, psi0, np.pi))
collapsed = measure(evolve_with_collapses(h2, psi0, np.pi, schedule=(np.pi / 4,)))
harmless = measure(evolve_with_collapses(h2, psi0, np.pi, schedule=(np.pi / 2,)))
print("two-node walker at t = pi (a full revival for coherent evolution):")
print(f"  coherent           : P(start) = {coherent[0]:.6f}")
print(f"  collapsed at t=pi/4: P(start) = {collapsed[0]:.6f}")
print(f"  collapsed at t=pi/2: P(start) = {harmless[0]:.6f}  (basis state; no-op)")

# ----------------------------------------------------------------------
# collapse is just |psi|^2, renormalized to a unit state
# ----------------------------------------------------------------------
psi = np.array([np.sqrt(0.8), np.sqrt(0.2)], dtype=complex)
print("\ncollapse of (sqrt(.8), sqrt(.2)):", np.round(collapse(psi).real, 6))

# ----------------------------------------------------------------------
# denser schedules on a ring: the ballistic front gives way to a
# diffusive blob centered on the start node
# ----------------------------------------------------------------------
n = 24
ring = graph_from_edges([(f"v{j}", f"v{(j + 1) % n}") for j in range(n)])
h = build_hamiltonian(ring, HamiltonianSpec.adjacency())
psi0 = np.zeros(n, dtype=complex)
psi0[0] = 1.0
t_final = 6.0

positions = np.minimum(np.arange(n), n - np.arange(n))  # ring distance to node 0
print(f"\nring of {n} nodes, t = {t_final}: spread vs collapse density")
for n_collapses in (0, 1, 3, 11):
    times = tuple(t_final * (i + 1) / (n_collapses + 1) for i in range(n_collapses))
    p = measure(evolve_with_collapses(h, psi0, t_final, schedule=times))
    mean_dist = float((positions * p).sum())
    p_home = float(p[0])
    print(
        f"  {n_collapses:2d} collapses: mean distance {mean_dist:.3f}, "
        f"P(start) = {p_home:.3f}"
    )
print("more collapses -> shorter coherent stretches -> slower, more classical spread")
