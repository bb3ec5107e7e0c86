"""Validated walker states: probability vectors and amplitude vectors.

Both are plain numpy arrays; the helpers here check the defining
invariants (nonnegative unit-sum reals, unit-2-norm complex amplitudes)
and return read-only float64/complex128 copies.
"""

from __future__ import annotations

import numpy as np

PROB_TOL = 1e-10
NORM_TOL = 1e-10


def as_probability_vector(p, n: int | None = None) -> np.ndarray:
    """Validate ``p`` as a distribution over nodes (entries >= 0, sum 1)."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    if n is not None and p.shape[0] != n:
        raise ValueError(f"probability vector has length {p.shape[0]}, expected {n}")
    if not np.all(np.isfinite(p)):
        raise ValueError("probability vector has non-finite entries")
    if p.size == 0:
        raise ValueError("probability vector is empty")
    if p.min() < -PROB_TOL:
        raise ValueError(f"probability vector has negative entry {p.min():g}")
    s = p.sum()
    if abs(s - 1.0) > PROB_TOL:
        raise ValueError(f"probability vector sums to {s!r}, expected 1")
    out = np.clip(p, 0.0, None)
    out.setflags(write=False)
    return out


def as_amplitude_vector(psi, n: int | None = None) -> np.ndarray:
    """Validate ``psi`` as a unit-2-norm complex state vector."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if n is not None and psi.shape[0] != n:
        raise ValueError(f"amplitude vector has length {psi.shape[0]}, expected {n}")
    if not np.all(np.isfinite(psi)):
        raise ValueError("amplitude vector has non-finite entries")
    if psi.size == 0:
        raise ValueError("amplitude vector is empty")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"amplitude vector has 2-norm {nrm!r}, expected 1")
    out = psi.copy()
    out.setflags(write=False)
    return out


def delta_distribution(n: int, i: int) -> np.ndarray:
    """Point mass on node ``i``."""
    p = np.zeros(n)
    p[i] = 1.0
    return p


def uniform_distribution(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)
