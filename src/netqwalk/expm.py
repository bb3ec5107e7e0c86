"""Numerically controlled action of matrix exponentials on vectors.

Two generators are supported: Hermitian matrices driving unitary
Schroedinger evolution (``exp(-iHt) v``) and symmetric PSD Laplacians
driving classical diffusion (``exp(-Lt) p``).  Only the action on a
vector is ever formed, never the full exponential.

Kernels
-------
The graph size alone picks the kernel; neither entry point takes options.

dense
    Eigendecomposition of the dense matrix (LAPACK divide and conquer,
    ``driver="evd"``), cached on the :class:`SparseHermitian` wrapper.
    Used for n <= ``DENSE_LIMIT``.  LAPACK writes V over the Fortran-ordered
    dense matrix, so the peak is one n x n array plus LAPACK's workspace of
    about 2n^2 entries.  The state is projected once, ``coef = V^dagger v``,
    and a block of T times is one product ``V @ (exp(scale * outer(w,
    times)) * coef)``.  A real generator (adjacency, Laplacian) is
    decomposed in real arithmetic and its real orthogonal eigenvectors act
    on the ``2T`` real columns of the states' real and imaginary parts, so
    no n x n complex array is formed.
lanczos
    Lanczos (Krylov) action with full reorthogonalization on a basis
    stored as the rows of one C-contiguous array, grown until the
    a-posteriori error estimate drops below ``DEFAULT_TOL``.  A block's
    longest time is split into substeps with ``norm(H) * dt <= SPLIT_BOUND``,
    and one basis per substep gives its times and the state at its end; if
    one reaches ``_MAX_KRYLOV`` vectors, the substeps are doubled.  A time
    that needs more than ``_MAX_SUBSTEPS`` substeps is refused.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .states import as_probability_columns

DENSE_LIMIT = 2000
DEFAULT_TOL = 1e-10
SPLIT_BOUND = 20.0
_MAX_KRYLOV = 120
# each substep builds at least one Krylov basis, about 10 ms at 4,000 nodes,
# so a longer plan runs for hours, and near 2**63 its substep indices overflow
_MAX_SUBSTEPS = 100_000
_BLOCK_BYTES = 4 << 20  # the largest block of complex states of one action


class HermiticityError(ValueError):
    """Matrix is not Hermitian (or not real symmetric where required)."""


class ConvergenceError(RuntimeError):
    """Iterative kernel failed to reach the requested tolerance."""


@dataclass(frozen=True, eq=False)
class SparseHermitian:
    """Sparse Hermitian matrix with cached spectral data.

    The wrapped matrix is validated to be square, entrywise finite and
    Hermitian within 1e-12.  It is held as float64 when every entry is
    real and as complex128 otherwise.  The eigendecomposition and the
    spectral-norm estimate are computed once, on first use, and reused
    across evolutions.
    """

    matrix: sp.csr_matrix

    def __post_init__(self) -> None:
        import scipy.sparse as sp

        m = sp.csr_matrix(self.matrix)
        real = not m.data.imag.any()
        m = (m.real if real else m).astype(np.float64 if real else np.complex128)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if m.nnz and not np.all(np.isfinite(m.data)):
            raise ValueError("matrix has non-finite entries")
        dev = m - m.getH()
        if dev.nnz and np.abs(dev.data).max() > 1e-12:
            raise HermiticityError(
                f"matrix deviates from Hermitian by {np.abs(dev.data).max():g}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_real(self) -> bool:
        return self.matrix.dtype == np.float64

    @cached_property
    def eigendecomposition(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense eigendecomposition (w, V) with H = V diag(w) V^dagger.

        For a real H the decomposition runs in real arithmetic and V is a
        real orthogonal float64 matrix; otherwise V is complex unitary.
        """
        import scipy.linalg  # only the continuous walkers pay for it

        # a Fortran-ordered array is not copied; LAPACK writes V over it
        return scipy.linalg.eigh(self.matrix.toarray(order="F"), driver="evd", overwrite_a=True)

    @cached_property
    def norm_estimate(self) -> float:
        """Spectral norm estimate from 20 power iterations."""
        rng = np.random.default_rng(1905)
        v = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
        v /= np.linalg.norm(v)
        for _ in range(20):
            w = self.matrix @ v
            est = np.linalg.norm(w)
            if est == 0.0:  # almost surely a zero matrix
                break
            v = w / est
        # modest inflation: power iteration only approaches the norm
        return 1.1 * float(est)


def as_hermitian(matrix) -> SparseHermitian:
    """Wrap (and validate) a matrix as :class:`SparseHermitian`."""
    import scipy.sparse as sp

    if isinstance(matrix, SparseHermitian):
        return matrix
    return SparseHermitian(sp.csr_matrix(matrix))


def _real_matmul(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m @ x`` for a real matrix ``m`` without casting ``m`` to complex.

    A complex ``x``, a vector or an (n, T) block, is multiplied as the
    float64 columns of its real and imaginary parts, a view of ``x``.
    """
    if not np.iscomplexobj(x):
        return m @ x
    cols = np.ascontiguousarray(x).view(np.float64).reshape(x.shape[0], -1)
    return (m @ cols).view(np.complex128).reshape(x.shape)


def _dense_apply(op: SparseHermitian, v: np.ndarray, unit: complex, times) -> np.ndarray:
    """The columns ``exp(unit * t * H) v`` of ``times``: one projection, one product."""
    w, vec = op.eigendecomposition
    phase = np.exp(np.outer(w, unit * times))
    if np.iscomplexobj(vec):
        # V^dagger v without materialising the conjugate transpose of V
        return vec @ (phase * (vec.T @ v.conj()).conj()[:, None])
    return _real_matmul(vec, phase * _real_matmul(vec.T, v)[:, None])


def time_blocks(times, n: int) -> list[np.ndarray]:
    """``times`` in blocks of at most ``_BLOCK_BYTES`` of complex states, the
    rows of one action of either kernel; a sweep evolves each block from the
    last row of the block before it."""
    times = np.asarray(times, dtype=np.float64)
    size = max(1, _BLOCK_BYTES // (16 * n))
    return [times[i:i + size] for i in range(0, times.size, size)]


@cache
def _openblas_threads():
    """``(get, set)`` thread-count calls of numpy's bundled OpenBLAS, or None."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_"):
            if hasattr(lib, name.format("set")):
                return getattr(lib, name.format("get")), getattr(lib, name.format("set"))
    return None


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread for the body, then restore it.

    The Lanczos GEMVs on at most 121 x n blocks gain little from threads,
    and while other processes load the CPUs every threaded call waits for
    a descheduled worker: run times swung by 2-3x.
    """
    get, put = _openblas_threads() or (lambda: None, lambda _: None)
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _lanczos_apply(
    a: sp.csr_matrix, v: np.ndarray, scales: np.ndarray, tol: float
) -> np.ndarray | None:
    """Rows exp(s * A) v, one per s of ``scales``, from one basis; None if the cap is hit.

    A is Hermitian so the projected matrix is a real symmetric tridiagonal;
    full reorthogonalization keeps the basis usable at tight tolerances.
    """
    import scipy.linalg

    v = np.asarray(v, dtype=np.complex128)
    n = v.shape[0]
    beta0 = np.linalg.norm(v)
    m_max = min(n, _MAX_KRYLOV)
    q = np.empty((m_max + 1, n), dtype=np.complex128)
    q[0] = v / beta0
    alphas: list[float] = []
    betas: list[float] = []
    coef_prev: np.ndarray | None = None
    for j in range(m_max):
        w = a @ q[j]
        alphas.append(float(np.real(np.vdot(q[j], w))))
        w = w - alphas[j] * q[j]
        if j > 0:
            w = w - betas[j - 1] * q[j - 1]
        basis = q[: j + 1]
        for _ in range(2):  # reorthogonalize twice; Q^H w = conj(Q conj(w))
            w = w - (basis @ w.conj()).conj() @ basis
        beta = float(np.linalg.norm(w))
        betas.append(beta)
        ew, ev = scipy.linalg.eigh_tridiagonal(alphas, betas[:-1])
        coef = ev @ (np.exp(np.outer(ew, scales)) * ev[0][:, None])
        err = beta0 * beta * np.abs(coef[-1])
        if coef_prev is not None:
            delta = coef.copy()
            delta[: coef_prev.shape[0]] -= coef_prev
            err = np.maximum(err, beta0 * np.linalg.norm(delta, axis=0))
        happy = beta <= 1e-14 * max(beta0, 1.0)
        if happy or err.max() <= tol * max(beta0, 1.0):
            return beta0 * (coef.T @ basis)
        coef_prev = coef
        q[j + 1] = w / beta
    return None


def _substeps(a, v, unit: complex, span, n_sub: int, out, rows) -> bool:
    """Write exp(unit * span[i] * A) v into ``out[rows[i]]``, one basis per
    substep; False if a basis hits the cap."""
    dt = span.max() / n_sub
    step = np.minimum((span / dt).astype(np.int64), n_sub - 1)
    cur = v
    for k in range(step.max() + 1):
        mine = step == k
        scales = unit * np.append(span[mine] - k * dt, dt)  # the end starts substep k + 1
        got = _lanczos_apply(a, cur, scales, max(DEFAULT_TOL / n_sub, 1e-14))
        if got is None:
            return False
        out[rows[mine]] = got[: mine.sum()]
        cur = got[-1]
    return True


def _krylov_action(op: SparseHermitian, v: np.ndarray, unit: complex, times, out) -> None:
    """Write exp(unit * t * H) v into ``out[i]`` for each nonzero ``t = times[i]``:
    one pass per sign, each time in the substep of integer index ``|t| // dt``."""
    t = times[np.abs(times).argmax()]
    if op.norm_estimate * abs(t) / SPLIT_BOUND > _MAX_SUBSTEPS:
        raise ValueError(f"evolution time {t:g} needs more than {_MAX_SUBSTEPS} Lanczos substeps")
    for sign in np.unique(np.sign(times[times != 0])):
        rows = np.flatnonzero(np.sign(times) == sign)
        span = sign * times[rows]
        n_sub = max(1, int(np.ceil(op.norm_estimate * span.max() / SPLIT_BOUND)))
        for _ in range(4):
            if _substeps(op.matrix, v, sign * unit, span, n_sub, out, rows):
                break
            n_sub *= 2
        else:
            raise ConvergenceError(f"Lanczos action did not converge to {DEFAULT_TOL:g} "
                                   f"(n={op.n}, t={sign * span.max()})")


def _action(op: SparseHermitian, v: np.ndarray, unit: complex, t) -> np.ndarray:
    """``exp(unit * t * H) v``, a row per time of an array ``t``: dense or Lanczos by size."""
    times = np.asarray(t, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"evolution times must be finite, got {times[~np.isfinite(times)][0]}")
    if op.matrix.nnz == 0 or not times.any():
        out = np.tile(v, (times.size, 1))
    elif op.n <= DENSE_LIMIT:
        out = np.ascontiguousarray(_dense_apply(op, v, unit, times).T)
    else:
        out = np.empty((times.size, op.n), dtype=np.complex128)
        with _one_blas_thread():
            _krylov_action(op, v, unit, times, out)
    out[times == 0.0] = v
    return out if np.ndim(t) else out[0]


def expm_action(hamiltonian, v, t) -> np.ndarray:
    """Apply the unitary propagator: return ``exp(-i H t) v``.

    Parameters
    ----------
    hamiltonian : SparseHermitian or matrix-like
        Hermitian generator; matrix-like input is validated on the fly.
    v : array-like
        Nonzero complex vector.
    t : float or 1-D array of floats
        Evolution time (may be negative); an array gives one row per time.

    Up to ``DENSE_LIMIT`` nodes the action comes from the cached dense
    eigendecomposition; beyond, the Lanczos action matches the exact one
    within about ``DEFAULT_TOL`` and keeps the 2-norm within ten times that,
    and a ValueError names a time too long for ``_MAX_SUBSTEPS`` substeps.
    """
    op = as_hermitian(hamiltonian)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.shape[0] != op.n:
        raise ValueError(f"vector length {v.shape[0]} does not match n={op.n}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state vector has non-finite entries")
    if np.linalg.norm(v) == 0.0:
        raise ValueError("state vector must be nonzero")
    return _action(op, v, -1j, t)


def real_expm_action(generator, p, t) -> np.ndarray:
    """Apply the diffusion kernel: return ``exp(-L t) p``.

    ``generator`` must be real symmetric, each row summing to 0 within
    1e-12 of its absolute sum (a graph Laplacian), and ``p`` a probability
    vector.  The result is clipped of sub-1e-12 negative round-off and
    keeps unit sum to ~1e-10.  An array ``t`` gives one row per time.
    """
    op = as_hermitian(generator)
    if not op.is_real:
        raise HermiticityError("diffusion generator must be a real symmetric matrix")
    sums, scale = (np.asarray(m.sum(axis=1)).ravel() for m in (op.matrix, abs(op.matrix)))
    if (bad := np.flatnonzero(np.abs(sums) > 1e-12 * scale)).size:
        raise ValueError(f"diffusion generator row {bad[0]} sums to {sums[bad[0]]:g}, not 0")
    if (np.asarray(t) < 0).any():
        raise ValueError("diffusion time must be >= 0")
    p = as_probability_columns(np.ravel(p), n=op.n)
    # real on the dense path; the Lanczos path returns a complex vector
    out = _action(op, p, -1.0, t).real
    if (out < -1e-6).any():
        raise ConvergenceError(
            f"diffusion produced a negative probability {out.min():g}"
        )
    return np.clip(out, 0.0, None)
