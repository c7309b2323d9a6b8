"""Dense symmetric linear algebra and fixed-step integration kernel.

Everything downstream (graph spectra, stability certificates, the simulator)
runs on these few primitives. Matrices are plain row-major numpy arrays;
problem sizes stay small enough that dense storage is always the right call.
"""

from dataclasses import dataclass

import numpy as np

from . import constants


class ConvergenceError(RuntimeError):
    """Eigensolver failed to converge."""


class NonFiniteDerivative(ValueError):
    """rk4_step met a non-finite derivative; carries the stage time."""

    def __init__(self, time: float):
        super().__init__(f"non-finite derivative at t={time}")
        self.time = time


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    values are ascending; column i of vectors pairs with values[i].
    """

    values: np.ndarray
    vectors: np.ndarray


def symmetrize(a) -> np.ndarray:
    """Return the symmetric part (a + a^T)/2 after validating shape/finiteness."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return 0.5 * (a + a.T)


def _fix_signs(vectors: np.ndarray) -> None:
    # Reproducible eigenvector orientation: first non-negligible component
    # of each column is made positive.
    mags = np.abs(vectors)
    big = mags > 1e-12 * np.maximum(1.0, mags.max(axis=0))
    idx = np.argmax(big, axis=0)
    cols = np.arange(vectors.shape[1])
    flip = big[idx, cols] & (vectors[idx, cols] < 0.0)
    vectors[:, flip] *= -1.0


def sym_eigen(a) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix (LAPACK, via numpy.linalg.eigh).

    Returns ascending eigenvalues and an orthogonal eigenvector matrix.
    Raises ConvergenceError if LAPACK fails to converge, which at the problem
    sizes used here indicates corrupted input rather than a hard matrix.
    """
    w = symmetrize(a)
    try:
        values, vectors = np.linalg.eigh(w)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolver did not converge for a {w.shape[0]}x{w.shape[0]} matrix"
        ) from exc
    _fix_signs(vectors)
    return Spectrum(values=values, vectors=vectors)


def is_pd(a, margin: float = 0.0) -> bool:
    """True iff the smallest eigenvalue of the symmetric matrix exceeds margin."""
    if margin < 0.0:
        raise ValueError("margin must be nonnegative")
    return bool(sym_eigen(a).values[0] > margin)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two dense matrices."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def projection_matrix(bearing) -> np.ndarray:
    """Orthogonal projector I - b b^T onto the plane normal to a unit 3-vector.

    The input must already be unit length; callers normalize their own data
    so that silent rescaling never hides a degenerate geometry.
    """
    b = np.asarray(bearing, dtype=float)
    if b.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {b.shape}")
    norm = np.linalg.norm(b)
    if abs(norm - 1.0) > constants.UNIT_NORM_TOL:
        raise ValueError(f"bearing must be unit length (got norm {norm!r})")
    return np.eye(3) - np.outer(b, b)


def rk4_step(f, t: float, state, h: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of size h for dx/dt = f(t, x).

    Only a non-finite result has its stages scanned: NonFiniteDerivative
    carries the time (t, t + h/2, t + h/2 or t + h) of the first non-finite
    stage; finite stages whose sum overflows give the overflowed result.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    state = np.asarray(state, dtype=float)
    k1 = np.asarray(f(t, state), dtype=float)
    k2 = np.asarray(f(t + 0.5 * h, state + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(f(t + 0.5 * h, state + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(f(t + h, state + h * k3), dtype=float)
    out = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        for ts, k in ((t, k1), (t + 0.5 * h, k2), (t + 0.5 * h, k3), (t + h, k4)):
            if not np.isfinite(k).all():
                raise NonFiniteDerivative(ts)
    return out
