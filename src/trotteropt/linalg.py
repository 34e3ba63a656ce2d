"""Dense complex linear algebra for small operator matrices.

Every exponent in this package is a scalar multiple of a Hermitian matrix, so
matrix exponentials go through an eigendecomposition instead of a general
scaling-and-squaring routine: for Hermitian ``h`` with ``h = V diag(w) V†``,

    exp(c * h) = V @ diag(exp(c * w)) @ V†.

For purely imaginary ``c`` this is unitary up to roundoff, which matters
because fitness values are spectral-norm distances between unitaries.
Matrices here never exceed a few hundred rows, so dense eigensolvers are
cheap and deterministic. Kronecker and plain matrix products need no
wrapper: callers use ``np.kron`` and ``@``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "expm_scaled_hermitian",
    "matrix_power",
    "spectral_norm",
]


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def expm_scaled_hermitian(h, c: complex) -> np.ndarray:
    """exp(c * h) for Hermitian h, via eigendecomposition.

    Unitary (up to roundoff) whenever ``c`` is purely imaginary. Raises
    ``ValueError`` if ``h`` deviates from Hermiticity by more than 1e-12
    relative to its largest entry.
    """
    h = _as_square(h)
    scale = max(1.0, float(np.max(np.abs(h))))
    if float(np.max(np.abs(h - h.conj().T))) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(c * values)) @ vectors.conj().T


def spectral_norm(a) -> float:
    """Largest singular value, as sqrt of the top eigenvalue of a†a."""
    a = _as_square(a)
    top = float(np.linalg.eigvalsh(a.conj().T @ a)[-1])
    return float(np.sqrt(max(top, 0.0)))


def matrix_power(a, r: int) -> np.ndarray:
    """a**r by binary exponentiation; r = 0 returns the identity."""
    a = _as_square(a)
    r = int(r)
    if r < 0:
        raise ValueError("negative powers are not supported")
    if r == 0:
        return np.eye(a.shape[0], dtype=complex)
    result: np.ndarray | None = None
    base = a
    while r:
        if r & 1:
            result = base if result is None else result @ base
        r >>= 1
        if r:
            base = base @ base
    assert result is not None
    return result.copy() if result is a else result
