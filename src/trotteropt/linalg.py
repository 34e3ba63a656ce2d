"""Dense complex linear algebra for small operator matrices and stacks of them.

Every exponent in this package is a scalar multiple of a Hermitian matrix, so
matrix exponentials go through an eigendecomposition instead of a general
scaling-and-squaring routine: for Hermitian ``h`` with ``h = V diag(w) V†``,

    exp(c * h) = V @ diag(exp(c * w)) @ V†.

For purely imaginary ``c`` this is unitary up to roundoff, which matters
because fitness values are spectral-norm distances between unitaries.

Every function takes a square matrix or a ``(..., m, m)`` stack of them and
acts block by block: a stack stands for the block-diagonal operator, whose
spectral norm is the largest over its blocks (``model._sector_index``).
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
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each block (``.T`` would reverse the stack axes too)."""
    return a.conj().swapaxes(-1, -2)


def expm_scaled_hermitian(h, c: complex) -> np.ndarray:
    """exp(c * h) for Hermitian h, via eigendecomposition.

    Unitary (up to roundoff) whenever ``c`` is purely imaginary. Raises
    ``ValueError`` if ``h`` deviates from Hermiticity by more than 1e-12
    relative to its largest entry (over the whole stack).
    """
    h = _as_square(h)
    scale = max(1.0, float(np.max(np.abs(h))))
    if float(np.max(np.abs(h - _adjoint(h)))) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(c * values)[..., None, :]) @ _adjoint(vectors)


def spectral_norm(a) -> float:
    """Largest singular value, as sqrt of the top eigenvalue of a†a; for a
    stack, the largest over its blocks."""
    a = _as_square(a)
    top = float(np.max(np.linalg.eigvalsh(_adjoint(a) @ a)[..., -1]))
    return float(np.sqrt(max(top, 0.0)))


def matrix_power(a, r: int) -> np.ndarray:
    """a**r for r >= 1 by binary exponentiation, block by block."""
    a = _as_square(a)
    r = int(r)
    if r < 1:
        raise ValueError(f"powers below 1 are not supported, got {r}")
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
