"""Symmetric-matrix utilities shared by the information-matrix code.

Information matrices here mix physical units whose natural scales span tens of
decades (delay rows ~1e23, frequency-offset rows ~1e-4), so every spectral
operation first applies a unit-diagonal congruence ``D A D`` with
``D = diag(1/sqrt(diag(A)))``.  Positive definiteness, Schur complements and
inverse blocks are invariant under that congruence, while eigenvalue floors
become meaningful relative quantities.
"""

from __future__ import annotations

import numpy as np

class NumericalError(RuntimeError):
    """Raised when a matrix operation cannot be completed reliably."""


def sym(matrix: np.ndarray) -> np.ndarray:
    """Overwrite a matrix, or each matrix of a stack, with its symmetric part
    ``(A + A^T) / 2`` (cheap guard against accumulated asymmetry), and return
    it.  It goes one entry of the leading axis at a time, so the copy that
    adding a transposed view of itself takes stays that small."""
    for block in matrix if matrix.ndim > 2 else [matrix]:
        block += block.mT
        block *= 0.5
    return matrix


def balance_scale(matrix: np.ndarray) -> np.ndarray:
    """Diagonal scaling vector ``d`` such that ``diag(d) A diag(d)`` has unit
    diagonal wherever the input diagonal is positive (and 1.0 elsewhere),
    per matrix of a stack."""
    diag = np.diagonal(matrix, axis1=-2, axis2=-1).copy()
    positive = diag > 0.0
    scale = np.ones_like(diag)
    scale[positive] = 1.0 / np.sqrt(diag[positive])
    return scale


def _balanced(matrix: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Symmetric part of ``diag(scale) A diag(scale)`` per matrix, as one new
    stack."""
    balanced = matrix * scale[..., :, None]
    balanced *= scale[..., None, :]
    return sym(balanced)


def _finite(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, once every entry is known to be a finite double; an
    infinite or NaN entry (information that overflowed) raises
    :class:`NumericalError`."""
    if not np.all(np.isfinite(matrix)):
        raise NumericalError("information matrix has non-finite entries (overflow or NaN)")
    return matrix


def balanced_eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of the unit-diagonal-balanced symmetric part, ascending.

    Broadcasts over leading stack axes: a ``(..., n, n)`` stack gives
    ``(..., n)``, bit for bit the per-matrix results.

    Raises
    ------
    NumericalError
        If any entry is infinite or NaN, as when the information overflows a
        double.
    """
    _finite(matrix)
    if matrix.shape[-1] == 0:
        return np.zeros(matrix.shape[:-1])
    return np.linalg.eigvalsh(_balanced(matrix, balance_scale(matrix)))


def invert_psd(matrix: np.ndarray, floor_rel: float) -> np.ndarray:
    """Invert a symmetric PSD matrix via its balanced eigendecomposition.

    Eigenvalues of the balanced matrix at or below ``floor_rel * max_eig``
    are treated as zero information and excluded (pseudo-inverse); a matrix
    with no positive eigenvalue inverts to zero.  Broadcasts over leading
    stack axes with one ``eigh``: bit for bit the per-matrix results.

    Raises
    ------
    NumericalError
        If a balanced matrix has a significantly negative eigenvalue, i.e. the
        input was not PSD to working precision; the message is that of the
        first such matrix in stack order.  Also if an inverse overflows a
        double, as when the information is near the bottom of double range.
    """
    if matrix.shape[-1] == 0:
        return np.zeros_like(matrix)
    scale = balance_scale(matrix)
    eigvals, eigvecs = np.linalg.eigh(_balanced(matrix, scale))
    low, top = eigvals[..., 0], eigvals[..., -1]
    empty = top <= 0.0
    indefinite = np.where(empty, low < -1e-6, low < -1e-6 * top)
    if np.any(indefinite):
        first = np.flatnonzero(indefinite)[0]
        if empty.flat[first]:
            raise NumericalError("matrix is indefinite, not PSD")
        raise NumericalError(
            f"matrix is indefinite (min/max eigenvalue {low.flat[first] / top.flat[first]:.3e})"
        )
    keep = (eigvals > (floor_rel * top)[..., None]) & ~empty[..., None]
    inv_vals = np.divide(1.0, eigvals, out=np.zeros_like(eigvals), where=keep)
    with np.errstate(over="ignore", invalid="ignore"):  # named below, not warned about
        inverse = _balanced((eigvecs * inv_vals[..., None, :]) @ eigvecs.mT, scale)
    inverse[empty] = 0.0
    if not np.all(np.isfinite(inverse)):
        raise NumericalError("the inverse overflows a double: too little information")
    return inverse
