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
    if not np.all(np.isfinite(matrix)):
        raise NumericalError("information matrix has non-finite entries (overflow or NaN)")
    if matrix.shape[-1] == 0:
        return np.zeros(matrix.shape[:-1])
    return np.linalg.eigvalsh(_balanced(matrix, balance_scale(matrix)))


def invert_psd(matrix: np.ndarray, floor_rel: float) -> np.ndarray:
    """Invert a symmetric PSD matrix via its balanced eigendecomposition.

    Eigenvalues of the balanced matrix at or below ``floor_rel * max_eig``
    are treated as zero information and excluded (pseudo-inverse).

    Raises
    ------
    NumericalError
        If the balanced matrix has a significantly negative eigenvalue,
        i.e. the input was not PSD to working precision.
    """
    if matrix.shape[0] == 0:
        return np.zeros_like(matrix)
    scale = balance_scale(matrix)
    eigvals, eigvecs = np.linalg.eigh(_balanced(matrix, scale))
    top = float(eigvals[-1])
    if top <= 0.0:
        # No positive information at all: the pseudo-inverse is zero.
        if float(eigvals[0]) < -1e-6:
            raise NumericalError("matrix is indefinite, not PSD")
        return np.zeros_like(matrix)
    if float(eigvals[0]) < -1e-6 * top:
        raise NumericalError(
            f"matrix is indefinite (min/max eigenvalue {eigvals[0] / top:.3e})"
        )
    floor = floor_rel * top
    keep = eigvals > floor
    inv_vals = np.zeros_like(eigvals)
    inv_vals[keep] = 1.0 / eigvals[keep]
    return _balanced((eigvecs * inv_vals[None, :]) @ eigvecs.T, scale)
