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
    """Symmetric part of a matrix, or of each matrix of a stack (cheap guard
    against accumulated asymmetry)."""
    return 0.5 * (matrix + matrix.mT)


def balance_scale(matrix: np.ndarray) -> np.ndarray:
    """Diagonal scaling vector ``d`` such that ``diag(d) A diag(d)`` has unit
    diagonal wherever the input diagonal is positive (and 1.0 elsewhere),
    per matrix of a stack."""
    diag = np.diagonal(matrix, axis1=-2, axis2=-1).copy()
    positive = diag > 0.0
    scale = np.ones_like(diag)
    scale[positive] = 1.0 / np.sqrt(diag[positive])
    return scale


def balanced_eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of the unit-diagonal-balanced symmetric part, ascending.

    Broadcasts over leading stack axes: a ``(..., n, n)`` stack gives
    ``(..., n)``, bit for bit the per-matrix results.
    """
    if matrix.shape[-1] == 0:
        return np.zeros(matrix.shape[:-1])
    scale = balance_scale(matrix)
    balanced = sym(matrix * scale[..., :, None] * scale[..., None, :])
    return np.linalg.eigvalsh(balanced)


def invert_psd(matrix: np.ndarray, floor_rel: float) -> tuple[np.ndarray, bool]:
    """Invert a symmetric PSD matrix via its balanced eigendecomposition.

    Eigenvalues of the balanced matrix below ``floor_rel * max_eig`` are
    treated as zero information and excluded (pseudo-inverse), which is
    reported through the second return value.

    Returns
    -------
    (numpy.ndarray, bool)
        The (pseudo-)inverse, and whether any eigenvalue was floored.

    Raises
    ------
    NumericalError
        If the balanced matrix has a significantly negative eigenvalue,
        i.e. the input was not PSD to working precision.
    """
    if matrix.shape[0] == 0:
        return np.zeros_like(matrix), False
    scale = balance_scale(matrix)
    balanced = sym(matrix * scale[:, None] * scale[None, :])
    eigvals, eigvecs = np.linalg.eigh(balanced)
    top = float(eigvals[-1])
    if top <= 0.0:
        # No positive information at all: the pseudo-inverse is zero.
        if float(eigvals[0]) < -1e-6:
            raise NumericalError("matrix is indefinite, not PSD")
        return np.zeros_like(matrix), True
    if float(eigvals[0]) < -1e-6 * top:
        raise NumericalError(
            f"matrix is indefinite (min/max eigenvalue {eigvals[0] / top:.3e})"
        )
    floor = floor_rel * top
    keep = eigvals > floor
    used_pseudo = bool(np.any(~keep))
    inv_vals = np.zeros_like(eigvals)
    inv_vals[keep] = 1.0 / eigvals[keep]
    inv_balanced = (eigvecs * inv_vals[None, :]) @ eigvecs.T
    inverse = inv_balanced * scale[:, None] * scale[None, :]
    return sym(inverse), used_pseudo
