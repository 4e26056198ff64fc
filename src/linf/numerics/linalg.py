"""Partial-pivoting LU factorization for small dense matrices.

Covers everything the flow layers need from their weight matrices: log|det|,
row-wise solves (plain and transposed), and explicit inverses. Matrices here
are tiny (D <= 27), so plain substitution loops with vectorized right-hand
sides are the right tool.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, SingularMatrixError

PIVOT_TOL = 1e-12


class LuFactors:
    """Combined L/U storage with pivot bookkeeping: A[perm] == L @ U."""

    __slots__ = ("lu", "perm")

    def __init__(self, lu: np.ndarray, perm: np.ndarray):
        self.lu = lu
        self.perm = perm

    @property
    def d(self) -> int:
        return self.lu.shape[0]

    def logabsdet(self) -> float:
        return float(np.sum(np.log(np.abs(np.diag(self.lu)))))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for b of shape [D] or [D, nrhs]."""
        b = np.asarray(b, dtype=np.float64)
        vector = b.ndim == 1
        y = b.reshape(self.d, -1)[self.perm].copy()
        lu = self.lu
        # forward substitution, L unit lower triangular
        for i in range(1, self.d):
            y[i] -= lu[i, :i] @ y[:i]
        # back substitution with U
        for i in range(self.d - 1, -1, -1):
            if i + 1 < self.d:
                y[i] -= lu[i, i + 1 :] @ y[i + 1 :]
            y[i] /= lu[i, i]
        return y[:, 0] if vector else y

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """Solve A^T x = b. With A[perm] = L U: U^T y = b, L^T z = y, x[perm] = z."""
        b = np.asarray(b, dtype=np.float64)
        vector = b.ndim == 1
        y = b.reshape(self.d, -1).copy()
        lu = self.lu
        # U^T is lower triangular
        for i in range(self.d):
            if i > 0:
                y[i] -= lu[:i, i] @ y[:i]
            y[i] /= lu[i, i]
        # L^T is unit upper triangular
        for i in range(self.d - 1, -1, -1):
            if i + 1 < self.d:
                y[i] -= lu[i + 1 :, i] @ y[i + 1 :]
        x = np.empty_like(y)
        x[self.perm] = y
        return x[:, 0] if vector else x

    def inverse(self) -> np.ndarray:
        return self.solve(np.eye(self.d))


def lu_factor(a: np.ndarray) -> LuFactors:
    """Factor a square matrix with partial pivoting.

    Raises SingularMatrixError when a pivot falls below PIVOT_TOL in absolute
    value (the matrices this package factors are O(1)-scaled).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"lu_factor expects a square matrix, got {a.shape}")
    d = a.shape[0]
    lu = a.copy()
    perm = np.arange(d)
    for k in range(d):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) < PIVOT_TOL:
            raise SingularMatrixError(f"zero pivot at column {k}")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return LuFactors(lu, perm)
