"""Central finite-difference oracles for Jacobians and parameter gradients."""

from __future__ import annotations

from typing import Callable

import numpy as np

FD_STEP = 1e-5  # balances truncation vs round-off at double precision


def finite_diff_jacobian(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector function at x: J[i,j] = df_i/dx_j."""
    x = np.asarray(x, dtype=np.float64)
    f0 = np.asarray(f(x), dtype=np.float64)
    jac = np.empty((f0.size, x.size))
    flat = x.reshape(-1)
    for j in range(flat.size):
        saved = flat[j]
        flat[j] = saved + FD_STEP
        fp = np.asarray(f(x), dtype=np.float64).reshape(-1)
        flat[j] = saved - FD_STEP
        fm = np.asarray(f(x), dtype=np.float64).reshape(-1)
        flat[j] = saved
        jac[:, j] = (fp - fm) / (2.0 * FD_STEP)
    return jac


def finite_diff_grad(f: Callable[[], float], param: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar closure w.r.t. one array it reads."""
    grad = np.empty_like(param)
    flat = param.reshape(-1)
    gflat = grad.reshape(-1)
    for j in range(flat.size):
        saved = flat[j]
        flat[j] = saved + FD_STEP
        fp = f()
        flat[j] = saved - FD_STEP
        fm = f()
        flat[j] = saved
        gflat[j] = (fp - fm) / (2.0 * FD_STEP)
    return grad


def grad_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Norm-relative disagreement between two gradients of one parameter group."""
    denom = max(np.linalg.norm(numeric), np.linalg.norm(analytic), 1e-300)
    return float(np.linalg.norm(analytic - numeric) / denom)

