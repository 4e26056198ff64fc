"""Tensor arithmetic, reverse-mode differentiation, and small-matrix LU.

Importing the package sets the process's allocator policy once: freed heap
memory is kept for reuse (see keep_freed_pages).
"""

import ctypes

from .gradcheck import FD_STEP, finite_diff_grad, finite_diff_jacobian, grad_rel_error
from .linalg import LuFactors, lu_factor
from .tensor import (
    GradTape,
    Tensor,
    absolute,
    active_tape,
    add,
    affine,
    conv2d,
    conditioner_head,
    count,
    div,
    exp,
    fourier_gather,
    index_rows,
    logabsdet,
    matmul,
    mul,
    neg,
    probe,
    reshape,
    solve_rows,
    sub,
    tensor,
    tmean,
    transpose,
    tsum,
)

__all__ = [
    "FD_STEP",
    "GradTape",
    "LuFactors",
    "Tensor",
    "absolute",
    "active_tape",
    "add",
    "affine",
    "conditioner_head",
    "conv2d",
    "count",
    "div",
    "exp",
    "finite_diff_grad",
    "finite_diff_jacobian",
    "fourier_gather",
    "grad_rel_error",
    "index_rows",
    "logabsdet",
    "lu_factor",
    "matmul",
    "mul",
    "neg",
    "probe",
    "reshape",
    "solve_rows",
    "sub",
    "tensor",
    "tmean",
    "transpose",
    "tsum",
]

# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# far above the largest temporary a chunk or step frees (a patch3 head
# output of 4096 queries is 17.7 MB) and any free space at the heap's top
KEEP_BYTES = 1 << 30


def keep_freed_pages() -> bool:
    """Ask glibc to serve arrays below KEEP_BYTES from the heap and to trim
    the heap only past KEEP_BYTES of free space, so memory freed by one sr
    chunk or training step is reused by the next instead of being unmapped
    and faulted in again. Returns whether glibc
    took the setting; without glibc (or if it refuses) nothing changes."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the trim threshold only once the mmap one is taken, so a refusal leaves both
    return bool(mallopt(M_MMAP_THRESHOLD, KEEP_BYTES)) and bool(
        mallopt(M_TRIM_THRESHOLD, KEEP_BYTES))


keep_freed_pages()
