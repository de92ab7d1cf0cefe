"""Small GF(2) linear-algebra kit used for cycle-space computations."""
from __future__ import annotations

import numpy as np


def to_gf2(matrix) -> np.ndarray:
    return np.asarray(matrix, dtype=np.uint8) % 2


def _row_reduce(mat: np.ndarray, b: np.ndarray) -> list[int]:
    """Gauss-Jordan elimination of ``mat`` in place, applying every row
    operation to ``b`` as well; returns the pivot column of each pivot row."""
    m, n = mat.shape
    pivot_cols = []
    row = 0
    for col in range(n):
        if row == m:
            break
        below = np.flatnonzero(mat[row:, col])
        if below.size == 0:
            continue
        pivot = row + int(below[0])
        if pivot != row:
            mat[[row, pivot]] = mat[[pivot, row]]
            b[[row, pivot]] = b[[pivot, row]]
        hit = np.flatnonzero(mat[:, col])
        hit = hit[hit != row]
        mat[hit] ^= mat[row]
        b[hit] ^= b[row]
        pivot_cols.append(col)
        row += 1
    return pivot_cols


def gf2_rank(matrix) -> int:
    """Rank over GF(2): the pivot count of the row reduction."""
    mat = to_gf2(matrix).copy()
    if mat.size == 0:
        return 0
    return len(_row_reduce(mat, np.zeros(mat.shape[0], dtype=np.uint8)))


def gf2_solve(matrix, rhs) -> np.ndarray | None:
    """One solution x of ``matrix @ x = rhs`` over GF(2), or None if inconsistent.

    Free variables are set to zero.
    """
    mat = to_gf2(matrix).copy()
    b = to_gf2(rhs).copy().reshape(-1)
    m, n = mat.shape
    if b.shape[0] != m:
        raise ValueError("shape mismatch")
    pivot_cols = _row_reduce(mat, b)
    if b[len(pivot_cols):].any():
        return None
    x = np.zeros(n, dtype=np.uint8)
    x[pivot_cols] = b[:len(pivot_cols)]
    return x


def masks_to_matrix(masks, width: int) -> np.ndarray:
    """Stack edge-set bitmasks into a GF(2) matrix, one row per mask."""
    nbytes = (width + 7) // 8
    raw = b"".join(int(m).to_bytes(nbytes, "little") for m in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def mask_rank(masks, width: int) -> int:
    return gf2_rank(masks_to_matrix(masks, width))
