"""Small GF(2) linear-algebra kit used for cycle-space computations."""
from __future__ import annotations

import numpy as np


def to_gf2(matrix) -> np.ndarray:
    return np.asarray(matrix, dtype=np.uint8) % 2


def gf2_rank(matrix) -> int:
    """Rank over GF(2) by row reduction."""
    mat = to_gf2(matrix).copy()
    if mat.size == 0:
        return 0
    m, n = mat.shape
    rank = 0
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, m):
            if mat[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != row:
            mat[[row, pivot]] = mat[[pivot, row]]
        for r in range(m):
            if r != row and mat[r, col]:
                mat[r, :] ^= mat[row, :]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def gf2_solve(matrix, rhs) -> np.ndarray | None:
    """One solution x of ``matrix @ x = rhs`` over GF(2), or None if inconsistent.

    Free variables are set to zero.
    """
    mat = to_gf2(matrix).copy()
    b = to_gf2(rhs).copy().reshape(-1)
    m, n = mat.shape
    if b.shape[0] != m:
        raise ValueError("shape mismatch")
    pivot_cols = []
    row = 0
    for col in range(n):
        pivot = None
        for r in range(row, m):
            if mat[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != row:
            mat[[row, pivot]] = mat[[pivot, row]]
            b[[row, pivot]] = b[[pivot, row]]
        for r in range(m):
            if r != row and mat[r, col]:
                mat[r, :] ^= mat[row, :]
                b[r] ^= b[row]
        pivot_cols.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if b[r]:
            return None
    x = np.zeros(n, dtype=np.uint8)
    for r, col in enumerate(pivot_cols):
        x[col] = b[r]
    return x


def masks_to_matrix(masks, width: int) -> np.ndarray:
    """Stack edge-set bitmasks into a GF(2) matrix, one row per mask."""
    nbytes = (width + 7) // 8
    raw = b"".join(int(m).to_bytes(nbytes, "little") for m in masks)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def mask_rank(masks, width: int) -> int:
    return gf2_rank(masks_to_matrix(masks, width))
