"""Exact transfer-matrix oracle for open and periodic L x L grids.

Computes the closed-curve partition function through its spin form

    Z_G(w) = 2**-|V| * sum_sigma prod_e (1 + w_e * sigma_u * sigma_v),

sweeping the grid site by site with a vector over the spins of one row.
For 0 < w_e < 1 every factor is positive, so the sum has no cancellation
and the result is accurate to a few ulps of its size.  The module imports
nothing from ``pfising``: it is the independent reference the benchmark
checks the Pfaffian routes against.

Weights come as two (L, L) arrays: ``hw[r, c]`` on the edge from (r, c) to
(r, c + 1 mod L) and ``vw[r, c]`` on the edge from (r, c) to (r + 1 mod L, c).
An open grid has no wrap edges, so ``hw[:, L - 1]`` and ``vw[L - 1, :]`` are
ignored.
"""
from __future__ import annotations

import math

import numpy as np

PERIODIC_MAX_SIDE = 10  # the periodic sweep keeps a (2**L, 2**L) state


def _row_spins(side: int) -> np.ndarray:
    """(2**L, L) array of +-1: bit c of the row index is the spin at column c."""
    configs = np.arange(1 << side)
    return 1.0 - 2.0 * ((configs[:, None] >> np.arange(side)[None, :]) & 1)


def grid_z(hw: np.ndarray, vw: np.ndarray, periodic: bool) -> float:
    """Z_G(w) for the L x L grid with the given edge weights."""
    hw = np.asarray(hw, dtype=np.float64)
    vw = np.asarray(vw, dtype=np.float64)
    side = hw.shape[0]
    if hw.shape != (side, side) or vw.shape != (side, side):
        raise ValueError("hw and vw must both be (L, L)")
    if periodic and side > PERIODIC_MAX_SIDE:
        raise ValueError(f"periodic sweep is limited to L <= {PERIODIC_MAX_SIDE}")
    hw = hw.copy()
    vw = vw.copy()
    if not periodic:
        hw[:, side - 1] = 0.0  # a zero weight contributes the factor 1
        vw[side - 1, :] = 0.0
    live = np.concatenate([hw.ravel(), vw.ravel()])
    live = live[live != 0.0]
    if np.any(live <= 0.0) or np.any(live >= 1.0):
        raise ValueError("the cancellation-free sweep needs 0 < w < 1")

    spins = _row_spins(side)
    right = np.roll(spins, -1, axis=1)

    def row_factor(r: int) -> np.ndarray:
        return np.prod(1.0 + hw[r][None, :] * spins * right, axis=1)

    n = 1 << side
    # Batch axis: the first row's configuration, kept only when the vertical
    # wrap edges must close the sweep.
    if periodic:
        state = np.diag(row_factor(0))
    else:
        state = row_factor(0)[None, :]
    # Rescaling by powers of two is exact, so the running scale costs no digits.
    exponent = 0
    for r in range(1, side):
        for c in range(side):
            w = vw[r - 1, c]
            split = state.reshape(state.shape[0], n >> (c + 1), 2, 1 << c)
            up, down = split[:, :, 0, :], split[:, :, 1, :]
            new_up = (1.0 + w) * up + (1.0 - w) * down
            new_down = (1.0 - w) * up + (1.0 + w) * down
            state = np.stack([new_up, new_down], axis=2).reshape(state.shape)
        state = state * row_factor(r)[None, :]
        shift = math.frexp(float(state.max()))[1]
        state = np.ldexp(state, -shift)
        exponent += shift
    if periodic:
        wrap = np.ones((n, n))
        for c in range(side):
            wrap *= 1.0 + vw[side - 1, c] * np.outer(spins[:, c], spins[:, c])
        total = float(np.sum(state * wrap))
    else:
        total = float(np.sum(state))
    return math.ldexp(total, exponent - side * side)
