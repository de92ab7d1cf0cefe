"""L x L grid inputs for the benchmark: the graph, its scheme and edge keys.

Edge ids follow the order of the shipped grid fixtures: row by row, and at
each vertex (r, c) first its right edge, then its down edge.  ``keys[e]`` is
``("h", r, c)`` or ``("v", r, c)``, which places edge e's weight in the
(hw, vw) arrays of :mod:`oracle`.
"""
from __future__ import annotations

import numpy as np

from pfising import EmbeddingScheme, Graph, plain_scheme

EVEN_CROSSCAPS = 3
HORIZONTAL_WRAP_CAPS = (1, 2)
VERTICAL_WRAP_CAPS = (1, 3)


def _grid(side: int, periodic: bool):
    def vid(r, c):
        return r * side + c

    edges, keys, edge_id = [], [], {}
    for r in range(side):
        for c in range(side):
            if periodic or c + 1 < side:
                edge_id["h", r, c] = len(edges)
                keys.append(("h", r, c))
                edges.append((vid(r, c), vid(r, (c + 1) % side)))
            if periodic or r + 1 < side:
                edge_id["v", r, c] = len(edges)
                keys.append(("v", r, c))
                edges.append((vid(r, c), vid((r + 1) % side, c)))
    rotations = []
    for r in range(side):
        for c in range(side):
            around = (  # up, right, down, left
                ("v", (r - 1) % side, c) if periodic or r > 0 else None,
                ("h", r, c) if periodic or c + 1 < side else None,
                ("v", r, c) if periodic or r + 1 < side else None,
                ("h", r, (c - 1) % side) if periodic or c > 0 else None,
            )
            rotations.append(tuple(edge_id[k] for k in around if k is not None))
    g = Graph(side * side, tuple(edges))
    return g, plain_scheme(g, rotations), tuple(keys)


def open_grid(side: int) -> tuple[Graph, EmbeddingScheme, tuple]:
    """Open L x L grid with the axis-aligned planar rotation."""
    return _grid(side, periodic=False)


def torus_even_grid(side: int) -> tuple[Graph, EmbeddingScheme, tuple]:
    """L x L torus grid with the three-crosscap even scheme.

    Same rotation as the orientable torus; horizontal wrap edges cross
    crosscaps {1, 2} and vertical wrap edges cross {1, 3}, so every edge
    crosses crosscaps an even number of times and the real-sum route applies.
    """
    g, torus, keys = _grid(side, periodic=True)
    caps = []
    for kind, r, c in keys:
        if kind == "h" and c == side - 1:
            caps.append(HORIZONTAL_WRAP_CAPS)
        elif kind == "v" and r == side - 1:
            caps.append(VERTICAL_WRAP_CAPS)
        else:
            caps.append(())
    return g, EmbeddingScheme(torus.rotations, tuple(caps), EVEN_CROSSCAPS), keys


def oracle_arrays(side: int, keys, weights) -> tuple[np.ndarray, np.ndarray]:
    """Scatter per-edge weights into the (hw, vw) arrays of :mod:`oracle`."""
    arrays = {"h": np.zeros((side, side)), "v": np.zeros((side, side))}
    for (kind, r, c), w in zip(keys, weights):
        arrays[kind][r, c] = w
    return arrays["h"], arrays["v"]
