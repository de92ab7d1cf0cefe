"""Fixture graphs and embedding schemes used by tests, verification and the CLI.

The projective-plane schemes for K5 and K3,3 follow the classical drawings:
the K5 pentagon sits in a disk with all five star edges through the crosscap;
the K3,3 hexagon a-d-b-e-c-f sits in a disk with the three long chords
through the crosscap.  Vertex and edge labels match the obstruction cycle
families (K5: vertices a..e = 0..4, edges 0..9; K3,3: a,b,c = 0,1,2 and
d,e,f = 3,4,5, edges 0..8).
"""
from __future__ import annotations

from dataclasses import dataclass

from .embeddings import EmbeddingScheme, plain_scheme
from .graphs import Graph
from .minors import MinorTransform, complete_transform, minor_scheme


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    scheme: EmbeddingScheme | None = None
    alt_schemes: dict = None  # name -> EmbeddingScheme
    planar: bool = True


def k3() -> Fixture:
    g = Graph(3, ((0, 1), (0, 2), (1, 2)))
    s = plain_scheme(g, [(0, 1), (0, 2), (1, 2)])
    return Fixture("k3", g, s)


def c4() -> Fixture:
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    s = plain_scheme(g, [(0, 3), (0, 1), (1, 2), (2, 3)])
    return Fixture("c4", g, s)


def k4() -> Fixture:
    g = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    s = plain_scheme(g, [(0, 2, 1), (3, 4, 0), (1, 5, 3), (2, 4, 5)])
    return Fixture("k4", g, s)


def _grid_graph(rows: int, cols: int) -> tuple[Graph, EmbeddingScheme]:
    """rows x cols vertex grid with the axis-aligned planar rotation."""

    def vid(r, c):
        return r * cols + c

    edges = []
    edge_id = {}
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edge_id[("h", r, c)] = len(edges)
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edge_id[("v", r, c)] = len(edges)
                edges.append((vid(r, c), vid(r + 1, c)))
    g = Graph(rows * cols, tuple(edges))
    rotations = []
    for r in range(rows):
        for c in range(cols):
            rot = []
            if r > 0:
                rot.append(edge_id[("v", r - 1, c)])  # up
            if c + 1 < cols:
                rot.append(edge_id[("h", r, c)])  # right
            if r + 1 < rows:
                rot.append(edge_id[("v", r, c)])  # down
            if c > 0:
                rot.append(edge_id[("h", r, c - 1)])  # left
            rotations.append(tuple(rot))
    return g, plain_scheme(g, rotations)


def grid2x2() -> Fixture:
    g, s = _grid_graph(2, 2)
    return Fixture("grid2x2", g, s)


def grid3x3() -> Fixture:
    g, s = _grid_graph(3, 3)
    return Fixture("grid3x3", g, s)


def _grid3x3_vertical(r: int, c: int) -> int:
    g, _ = _grid_graph(3, 3)
    for e, (u, v) in enumerate(g.edges):
        ru, cu = divmod(u, 3)
        rv, cv = divmod(v, 3)
        if cu == cv == c and {ru, rv} == {r, r + 1}:
            return e
    raise KeyError((r, c))


def _grid3x3_middle_column_edges() -> tuple[int, int]:
    """Edge ids of the two middle-column vertical edges of the 3x3 grid."""
    return tuple(sorted((_grid3x3_vertical(0, 1), _grid3x3_vertical(1, 1))))


def _grid3x3_brick_edges() -> tuple[int, int, int]:
    """One vertical edge per site in the alternating brick pattern."""
    return tuple(
        sorted((_grid3x3_vertical(0, 1), _grid3x3_vertical(1, 0), _grid3x3_vertical(1, 2)))
    )


def hex_patch() -> tuple[Fixture, Graph, MinorTransform]:
    """Two-hexagon patch: delete the middle-column verticals of the 3x3 grid.

    Returns (fixture, host graph, transform from the host).
    """
    base = grid3x3()
    dele = _grid3x3_middle_column_edges()
    g, t = complete_transform(base.graph, dele, ())
    s = minor_scheme(base.graph, base.scheme, t, g)
    return Fixture("hex-patch", g, s), base.graph, t


def tri_patch() -> tuple[Fixture, Graph, MinorTransform]:
    """Triangular patch: contract one vertical per site in the brick pattern.

    On the infinite lattice this is the contraction partner of the hexagonal
    deletion; on the finite patch the brick set keeps the minor 2-connected.
    """
    base = grid3x3()
    cont = _grid3x3_brick_edges()
    g, t = complete_transform(base.graph, (), cont)
    s = minor_scheme(base.graph, base.scheme, t, g)
    return Fixture("tri-patch", g, s), base.graph, t


def k5_projective() -> Fixture:
    """K5 with a one-crosscap scheme (5 triangular faces plus a pentagon).

    Vertex and edge ids are the ones the obstruction cycle families use.
    """
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
             (0, 2), (0, 3), (1, 3), (1, 4), (2, 4))
    g = Graph(5, edges)
    star_out = {0: 5, 1: 7, 2: 9, 3: 6, 4: 8}  # edge {i, i+2}
    rotations = []
    for i in range(5):
        rotations.append((
            (i - 1) % 5,          # pentagon edge {i-1, i}
            i,                    # pentagon edge {i, i+1}
            star_out[(i - 2) % 5],  # star edge {i-2, i}
            star_out[i],          # star edge {i, i+2}
        ))
    caps = tuple(() if e < 5 else (1,) for e in range(10))
    s = EmbeddingScheme(tuple(rotations), caps, 1)
    return Fixture("k5-projective", g, s, planar=False)


def k33_projective() -> Fixture:
    """K3,3 with a one-crosscap scheme; the long chords a-e, b-f, c-d cross it."""
    edges = ((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5),
             (2, 3), (2, 4), (2, 5))
    g = Graph(6, edges)
    rotations = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8))
    caps = tuple((1,) if e in (1, 5, 6) else () for e in range(9))
    s = EmbeddingScheme(rotations, caps, 1)
    return Fixture("k33-projective", g, s, planar=False)


def torus_grid(side: int) -> Fixture:
    """side x side grid on the torus: 4-regular, all faces 4-cycles.

    Edges run row by row, at each vertex first its right edge, then its down
    edge.  The default scheme is the orientable torus rotation (up, right,
    down, left at every vertex).  The alternative "even-crosscaps" scheme
    keeps the same rotation but routes the wraparound edges through three
    crosscaps so that every edge crosses crosscaps an even number of times:
    horizontal wrap edges cross caps {1, 2}, vertical wrap edges cross caps
    {1, 3}.
    """

    def vid(r, c):
        return side * (r % side) + c % side

    def right(r, c):
        return 2 * vid(r, c)

    def down(r, c):
        return 2 * vid(r, c) + 1

    edges, rotations, caps = [], [], []
    for r in range(side):
        for c in range(side):
            edges += [(vid(r, c), vid(r, c + 1)), (vid(r, c), vid(r + 1, c))]
            rotations.append((down(r - 1, c), right(r, c), down(r, c), right(r, c - 1)))
            caps += [(1, 2) if c == side - 1 else (), (1, 3) if r == side - 1 else ()]
    g = Graph(side * side, tuple(edges))
    torus = plain_scheme(g, rotations)
    even = EmbeddingScheme(torus.rotations, tuple(caps), 3)
    return Fixture(
        f"torus-grid{side}x{side}", g, torus, alt_schemes={"even-crosscaps": even},
        planar=False,
    )


def torus_grid3x3() -> Fixture:
    return torus_grid(3)


def fixture_names() -> list[str]:
    return [
        "k3", "c4", "k4", "grid2x2", "grid3x3", "hex-patch", "tri-patch",
        "k5-projective", "k33-projective", "torus-grid3x3",
    ]


def get_fixture(name: str) -> Fixture:
    table = {
        "k3": k3,
        "c4": c4,
        "k4": k4,
        "grid2x2": grid2x2,
        "grid3x3": grid3x3,
        "k5-projective": k5_projective,
        "k5": k5_projective,
        "k33-projective": k33_projective,
        "k33": k33_projective,
        "torus-grid3x3": torus_grid3x3,
    }
    if name in table:
        return table[name]()
    if name == "hex-patch":
        return hex_patch()[0]
    if name == "tri-patch":
        return tri_patch()[0]
    raise KeyError(f"unknown fixture {name!r}")


def minor_pair(name: str) -> tuple[Graph, Graph, MinorTransform]:
    """(host, minor, transform) for the shipped minor fixtures."""
    if name == "hex-patch":
        fx, host, t = hex_patch()
    elif name == "tri-patch":
        fx, host, t = tri_patch()
    else:
        raise KeyError(f"no minor pair for {name!r}")
    return host, fx.graph, t
