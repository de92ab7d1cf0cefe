"""Finite simple graphs, closed curves and the cycle space over GF(2).

Closed curves (even subgraphs) are represented as edge-set bitmasks: bit e is
set when edge e belongs to the curve.  Symmetric difference is then plain
XOR, implementing the standard (A \\ B) | (B \\ A) set operation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

CURVE_ENUM_MAX_BETTI = 24

CurveMask = int


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with dense integer vertex and edge ids.

    Edge ids are the positions in ``edges``; the per-vertex edge list E(v) is
    ordered by ascending edge id, which fixes the dart order used downstream.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        norm = []
        for e, (u, v) in enumerate(self.edges):
            if u == v:
                raise GraphError(f"edge {e} is a loop")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise GraphError(f"edge {e} references a missing vertex")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"edge {e} duplicates {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """E(v) for every vertex, each sorted by edge id."""
        adj = [[] for _ in range(self.num_vertices)]
        for e, (u, v) in enumerate(self.edges):
            adj[u].append(e)
            adj[v].append(e)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def vertex_edge_masks(self) -> tuple[int, ...]:
        masks = []
        for v in range(self.num_vertices):
            m = 0
            for e in self.adjacency[v]:
                m |= 1 << e
            masks.append(m)
        return tuple(masks)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def other_endpoint(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} not on edge {e}")

    def is_connected(self) -> bool:
        if self.num_vertices == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for e in self.adjacency[v]:
                w = self.other_endpoint(e, v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.num_vertices

    def is_two_connected(self) -> bool:
        """No articulation vertex (and connected), via DFS lowpoints."""
        n = self.num_vertices
        if n < 3 or not self.is_connected():
            return False
        disc = [-1] * n
        low = [0] * n
        parent = [-1] * n
        timer = 0
        # iterative DFS from 0
        stack = [(0, iter(self.adjacency[0]))]
        disc[0] = low[0] = timer
        timer += 1
        root_children = 0
        while stack:
            v, it = stack[-1]
            advanced = False
            for e in it:
                w = self.other_endpoint(e, v)
                if disc[w] == -1:
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == 0:
                        root_children += 1
                    stack.append((w, iter(self.adjacency[w])))
                    advanced = True
                    break
                elif w != parent[v]:
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if p != 0 and low[v] >= disc[p]:
                        return False
        if root_children > 1:
            return False
        return all(d != -1 for d in disc)

    def is_regular(self, k: int) -> bool:
        return all(self.degree(v) == k for v in range(self.num_vertices))

    def curve_edges(self, mask: CurveMask) -> tuple[int, ...]:
        return tuple(e for e in range(self.num_edges) if mask >> e & 1)

    def is_closed_curve(self, mask: CurveMask) -> bool:
        """Every vertex meets an even number of member edges."""
        if mask >> self.num_edges:
            return False
        return all(
            int(mask & vm).bit_count() % 2 == 0 for vm in self.vertex_edge_masks
        )


@dataclass(frozen=True)
class CycleBasis:
    """GF(2)-independent family of cycles, as edge masks."""

    cycles: tuple[CurveMask, ...]
    kind: str  # "fundamental" | "face-boundary"

    def __len__(self) -> int:
        return len(self.cycles)


def first_betti(g: Graph) -> int:
    """|E| - |V| + 1 for a connected graph."""
    if not g.is_connected():
        raise GraphError("not connected")
    return g.num_edges - g.num_vertices + 1


def fundamental_cycle_basis(g: Graph) -> CycleBasis:
    """Spanning-tree cycle basis: one tree-path-plus-chord cycle per chord."""
    if not g.is_connected():
        raise GraphError("not connected")
    n = g.num_vertices
    path_mask = [0] * n  # tree edges on the root path of each vertex
    in_tree = [False] * g.num_edges
    seen = [False] * n
    seen[0] = True
    queue = [0]
    while queue:
        v = queue.pop(0)
        for e in g.adjacency[v]:
            w = g.other_endpoint(e, v)
            if not seen[w]:
                seen[w] = True
                in_tree[e] = True
                path_mask[w] = path_mask[v] ^ (1 << e)
                queue.append(w)
    cycles = []
    for e, (u, v) in enumerate(g.edges):
        if not in_tree[e]:
            cycles.append(path_mask[u] ^ path_mask[v] ^ (1 << e))
    return CycleBasis(tuple(cycles), "fundamental")


def cycle_span(basis) -> list[CurveMask]:
    """Every GF(2) combination of the basis cycles, in Gray-code order.

    Successive curves differ by exactly one basis cycle.
    """
    curves = [0]
    current = 0
    for k in range(1, 1 << len(basis)):
        current ^= basis[(k & -k).bit_length() - 1]
        curves.append(current)
    return curves


def enumerate_closed_curves(g: Graph) -> list[CurveMask]:
    """All 2**beta1 closed curves: the span of a fundamental basis."""
    beta = first_betti(g)
    if beta > CURVE_ENUM_MAX_BETTI:
        raise GraphError(
            f"beta1 = {beta} exceeds the enumeration guard {CURVE_ENUM_MAX_BETTI}"
        )
    return cycle_span(fundamental_cycle_basis(g).cycles)


def cycle_sequence(g: Graph, mask: CurveMask) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cyclic (vertices, edges) order of a single cycle given as an edge mask.

    vertices[i] is incident with edges[i-1] and edges[i]; the walk starts at
    the smallest member vertex and takes its smallest incident member edge,
    which fixes one of the two orientations deterministically.
    """
    edges = [e for e in range(g.num_edges) if mask >> e & 1]
    if not edges:
        raise GraphError("empty edge set is not a cycle")
    incident: dict[int, list[int]] = {}
    for e in edges:
        for v in g.edges[e]:
            incident.setdefault(v, []).append(e)
    if any(len(es) != 2 for es in incident.values()):
        raise GraphError("edge set is not a single cycle")
    start = min(incident)
    first = min(incident[start])
    verts = [start]
    eseq = [first]
    v = g.other_endpoint(first, start)
    e_prev = first
    while v != start:
        verts.append(v)
        e_next = next(e for e in incident[v] if e != e_prev)
        eseq.append(e_next)
        e_prev = e_next
        v = g.other_endpoint(e_next, v)
    if len(verts) != len(edges):
        raise GraphError("edge set is not a single cycle")
    return tuple(verts), tuple(eseq)
