"""Dart graphs, perfect matchings and the matching <-> closed-curve map.

A dart is an incident (vertex, edge) pair.  Two darts are adjacent in the
dart graph iff they share exactly the vertex (site edge) or exactly the edge
(link edge); link edges are in bijection with the edges of the source graph.
Darts are ordered lexicographically by (vertex, position of the edge in the
ordered list E(v)), and perfect matchings are stored as frozensets of
(lower, higher) dart-index pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations

import numpy as np

from .graphs import CurveMask, Graph, GraphError
from .multicomplex import MulticomplexValue
from .skewpf import MULTICOMPLEX, SkewMatrix, entry_ring, matching_sign, pfaffian, skew_from_pairs

MATCHING_ENUM_MAX_DARTS = 24

PerfectMatching = frozenset


@dataclass(frozen=True)
class DartGraph:
    """Graph on the darts of ``graph`` with its site/link edge partition."""

    graph: Graph

    def __post_init__(self):
        if any(self.graph.degree(v) == 0 for v in range(self.graph.num_vertices)):
            raise GraphError("isolated vertex has no darts to match")

    @cached_property
    def darts(self) -> tuple[tuple[int, int], ...]:
        out = []
        for v in range(self.graph.num_vertices):
            for e in self.graph.adjacency[v]:
                out.append((v, e))
        return tuple(out)

    @cached_property
    def dart_index(self) -> dict[tuple[int, int], int]:
        return {d: i for i, d in enumerate(self.darts)}

    @property
    def num_darts(self) -> int:
        return len(self.darts)

    @cached_property
    def site_edges(self) -> tuple[tuple[int, int], ...]:
        """Pairs of darts sharing a vertex: a complete graph per vertex."""
        out = []
        for v in range(self.graph.num_vertices):
            ids = [self.dart_index[(v, e)] for e in self.graph.adjacency[v]]
            out.extend(combinations(ids, 2))
        return tuple(out)

    @cached_property
    def link_edges(self) -> tuple[tuple[int, int], ...]:
        """link_edges[e] is the dart pair of source edge e."""
        out = []
        for e, (u, v) in enumerate(self.graph.edges):
            a = self.dart_index[(u, e)]
            b = self.dart_index[(v, e)]
            out.append((min(a, b), max(a, b)))
        return tuple(out)

    @cached_property
    def pairs(self) -> np.ndarray:
        """Read-only (S + E, 2) array of dart pairs: the site edges, then the
        link edges, so link e is row ``len(site_edges) + e``."""
        out = np.array(self.site_edges + self.link_edges, dtype=np.intp).reshape(-1, 2)
        out.setflags(write=False)
        return out

    @cached_property
    def pair_row(self) -> dict[tuple[int, int], int]:
        """Row of each dart pair (lower, higher) in ``pairs``."""
        return {pair: k for k, pair in enumerate(self.site_edges + self.link_edges)}

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj = [set() for _ in range(self.num_darts)]
        for a, b in self.site_edges + self.link_edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(tuple(sorted(s)) for s in adj)

    def vertex_dart_ids(self, v: int) -> tuple[int, ...]:
        return tuple(self.dart_index[(v, e)] for e in self.graph.adjacency[v])


def build_dart_graph(g: Graph) -> DartGraph:
    return DartGraph(g)


def canonical_matching(d: DartGraph) -> PerfectMatching:
    """The matching made of all link edges (always a perfect matching)."""
    return frozenset(d.link_edges)


def even_degree_matching(d: DartGraph) -> PerfectMatching:
    """Per-vertex pairing (e1,e2),(e3,e4),... of darts in E(v) order.

    Exists only when every source vertex has even degree; disjoint from the
    link edges, so the weight prefactor w(M0 & E) is 1.
    """
    pairs = []
    for v in range(d.graph.num_vertices):
        ids = d.vertex_dart_ids(v)
        if len(ids) % 2:
            raise GraphError("no vertex-internal matching: odd-degree vertex")
        for k in range(0, len(ids), 2):
            pairs.append((ids[k], ids[k + 1]))
    return frozenset(pairs)


def is_perfect_matching(d: DartGraph, m: PerfectMatching) -> bool:
    covered = set()
    for pair in m:
        a, b = min(pair), max(pair)
        if (a, b) not in d.pair_row or a in covered or b in covered:
            return False
        covered.update((a, b))
    return len(covered) == d.num_darts


def enumerate_matchings(d: DartGraph) -> list[PerfectMatching]:
    """All perfect matchings, by backtracking on the lowest uncovered dart."""
    n = d.num_darts
    if n > MATCHING_ENUM_MAX_DARTS:
        raise GraphError(
            f"{n} darts exceeds the matching enumeration guard {MATCHING_ENUM_MAX_DARTS}"
        )
    neighbors = d.neighbors
    out = []
    pairs = []

    def recurse(free: int):
        if free == 0:
            out.append(frozenset(pairs))
            return
        a = (free & -free).bit_length() - 1
        for b in neighbors[a]:
            if b > a and free >> b & 1:
                pairs.append((a, b))
                recurse(free & ~(1 << a) & ~(1 << b))
                pairs.pop()

    recurse((1 << n) - 1)
    return out


def matching_to_curve(m0: PerfectMatching, m: PerfectMatching, d: DartGraph) -> CurveMask:
    """The closed curve (m0 symmetric-difference m) restricted to link edges."""
    diff = frozenset(m0) ^ frozenset(m)
    mask = 0
    for e, pair in enumerate(d.link_edges):
        if pair in diff:
            mask |= 1 << e
    return mask


def phi(m0: PerfectMatching, m: PerfectMatching, d: DartGraph) -> CurveMask:
    """Matching-to-curve map anchored at the reference matching m0."""
    if not (is_perfect_matching(d, m0) and is_perfect_matching(d, m)):
        raise GraphError("phi needs two perfect matchings of the dart graph")
    return matching_to_curve(m0, m, d)


def _forced_link_pairs(d: DartGraph, m0: PerfectMatching, curve: CurveMask):
    """Link pairs every preimage matching of ``curve`` must contain."""
    forced = []
    for e, pair in enumerate(d.link_edges):
        in_curve = bool(curve >> e & 1)
        in_m0 = pair in m0
        if in_curve != in_m0:
            forced.append(pair)
    return forced


def f_weight(entries: np.ndarray, d: DartGraph, m0: PerfectMatching, curve: CurveMask):
    """Signed sum of entry products over the matchings mapped to ``curve``.

    ``entries`` is laid out like ``IncidenceMatrix.entries``.  Every preimage
    matching is the forced link pairs plus one perfect matching of each
    vertex's free darts, so the sum factorizes:
    F = sign(reference) * prod(forced link entries) * prod_v Pf(A[free_v]),
    where the reference matching pairs each vertex's free darts in index
    order.  Re-pairing the darts of one vertex multiplies the sign by the
    sign of that local matching, which is what Pf(A[free_v]) sums over.
    """
    if len(entries) != len(d.pairs):
        raise GraphError("entry array does not match the dart pattern")
    ring, n = entry_ring(entries)
    lift = partial(MulticomplexValue, n) if ring == MULTICOMPLEX else (lambda x: x)
    forced = _forced_link_pairs(d, m0, curve)
    covered = {i for pair in forced for i in pair}
    free_sets = []
    for v in range(d.graph.num_vertices):
        free = [i for i in d.vertex_dart_ids(v) if i not in covered]
        if len(free) % 2:
            return 0.0 * lift(entries[0])  # no preimage: zero in the entries' ring
        free_sets.append(free)
    reference = forced + [
        (free[k], free[k + 1]) for free in free_sets for k in range(0, len(free), 2)
    ]
    value = matching_sign(reference, range(d.num_darts))
    for pair in forced:
        value = value * lift(entries[d.pair_row[pair]])
    for free in free_sets:
        if free:
            rows = [d.pair_row[pair] for pair in combinations(free, 2)]
            local = list(combinations(range(len(free)), 2))
            value = value * pfaffian(skew_from_pairs(ring, len(free), local, entries[rows], n))
    return value


def pattern_entries(a: SkewMatrix, d: DartGraph) -> np.ndarray:
    """Entries of a dense matrix at ``d.pairs``, laid out like
    ``IncidenceMatrix.entries``, once it is checked to vanish off the dart
    pattern (to 1e-12 of its largest entry)."""
    n = a.order
    if n != d.num_darts:
        raise GraphError("matrix order does not match the dart count")
    allowed = np.zeros((n, n), dtype=bool)
    allowed[d.pairs[:, 0], d.pairs[:, 1]] = True
    size = np.abs(a.data).reshape(n, n, -1).max(axis=2)
    scale = max(1.0, a.scale_abs())
    bad = np.argwhere(np.triu(~allowed & (size > 1e-12 * scale), 1))
    if bad.size:
        i, j = map(int, bad[0])
        raise GraphError(f"nonzero entry outside the dart-graph pattern at {(i, j)}")
    return a.data[d.pairs[:, 0], d.pairs[:, 1]]
