"""Embedding schemes (rotation system + edge signature) and face tracing.

A scheme stores the cyclic edge order pi_v at every vertex together with a
per-edge list of crosscap indices; the derived signature is
lambda(e) = (-1)**len(crosscaps(e)).  Face tracing walks states
(vertex, edge, sense): crossing an edge multiplies the sense by lambda, and
the next edge is pi (sense +1) or pi inverse (sense -1).  Each geometric face
is traced once per direction, so faces are orbit pairs under the reversal
involution.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .gf2 import mask_rank
from .graphs import CurveMask, CycleBasis, Graph, GraphError


class SchemeError(ValueError):
    pass


@dataclass(frozen=True)
class EmbeddingScheme:
    """Rotation system plus crosscap annotations for a 2-cell embedding."""

    rotations: tuple[tuple[int, ...], ...]  # cyclic edge order per vertex
    crosscaps: tuple[tuple[int, ...], ...]  # crosscap indices per edge
    n_crosscaps: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "rotations", tuple(tuple(r) for r in self.rotations)
        )
        object.__setattr__(
            self, "crosscaps", tuple(tuple(c) for c in self.crosscaps)
        )

    def signature(self, e: int) -> int:
        return -1 if len(self.crosscaps[e]) % 2 else 1

    def validate(self, g: Graph):
        if len(self.rotations) != g.num_vertices:
            raise SchemeError("rotation list does not cover every vertex")
        for v in range(g.num_vertices):
            if sorted(self.rotations[v]) != sorted(g.adjacency[v]):
                raise SchemeError(f"rotation at vertex {v} is not a cyclic order of E(v)")
        if len(self.crosscaps) != g.num_edges:
            raise SchemeError("crosscap list does not cover every edge")
        for e, caps in enumerate(self.crosscaps):
            for k in caps:
                if not 1 <= k <= self.n_crosscaps:
                    raise SchemeError(f"edge {e} references crosscap {k} > {self.n_crosscaps}")

    def rotation_next(self, v: int, e: int, sense: int) -> int:
        rot = self.rotations[v]
        i = rot.index(e)
        return rot[(i + sense) % len(rot)]

    def crosscap_parity_mask(self, e: int) -> int:
        """Bitmask of crosscaps crossed an odd number of times by edge e."""
        mask = 0
        for k in self.crosscaps[e]:
            mask ^= 1 << (k - 1)
        return mask

    def curve_class(self, curve: CurveMask) -> int:
        """Per-crosscap crossing parity of a closed curve, as a bitmask."""
        mask = 0
        e = 0
        c = curve
        while c:
            if c & 1:
                mask ^= self.crosscap_parity_mask(e)
            c >>= 1
            e += 1
        return mask


def plain_scheme(g: Graph, rotations) -> EmbeddingScheme:
    """Scheme with the given rotations and no crosscaps."""
    return EmbeddingScheme(tuple(tuple(r) for r in rotations), tuple(() for _ in g.edges), 0)


@dataclass(frozen=True)
class FaceWalk:
    """One face boundary as a cyclic sequence of (vertex, edge, sense) steps.

    Step (v, e, s) leaves vertex v along edge e carrying sense s; the vertex
    of the next step is the other endpoint of e.
    """

    steps: tuple[tuple[int, int, int], ...]

    def __len__(self) -> int:
        return len(self.steps)

    @cached_property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e for _, e, _ in self.steps)

    @cached_property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(v for v, _, _ in self.steps)

    @cached_property
    def is_cycle(self) -> bool:
        verts = self.vertex_ids
        edges = self.edge_ids
        return len(set(verts)) == len(verts) and len(set(edges)) == len(edges)

    @cached_property
    def edge_mask(self) -> CurveMask:
        mask = 0
        for e in self.edge_ids:
            mask ^= 1 << e  # doubled edges cancel mod 2
        return mask


@dataclass(frozen=True)
class FaceReport:
    faces: tuple[FaceWalk, ...]
    euler_characteristic: int
    orientable: bool
    genus: int
    faces_are_cycles: bool
    self_paired: bool = field(default=False)

    @property
    def num_faces(self) -> int:
        return len(self.faces)


def _next_state(g: Graph, s: EmbeddingScheme, state):
    v, e, sense = state
    x = g.other_endpoint(e, v)
    sense2 = sense * s.signature(e)
    f = s.rotation_next(x, e, sense2)
    return (x, f, sense2)


def _reverse_state(g: Graph, s: EmbeddingScheme, state):
    v, e, sense = state
    return (g.other_endpoint(e, v), e, -sense * s.signature(e))


def _vertex_flips(g: Graph, s: EmbeddingScheme) -> list[int] | None:
    """Vertex signs tau (+-1) with tau[u] * tau[v] = signature(e) on every
    edge, or None when the signature is not a coboundary."""
    tau = [0] * g.num_vertices  # 0 unknown, else +-1
    for root in range(g.num_vertices):
        if tau[root]:
            continue
        tau[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for e in g.adjacency[v]:
                w = g.other_endpoint(e, v)
                want = tau[v] * s.signature(e)
                if tau[w] == 0:
                    tau[w] = want
                    stack.append(w)
                elif tau[w] != want:
                    return None
    return tau


def scheme_is_orientable(g: Graph, s: EmbeddingScheme) -> bool:
    """True when the signature is a coboundary (removable by vertex flips)."""
    return _vertex_flips(g, s) is not None


def trace_faces(g: Graph, s: EmbeddingScheme) -> FaceReport:
    """All face boundary walks plus the Euler-characteristic genus report."""
    s.validate(g)
    if not g.is_connected():
        raise GraphError("not connected")
    states = [
        (v, e, sense)
        for v in range(g.num_vertices)
        for e in g.adjacency[v]
        for sense in (1, -1)
    ]
    seen: set = set()
    orbits = []
    for start in states:
        if start in seen:
            continue
        orbit = []
        cur = start
        while True:
            orbit.append(cur)
            seen.add(cur)
            cur = _next_state(g, s, cur)
            if cur == start:
                break
        orbits.append(orbit)
    # pair each orbit with its reverse traversal
    orbit_of_state = {}
    for idx, orbit in enumerate(orbits):
        for st in orbit:
            orbit_of_state[st] = idx
    faces = []
    self_paired = False
    consumed = set()
    for idx, orbit in enumerate(orbits):
        if idx in consumed:
            continue
        rev = orbit_of_state[_reverse_state(g, s, orbit[0])]
        consumed.add(idx)
        if rev == idx:
            self_paired = True
            faces.append(FaceWalk(tuple(orbit)))
        else:
            consumed.add(rev)
            faces.append(FaceWalk(tuple(orbit)))
    euler = g.num_vertices - g.num_edges + len(faces)
    orientable = scheme_is_orientable(g, s)
    if orientable:
        if (2 - euler) % 2:
            raise SchemeError("odd Euler defect on an orientable scheme")
        genus = (2 - euler) // 2
    else:
        genus = 2 - euler
    cycles = all(f.is_cycle for f in faces) and not self_paired
    return FaceReport(tuple(faces), euler, orientable, genus, cycles, self_paired)


def face_boundary_basis(g: Graph, s: EmbeddingScheme, report: FaceReport | None = None) -> CycleBasis:
    """All face boundaries except one, as an independent cycle family.

    The dropped face is the one with the longest boundary (ties: largest
    index).  On a genus-0 scheme the result is a basis of the cycle space in
    which every edge lies in at most two members.
    """
    if report is None:
        report = trace_faces(g, s)
    if not report.faces_are_cycles:
        raise SchemeError("faces not cycles")
    drop = max(range(len(report.faces)), key=lambda i: (len(report.faces[i]), i))
    masks = tuple(
        f.edge_mask for i, f in enumerate(report.faces) if i != drop
    )
    basis = CycleBasis(masks, "face-boundary")
    if mask_rank(masks, g.num_edges) != len(masks):
        raise SchemeError("face boundaries are not independent")
    return basis


def resolve_planar_scheme(g: Graph, s: EmbeddingScheme) -> EmbeddingScheme:
    """Canonicalize a genus-0 scheme to all-positive signature, no crosscaps.

    Vertex flips (reversing pi_v and negating the signature of its edges)
    remove a coboundary signature without changing the embedding.
    """
    report = trace_faces(g, s)
    if report.euler_characteristic != 2:
        raise SchemeError("not planar; use nonplanar route")
    tau = _vertex_flips(g, s)
    if tau is None:
        raise SchemeError("genus-0 scheme with non-coboundary signature")
    rotations = [
        tuple(reversed(s.rotations[v])) if tau[v] < 0 else s.rotations[v]
        for v in range(g.num_vertices)
    ]
    return EmbeddingScheme(tuple(rotations), tuple(() for _ in g.edges), 0)
