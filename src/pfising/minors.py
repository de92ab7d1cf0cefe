"""Minor transforms and embedded-graph surgery.

Two graph rewrites feed the matrix pipeline:

* :func:`four_regularize` turns a 2-connected simple embedded graph into a
  4-regular one on the same surface by pairing odd vertices through face
  corridors, splitting high-degree vertices into 4-regular caterpillar trees
  and absorbing degree-2 vertices with a face triangle.
* :func:`subdivide_to_cycle_faces` repairs faces whose boundary walk repeats
  a vertex by ringing the face with subdivision vertices.

:func:`build_host` runs both in that order.

Every addition is recorded so the original graph is recovered by deleting
the helper chords and contracting the helper segments; the bookkeeping is a
:class:`MinorTransform`.

New edges drawn inside a face must respect the local sense of the boundary
walk.  When a required edge signature cannot be realized directly, the
builder switches a vertex: it reverses the rotation and toggles one crosscap
on every incident edge, which preserves faces, genus and the crossing-parity
class of every closed curve.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from .embeddings import EmbeddingScheme, FaceWalk, SchemeError, trace_faces
from .graphs import CurveMask, Graph, GraphError


@dataclass(frozen=True)
class MinorTransform:
    """How to reduce a host graph to its minor.

    edge_map sends every surviving host edge to the minor edge it becomes;
    vertex_map sends host vertices to the minor vertex they collapse into.
    """

    deleted: frozenset
    contracted: frozenset
    edge_map: dict = field(default_factory=dict)
    vertex_map: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "deleted", frozenset(self.deleted))
        object.__setattr__(self, "contracted", frozenset(self.contracted))
        if self.deleted & self.contracted:
            raise GraphError("an edge cannot be both deleted and contracted")

    @staticmethod
    def identity(g: Graph) -> "MinorTransform":
        return MinorTransform(
            frozenset(),
            frozenset(),
            {e: e for e in range(g.num_edges)},
            {v: v for v in range(g.num_vertices)},
        )

    @property
    def is_identity(self) -> bool:
        return (
            not self.deleted
            and not self.contracted
            and all(k == v for k, v in self.edge_map.items())
            and all(k == v for k, v in self.vertex_map.items())
        )


def _contraction_components(g: Graph, contracted) -> list[int]:
    """Union-find roots after contracting the given edge set (must be acyclic)."""
    parent = list(range(g.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in sorted(contracted):
        u, v = g.edges[e]
        ru, rv = find(u), find(v)
        if ru == rv:
            raise GraphError("contracting a cycle")
        parent[max(ru, rv)] = min(ru, rv)
    return [find(v) for v in range(g.num_vertices)]


def complete_transform(g2: Graph, deleted, contracted) -> tuple[Graph, "MinorTransform"]:
    """Apply deletions then contractions with canonical dense relabeling.

    Loops and parallel survivors arising from contraction are folded into the
    deleted set (the lowest-id parallel edge survives), so the recorded
    transform reproduces the returned simple graph exactly.
    """
    deleted = set(deleted)
    contracted = frozenset(contracted)
    if deleted & contracted:
        raise GraphError("an edge cannot be both deleted and contracted")
    roots = _contraction_components(g2, contracted)
    comp_ids = sorted(set(roots))
    new_vertex = {root: i for i, root in enumerate(comp_ids)}
    vertex_map = {v: new_vertex[roots[v]] for v in range(g2.num_vertices)}
    kept = {}
    edge_map = {}
    for e, (u, v) in enumerate(g2.edges):
        if e in deleted or e in contracted:
            continue
        a, b = vertex_map[u], vertex_map[v]
        if a == b:
            deleted.add(e)  # loop after contraction
            continue
        key = (min(a, b), max(a, b))
        if key in kept:
            deleted.add(e)  # parallel survivor
            continue
        kept[key] = e
    new_edges = []
    for key, e in sorted(kept.items(), key=lambda kv: kv[1]):
        edge_map[e] = len(new_edges)
        new_edges.append(key)
    g1 = Graph(len(comp_ids), tuple(new_edges))
    return g1, MinorTransform(frozenset(deleted), contracted, edge_map, vertex_map)


def apply_minor(g2: Graph, t: MinorTransform) -> Graph:
    """The minor of g2 described by ``t`` (deletions first, then contractions)."""
    for e in t.deleted | t.contracted:
        if not 0 <= e < g2.num_edges:
            raise GraphError(f"transform references missing edge {e}")
    if not t.edge_map and not t.vertex_map:
        return complete_transform(g2, t.deleted, t.contracted)[0]
    roots = _contraction_components(g2, t.contracted)
    # transform carries its own labeling: rebuild and verify
    num_v = max(t.vertex_map.values()) + 1 if t.vertex_map else 0
    edges: dict[int, tuple[int, int]] = {}
    for e, (u, v) in enumerate(g2.edges):
        if e in t.deleted or e in t.contracted:
            continue
        if e not in t.edge_map:
            raise GraphError(f"surviving edge {e} missing from edge_map")
        a, b = t.vertex_map[u], t.vertex_map[v]
        if a == b:
            raise GraphError(f"edge {e} becomes a loop; transform is not clean")
        key = t.edge_map[e]
        if key in edges and edges[key] != (min(a, b), max(a, b)):
            raise GraphError("edge_map is inconsistent")
        edges[key] = (min(a, b), max(a, b))
    if sorted(edges) != list(range(len(edges))):
        raise GraphError("edge_map does not produce dense edge ids")
    for v, r in enumerate(roots):
        if t.vertex_map[v] != t.vertex_map[r]:
            raise GraphError("vertex_map inconsistent with contraction")
    return Graph(num_v, tuple(edges[i] for i in range(len(edges))))


def compose_transforms(outer: MinorTransform, inner: MinorTransform) -> MinorTransform:
    """Transform for G3 -> G1 given outer: G3 -> G2 and inner: G2 -> G1."""
    deleted = set(outer.deleted)
    contracted = set(outer.contracted)
    edge_map = {}
    for e3, e2 in outer.edge_map.items():
        if e2 in inner.deleted:
            deleted.add(e3)
        elif e2 in inner.contracted:
            contracted.add(e3)
        else:
            edge_map[e3] = inner.edge_map[e2]
    vertex_map = {v3: inner.vertex_map[v2] for v3, v2 in outer.vertex_map.items()}
    return MinorTransform(frozenset(deleted), frozenset(contracted), edge_map, vertex_map)


def curve_preimage(g2: Graph, t: MinorTransform, curve: CurveMask) -> CurveMask:
    """The unique closed curve on the host graph mapping to ``curve``.

    Surviving edges are lifted through edge_map; the parity defect left at
    the contracted forest is repaired by the unique T-join inside each tree.
    """
    inv = {e1: e2 for e2, e1 in t.edge_map.items()}
    mask = 0
    defect = [0] * g2.num_vertices
    e1 = 0
    c = curve
    while c:
        if c & 1:
            e2 = inv[e1]
            mask |= 1 << e2
            u, v = g2.edges[e2]
            defect[u] ^= 1
            defect[v] ^= 1
        c >>= 1
        e1 += 1
    # repair parity inside each contracted tree, leaves upward
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in t.contracted:
        u, v = g2.edges[e]
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))
    seen = set()
    for root in sorted(adj):
        if root in seen:
            continue
        order = []
        parent_edge = {root: None}
        stack = [root]
        seen.add(root)
        while stack:
            x = stack.pop()
            order.append(x)
            for e, y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    parent_edge[y] = (e, x)
                    stack.append(y)
        for x in reversed(order):
            if parent_edge[x] is None:
                if defect[x]:
                    raise GraphError("curve has no preimage (odd defect at tree root)")
                continue
            if defect[x]:
                e, p = parent_edge[x]
                mask ^= 1 << e
                defect[x] ^= 1
                defect[p] ^= 1
    if not g2.is_closed_curve(mask):
        raise GraphError("preimage construction failed")
    return mask


def transported_weights(t: MinorTransform, weights, num_host_edges: int) -> list[float]:
    """Host-edge weights: surviving edges inherit w(image), helpers get 1."""
    out = [1.0] * num_host_edges
    for e_host, e_minor in t.edge_map.items():
        out[e_host] = float(weights[e_minor])
    return out


def minor_scheme(g2: Graph, s2: EmbeddingScheme, t: MinorTransform, g1: Graph) -> EmbeddingScheme:
    """Embedding scheme induced on a minor of an embedded graph.

    Deleting an edge removes it from both rotations; contracting an edge
    splices the two endpoint rotations at its slots.  Contracted edges must
    carry positive signature (no crosscaps), which holds for the transforms
    the builders produce on orientable schemes.
    """
    s2.validate(g2)
    rot = {v: list(s2.rotations[v]) for v in range(g2.num_vertices)}
    for e in t.deleted:
        for v in g2.edges[e]:
            rot[v].remove(e)
    alive = {v: v for v in range(g2.num_vertices)}

    def find(v):
        while alive[v] != v:
            alive[v] = alive[alive[v]]
            v = alive[v]
        return v

    for e in sorted(t.contracted):
        if s2.crosscaps[e]:
            raise SchemeError("cannot transport a scheme through a twisted contraction")
        u, v = (find(x) for x in g2.edges[e])
        if u == v:
            raise GraphError("contracting a cycle")
        ru, rv = rot[u], rot[v]
        iu, iv = ru.index(e), rv.index(e)
        merged = ru[iu + 1:] + ru[:iu] + rv[iv + 1:] + rv[:iv]
        keep, drop = u, v
        rot[keep] = merged
        del rot[drop]
        alive[drop] = keep
    rotations = [None] * g1.num_vertices
    for v2, seq in rot.items():
        v1 = t.vertex_map[v2]
        rotations[v1] = tuple(t.edge_map[e] for e in seq)
    caps = [()] * g1.num_edges
    for e2, e1 in t.edge_map.items():
        caps[e1] = s2.crosscaps[e2]
    out = EmbeddingScheme(tuple(rotations), tuple(caps), s2.n_crosscaps)
    out.validate(g1)
    return out


# ---------------------------------------------------------------------------
# embedded builder


KEEP, CONTRACT, DELETE = "keep", "con", "del"


class _WalkEditor:
    """A captured face walk whose steps stay addressable across subdivisions.

    Steps are (vertex, edge, sense) triples; each carries a stable token so
    chord endpoints can be fixed before edge splits shift positions.
    """

    def __init__(self, walk: FaceWalk):
        self.steps = list(walk.steps)
        self.tokens = [next(_TOKEN) for _ in self.steps]

    def __len__(self):
        return len(self.steps)

    def index_of(self, token) -> int:
        return self.tokens.index(token)

    def token_at(self, position: int):
        return self.tokens[position % len(self.steps)]

    def token_after(self, token):
        return self.tokens[(self.index_of(token) + 1) % len(self.steps)]

    def apply_split(self, builder: "_SurfaceBuilder", split):
        """Rewrite every traversal of the split edge as two half-edge steps."""
        a, b, kept_id, new_id, w = split
        out_steps, out_tokens = [], []
        for st, tok in zip(self.steps, self.tokens):
            v, e, sense = st
            if e != kept_id or v not in (a, b, w):
                out_steps.append(st)
                out_tokens.append(tok)
                continue
            if v == a:
                seq = [(kept_id, w), (new_id, b)]
            else:
                seq = [(new_id, w), (kept_id, a)]
            cur = sense
            first = True
            for eid, _nxt in seq:
                out_steps.append((v if first else w, eid, cur))
                out_tokens.append(tok if first else next(_TOKEN))
                cur *= builder.signature(eid)
                first = False
        self.steps = out_steps
        self.tokens = out_tokens


_TOKEN = count()


class _SurfaceBuilder:
    """Mutable embedded graph with full undo bookkeeping."""

    def __init__(self, g: Graph, s: EmbeddingScheme):
        s.validate(g)
        self.base_vertices = g.num_vertices
        self.nv = g.num_vertices
        self.edges: list[tuple[int, int]] = [tuple(e) for e in g.edges]
        self.rot: list[list[int]] = [list(s.rotations[v]) for v in range(g.num_vertices)]
        self.caps: list[list[int]] = [list(c) for c in s.crosscaps]
        self.ncaps = s.n_crosscaps
        self.kind: list[str] = [KEEP] * g.num_edges
        self.origin: list[int | None] = list(range(g.num_edges))
        self.anchor: list[int | None] = [min(u, v) for u, v in g.edges]

    # -- snapshots ---------------------------------------------------------
    def graph(self) -> Graph:
        return Graph(self.nv, tuple(self.edges))

    def scheme(self) -> EmbeddingScheme:
        return EmbeddingScheme(
            tuple(tuple(r) for r in self.rot),
            tuple(tuple(c) for c in self.caps),
            self.ncaps,
        )

    def trace(self):
        return trace_faces(self.graph(), self.scheme())

    def degree(self, v: int) -> int:
        return len(self.rot[v])

    def signature(self, e: int) -> int:
        return -1 if len(self.caps[e]) % 2 else 1

    # -- elementary operations ----------------------------------------------
    def new_vertex(self) -> int:
        self.nv += 1
        self.rot.append([])
        return self.nv - 1

    def new_edge(self, u: int, v: int, kind: str) -> int:
        if u == v:
            raise GraphError("loop edge")
        self.edges.append((u, v))
        self.caps.append([])
        self.kind.append(kind)
        self.origin.append(None)
        self.anchor.append(None)
        return len(self.edges) - 1

    def subdivide(self, e: int):
        """Split edge e at a new vertex; returns (a, b, kept_id, new_id, w).

        The half keeping id e stays attached to the anchor endpoint a and
        carries the crosscap list; the other half is a helper segment to be
        contracted (for chords, the remaining half stays deletable so the
        new vertex still vanishes under the transform).
        """
        u, v = self.edges[e]
        kind = self.kind[e]
        a = self.anchor[e] if kind == KEEP and self.anchor[e] in (u, v) else u
        b = v if a == u else u
        w = self.new_vertex()
        self.edges[e] = (a, w)
        new_id = self.new_edge(w, b, CONTRACT)
        if kind == KEEP:
            self.anchor[e] = a
        # rotations: id e keeps its slot at a; b sees the new id in e's slot
        self.rot[b][self.rot[b].index(e)] = new_id
        self.rot[w] = [e, new_id]
        return (a, b, e, new_id, w)

    def apply_vertex_switch(self, v: int):
        """Reverse the rotation at v and toggle crosscap 1 on its edges.

        Preserves the face structure and every curve's crossing-parity class
        (a closed curve meets v through an even number of edges).
        """
        if self.ncaps < 1:
            raise SchemeError("vertex switch needs at least one crosscap")
        self.rot[v].reverse()
        for e in set(self.rot[v]):
            caps = self.caps[e]
            if 1 in caps:
                caps.remove(1)
            else:
                caps.append(1)

    # -- chords inside faces -------------------------------------------------
    def add_chords(self, editors: dict, chords: list):
        """Insert chord edges between boundary passages of captured walks.

        ``chords``: list of (editor_key_a, token_a, editor_key_b, token_b,
        kind, interior) where interior >= 0 inserts that many fresh degree-2
        vertices along the chord.  Returns the list of created edge ids.

        A chord drawn inside a face must connect its two corner frames
        orientation-consistently.  When the walk passes the corners with
        opposite senses, the endpoint frames are first reconciled by vertex
        switches (solved as a GF(2) system over the chord endpoints); all new
        edges then carry signature +1 and no crosscaps.
        """
        endpoint = []
        for (ka, ta, kb, tb, _kind, _interior) in chords:
            ea, eb = editors[ka], editors[kb]
            pa, pb = ea.index_of(ta), eb.index_of(tb)
            endpoint.append(((ka, ta, pa), (kb, tb, pb)))
        # reconcile corner senses by switching vertices before any insertion
        equations = []
        for ((ka, ta, pa), (kb, tb, pb)), spec in zip(endpoint, chords):
            va, sa = editors[ka].steps[pa][0], editors[ka].steps[pa][2]
            vb, sb = editors[kb].steps[pb][0], editors[kb].steps[pb][2]
            equations.append((va, vb, 1 if sa * sb == -1 else 0))
        flipped = self._solve_switches(equations)

        def sense_of(key, pos):
            v, _e, s = editors[key].steps[pos]
            return -s if v in flipped else s

        created = []
        per_corner: dict = {}
        for ((ka, ta, pa), (kb, tb, pb)), (spec_ka, _ta, _kb, _tb, kind, interior) in zip(
            endpoint, chords
        ):
            va = editors[ka].steps[pa][0]
            vb = editors[kb].steps[pb][0]
            if interior:
                chain = [va]
                for _ in range(interior):
                    chain.append(self.new_vertex())
                chain.append(vb)
                ids = [
                    self.new_edge(chain[i], chain[i + 1], kind)
                    for i in range(len(chain) - 1)
                ]
                for i in range(1, len(chain) - 1):
                    self.rot[chain[i]] = [ids[i - 1], ids[i]]
                end_a, end_b = ids[0], ids[-1]
                created.extend(ids)
            else:
                eid = self.new_edge(va, vb, kind)
                created.append(eid)
                end_a = end_b = eid
            per_corner.setdefault((ka, ta), []).append((pb if ka == kb else None, (kb, tb), end_a))
            per_corner.setdefault((kb, tb), []).append((pa if ka == kb else None, (ka, ta), end_b))
        # splice each corner once, chords ordered by walk distance descending
        for (k, tok), items in per_corner.items():
            editor = editors[k]
            pos = editor.index_of(tok)
            length = len(editor)
            vertex, depart, _s = editor.steps[pos]
            sense = sense_of(k, pos)
            arrive = editor.steps[(pos - 1) % length][1]

            def distance(item):
                other_pos, other_key, _eid = item
                if other_pos is None:
                    # endpoint on another face: treat as farthest, stable order
                    return (length, str(other_key))
                return ((other_pos - pos) % length, str(other_key))

            ordered = sorted(items, key=distance, reverse=True)
            chord_ids = [eid for _p, _k, eid in ordered]
            self._splice(vertex, arrive, depart, sense, chord_ids)
        return created

    def _splice(self, v: int, arrive: int, depart: int, sense: int, chord_ids: list):
        rot = self.rot[v]
        if len(rot) < 2:
            raise SchemeError("cannot splice at an isolated corner")
        if sense == 1:
            i = rot.index(arrive)
            if rot[(i + 1) % len(rot)] != depart:
                raise SchemeError("corner does not match rotation")
            self.rot[v] = rot[: i + 1] + chord_ids + rot[i + 1 :]
        else:
            i = rot.index(depart)
            if rot[(i + 1) % len(rot)] != arrive:
                raise SchemeError("corner does not match rotation")
            self.rot[v] = rot[: i + 1] + list(reversed(chord_ids)) + rot[i + 1 :]

    def _solve_switches(self, equations: list) -> set:
        """Pick vertex switches with x_u + x_v = bit for every (u, v, bit).

        Applies the switches and returns the set of switched vertices.
        """
        if all(bit == 0 for _u, _v, bit in equations):
            return set()
        adj: dict[int, list[tuple[int, int]]] = {}
        for u, v, bit in equations:
            adj.setdefault(u, []).append((v, bit))
            adj.setdefault(v, []).append((u, bit))
        assign: dict[int, int] = {}
        for root in sorted(adj):
            if root in assign:
                continue
            assign[root] = 0
            stack = [root]
            while stack:
                x = stack.pop()
                for y, bit in adj[x]:
                    want = assign[x] ^ bit
                    if y not in assign:
                        assign[y] = want
                        stack.append(y)
                    elif assign[y] != want:
                        raise SchemeError("inconsistent chord signature system")
        flipped = {v for v, flag in assign.items() if flag}
        for v in sorted(flipped):
            self.apply_vertex_switch(v)
        return flipped

    # -- finalize -------------------------------------------------------------
    def finalize(self) -> tuple[Graph, EmbeddingScheme, MinorTransform]:
        g = self.graph()
        s = self.scheme()
        deleted = frozenset(e for e, k in enumerate(self.kind) if k == DELETE)
        contracted = frozenset(e for e, k in enumerate(self.kind) if k == CONTRACT)
        edge_map = {
            e: self.origin[e] for e, k in enumerate(self.kind) if k == KEEP
        }
        roots = _contraction_components(g, contracted)
        comp_members: dict[int, list[int]] = {}
        for v, r in enumerate(roots):
            comp_members.setdefault(r, []).append(v)
        vertex_map = {}
        for members in comp_members.values():
            originals = [v for v in members if v < self.base_vertices]
            if len(originals) != 1:
                raise GraphError("contracted component does not collapse to one original vertex")
            for v in members:
                vertex_map[v] = originals[0]
        t = MinorTransform(deleted, contracted, edge_map, vertex_map)
        return g, s, t


# ---------------------------------------------------------------------------
# claim drivers


def _face_dual_route(report, v1: int, odd_vertices):
    """BFS in the face-adjacency graph from v1's faces to another odd vertex.

    Returns (v2, [face indices], [shared edge per hop]).  Ties break toward
    lower face ids, then lower vertex ids.
    """
    faces = report.faces
    edge_faces: dict[int, list[int]] = {}
    for i, f in enumerate(faces):
        for e in f.edge_ids:
            edge_faces.setdefault(e, []).append(i)
    start = sorted(i for i, f in enumerate(faces) if v1 in f.vertex_ids)
    parent: dict[int, tuple[int, int] | None] = {i: None for i in start}
    frontier = list(start)
    while frontier:
        for i in frontier:
            cands = sorted(set(faces[i].vertex_ids) & odd_vertices - {v1})
            if cands:
                v2 = cands[0]
                route = [i]
                hops = []
                cur = i
                while parent[cur] is not None:
                    e, prev = parent[cur]
                    hops.append(e)
                    route.append(prev)
                    cur = prev
                return v2, list(reversed(route)), list(reversed(hops))
        nxt = []
        for i in frontier:
            for e in sorted(set(faces[i].edge_ids)):
                for j in edge_faces[e]:
                    if j not in parent:
                        parent[j] = (e, i)
                        nxt.append(j)
        frontier = sorted(set(nxt))
    raise GraphError("no second odd vertex reachable (graph not connected?)")


def _first_token_of_vertex(editor: _WalkEditor, v: int):
    for pos, (x, _e, _s) in enumerate(editor.steps):
        if x == v:
            return editor.token_at(pos)
    raise GraphError(f"vertex {v} not on the captured walk")


def _pair_odd_vertices(b: _SurfaceBuilder):
    while True:
        odd = sorted(v for v in range(b.nv) if b.degree(v) % 2)
        if not odd:
            return
        v1 = odd[0]
        report = b.trace()
        v2, route, hop_edges = _face_dual_route(report, v1, set(odd))
        editors = {i: _WalkEditor(report.faces[i]) for i in set(route)}
        if len(route) == 1:
            f = route[0]
            ta = _first_token_of_vertex(editors[f], v1)
            tb = _first_token_of_vertex(editors[f], v2)
            adjacent = any(set(b.edges[e]) == {v1, v2} for e in b.rot[v1])
            if adjacent:
                # route through a fresh interior vertex: one segment contracts
                # into v1 so the interior vertex vanishes under the transform
                ids = b.add_chords(editors, [(f, ta, f, tb, DELETE, 1)])
                b.kind[ids[0]] = CONTRACT
            else:
                b.add_chords(editors, [(f, ta, f, tb, DELETE, 0)])
        else:
            w_tokens = []
            for hop, e in enumerate(hop_edges):
                split = b.subdivide(e)
                for ed in editors.values():
                    ed.apply_split(b, split)
                w = split[4]
                w_tokens.append(w)
            chords = []
            prev_vertex, prev_face = v1, route[0]
            anchor_tok = _first_token_of_vertex(editors[route[0]], v1)
            for hop, w in enumerate(w_tokens):
                face = route[hop]
                tok_w = _first_token_of_vertex(editors[face], w)
                chords.append((face, anchor_tok, face, tok_w, DELETE, 0))
                anchor_tok = _first_token_of_vertex(editors[route[hop + 1]], w)
            chords.append(
                (route[-1], anchor_tok, route[-1],
                 _first_token_of_vertex(editors[route[-1]], v2), DELETE, 0)
            )
            b.add_chords(editors, chords)


def _split_large_vertices(b: _SurfaceBuilder):
    while True:
        big = [v for v in range(b.nv) if b.degree(v) > 4]
        if not big:
            return
        v = min(big)
        rot_v = list(b.rot[v])
        r = len(rot_v)
        if r % 2:
            raise GraphError("odd-degree vertex reached the splitting stage")
        m = (r - 2) // 2
        chain = [v] + [b.new_vertex() for _ in range(m - 1)]
        internals = [b.new_edge(chain[i], chain[i + 1], CONTRACT) for i in range(m - 1)]
        blocks = [rot_v[:3]] + [rot_v[3 + 2 * i: 5 + 2 * i] for i in range(m - 2)] + [rot_v[r - 3:]]
        for i, t in enumerate(chain):
            ext = blocks[i]
            for e in ext:
                u, w = b.edges[e]
                b.edges[e] = (t, w) if u == v else ((u, t) if w == v else b.edges[e])
                if b.anchor[e] == v:
                    b.anchor[e] = t
            if i == 0:
                b.rot[t] = ext + [internals[0]]
            elif i == m - 1:
                b.rot[t] = [internals[-1]] + ext
            else:
                b.rot[t] = [internals[i - 1]] + ext + [internals[i]]


def _absorb_degree_two(b: _SurfaceBuilder):
    while True:
        small = [v for v in range(b.nv) if b.degree(v) == 2]
        if not small:
            return
        v = min(small)
        report = b.trace()
        choice = None
        for i, f in enumerate(report.faces):
            if v not in f.vertex_ids or len(f) < 4:
                continue
            positions = [
                p for p, (_x, e, _s) in enumerate(f.steps)
                if v not in b.edges[e]
            ]
            # two positions on distinct edges
            firsts: dict[int, int] = {}
            for p in positions:
                e = f.steps[p][1]
                firsts.setdefault(e, p)
            if len(firsts) >= 2:
                es = sorted(firsts.values())[:2]
                choice = (i, es[0], es[1])
                break
        if choice is None:
            # grow a face: subdivide the lowest non-incident edge of a face at v
            for i, f in enumerate(report.faces):
                if v not in f.vertex_ids:
                    continue
                cands = sorted(e for e in set(f.edge_ids) if v not in b.edges[e])
                if cands:
                    b.subdivide(cands[0])
                    break
            else:
                raise GraphError("no face available to absorb a degree-2 vertex")
            continue
        i, p1, p2 = choice
        editor = _WalkEditor(report.faces[i])
        tok_v = _first_token_of_vertex(editor, v)
        tok_p1 = editor.token_at(p1)
        tok_p2 = editor.token_at(p2)
        split1 = b.subdivide(editor.steps[p1][1])
        editor.apply_split(b, split1)
        split2 = b.subdivide(editor.steps[editor.index_of(tok_p2)][1])
        editor.apply_split(b, split2)
        tok_w1 = editor.token_after(tok_p1)
        tok_w2 = editor.token_after(tok_p2)
        editors = {i: editor}
        b.add_chords(
            editors,
            [
                (i, tok_v, i, tok_w1, DELETE, 0),
                (i, tok_v, i, tok_w2, DELETE, 0),
                (i, tok_w1, i, tok_w2, DELETE, 0),
            ],
        )


def four_regularize(g: Graph, s: EmbeddingScheme) -> tuple[Graph, EmbeddingScheme, MinorTransform]:
    """4-regular host graph on the same surface with the reduction recorded."""
    if not g.is_two_connected():
        raise GraphError("not 2-connected")
    b = _SurfaceBuilder(g, s)
    _pair_odd_vertices(b)
    _split_large_vertices(b)
    _absorb_degree_two(b)
    out, scheme, t = b.finalize()
    if not out.is_regular(4):
        raise GraphError("regularization failed to reach degree 4")
    return out, scheme, t


def subdivide_to_cycle_faces(
    g: Graph, s: EmbeddingScheme
) -> tuple[Graph, EmbeddingScheme, MinorTransform]:
    """Make every face boundary a cycle by ringing bad faces with subdivisions."""
    if not g.is_regular(4):
        raise GraphError("expected a 4-regular graph")
    b = _SurfaceBuilder(g, s)
    while True:
        report = b.trace()
        bad = next(
            (i for i, f in enumerate(report.faces) if not f.is_cycle),
            None,
        )
        if report.self_paired:
            raise SchemeError("embedding has a self-reversing face walk")
        if bad is None:
            break
        editor = _WalkEditor(report.faces[bad])
        position_tokens = list(editor.tokens)
        position_edges = [st[1] for st in editor.steps]
        handled: set[int] = set()
        for tok, e in zip(position_tokens, position_edges):
            if e in handled:
                continue
            handled.add(e)
            occurrences = [
                t for t, pe in zip(position_tokens, position_edges) if pe == e
            ]
            split1 = b.subdivide(e)
            editor.apply_split(b, split1)
            if len(occurrences) == 2:
                # second subdivision point on the half nearer the far endpoint
                first_pos = editor.index_of(occurrences[0])
                second_edge = editor.steps[(first_pos + 1) % len(editor)][1]
                split2 = b.subdivide(second_edge)
                editor.apply_split(b, split2)
            elif len(occurrences) > 2:
                raise SchemeError("face walk traverses an edge more than twice")
        ring_tokens = [editor.token_after(tok) for tok in position_tokens]
        chords = []
        for i in range(len(ring_tokens)):
            chords.append(
                ("f", ring_tokens[i], "f", ring_tokens[(i + 1) % len(ring_tokens)], DELETE, 0)
            )
        b.add_chords({"f": editor}, chords)
    out, scheme, t = b.finalize()
    return out, scheme, t


def build_host(g: Graph, s: EmbeddingScheme) -> tuple[Graph, EmbeddingScheme, MinorTransform]:
    """The matrix pipeline's host: :func:`four_regularize` then
    :func:`subdivide_to_cycle_faces`, with the composed transform back to g."""
    g1, s1, t1 = four_regularize(g, s)
    g2, s2, t2 = subdivide_to_cycle_faces(g1, s1)
    return g2, s2, compose_transforms(t2, t1)
