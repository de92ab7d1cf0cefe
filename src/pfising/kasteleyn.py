"""Incidence matrices realizing partition functions as Pfaffians.

The construction follows the algebraic route: on a 4-regular graph with a
strong embedding, the face-boundary cycle family is sparse, so one can give
the six site entries of every vertex values satisfying the (at most two)
active site equations, give every edge entry a magnitude from the edge
equation b_e**2 = -R_v * R_w, and fix the signs of the edge entries through
one GF(2) system per basis cycle.  Closed curves then contribute equally to
the Pfaffian expansion within each crossing-parity class, which is what the
partition-function formulas rely on.

Entries live in a monomial form (real coefficient, crosscap subset mask) and
are stored once, on the dart pattern ``DartGraph.pairs``.  The ring is C_n
for a scheme with n crosscaps; n = 0 is the real ring.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import xor

import numpy as np

from .darts import (
    DartGraph,
    PerfectMatching,
    build_dart_graph,
    canonical_matching,
    even_degree_matching,
    f_weight,
    pattern_entries,
)
from .embeddings import EmbeddingScheme, SchemeError, trace_faces, face_boundary_basis
from .gf2 import gf2_solve, masks_to_matrix
from .graphs import (
    CURVE_ENUM_MAX_BETTI,
    CurveMask,
    CycleBasis,
    Graph,
    GraphError,
    cycle_sequence,
    cycle_span,
    fundamental_cycle_basis,
)
from .multicomplex import MulticomplexValue
from .skewpf import (
    MULTICOMPLEX,
    REAL,
    SkewMatrix,
    derived_matrix,
    entry_ring,
    permutation_sign,
    pfaffian,
    skew_from_pairs,
    submatrix,
)

EDGE_EQ_TOL = 1e-9
CALIBRATION_TOL = 1e-7
CALIBRATION_SEED = 718281828
CALIBRATION_SAMPLES = 16  # random span curves checked when the span is too big to sum
CURVE_BLOCK = 4096  # curves per block of the calibration's curve-by-edge matrix

# upper-triangular slots of a 4x4 site block, in (s, sbar, t, tbar, u, ubar) order
_SITE_SLOTS = {(0, 1): 0, (2, 3): 1, (0, 2): 2, (1, 3): 3, (0, 3): 4, (1, 2): 5}


class SolveError(ValueError):
    pass


@dataclass(frozen=True)
class SiteAssignment:
    """Per-vertex site entries (s, sbar, t, tbar, u, ubar) in E(v) order."""

    values: np.ndarray  # (num_vertices, 6)

    def entry(self, v: int, pos_a: int, pos_b: int) -> float:
        if pos_a == pos_b:
            return 0.0
        if pos_a < pos_b:
            return float(self.values[v, _SITE_SLOTS[(pos_a, pos_b)]])
        return -float(self.values[v, _SITE_SLOTS[(pos_b, pos_a)]])


@dataclass(frozen=True)
class EdgeAssignment:
    """Per-edge entry b_e in monomial form: coeff * prod_{k in mask} i_k."""

    coeffs: np.ndarray  # real, signed
    masks: tuple[int, ...]  # crosscap subset bitmask per edge


def _even_permutation(enter_pos: int, exit_pos: int) -> tuple[int, ...]:
    """The unique even permutation sigma of (0,1,2,3) with sigma[0]=enter, sigma[3]=exit."""
    mid = [p for p in range(4) if p not in (enter_pos, exit_pos)]
    sigma = (enter_pos, mid[0], mid[1], exit_pos)
    if permutation_sign(sigma) < 0:
        sigma = (enter_pos, mid[1], mid[0], exit_pos)
    return sigma


@dataclass(frozen=True)
class _Visit:
    """One vertex visit of an oriented cycle: enters via one edge, exits via another."""

    vertex: int
    enter_edge: int
    exit_edge: int
    sigma: tuple[int, ...]  # positions in E(v) reordered so enter->slot0, exit->slot3


def cycle_visits(g: Graph, cycle: CurveMask) -> list[_Visit]:
    verts, edges = cycle_sequence(g, cycle)
    r = len(verts)
    visits = []
    for i in range(r):
        v = verts[i]
        enter = edges[(i - 1) % r]
        exit_ = edges[i]
        adj = g.adjacency[v]
        sigma = _even_permutation(adj.index(enter), adj.index(exit_))
        visits.append(_Visit(v, enter, exit_, sigma))
    return visits


def _relabeled(site: SiteAssignment, visit: _Visit) -> dict[str, float]:
    """Matrix entries of the site block in the visit's slot order.

    Mab is the signed entry between the darts landing in slots a and b once
    the visit's permutation puts the entering edge first and the leaving edge
    last.  The seam invariance of the curve functional rests on the relation
    M12*M34 = M13*M24 at every visited vertex, the slot-ordered form of the
    site equation.
    """
    v, sg = visit.vertex, visit.sigma
    return {
        "M12": site.entry(v, sg[0], sg[1]),
        "M34": site.entry(v, sg[2], sg[3]),
        "M13": site.entry(v, sg[0], sg[2]),
        "M24": site.entry(v, sg[1], sg[3]),
        "M14": site.entry(v, sg[0], sg[3]),
        "M23": site.entry(v, sg[1], sg[2]),
    }


def visit_u_entry(site: SiteAssignment, visit: _Visit) -> float:
    """The entry pairing the entering with the leaving dart (slot 1-4)."""
    return _relabeled(site, visit)["M14"]


def ratio_leaving(site: SiteAssignment, visit: _Visit) -> float:
    """R_{v,e} for the edge the cycle leaves the vertex by."""
    c = _relabeled(site, visit)
    return -c["M14"] * c["M24"] / c["M12"]


def ratio_entering(site: SiteAssignment, visit: _Visit) -> float:
    """R_{v,e} for the edge the cycle enters the vertex by."""
    c = _relabeled(site, visit)
    return c["M14"] * c["M13"] / c["M34"]


def cycle_ratios(g: Graph, site: SiteAssignment, cycle: CurveMask) -> dict[tuple[int, int], float]:
    """R_{v,e} for every (vertex, edge) incidence along the cycle."""
    out = {}
    for visit in cycle_visits(g, cycle):
        out[(visit.vertex, visit.enter_edge)] = ratio_entering(site, visit)
        out[(visit.vertex, visit.exit_edge)] = ratio_leaving(site, visit)
    return out


_PARTITIONS = (
    (frozenset((0, 1)), frozenset((2, 3))),  # slot product s*sbar
    (frozenset((0, 2)), frozenset((1, 3))),  # slot product t*tbar
    (frozenset((0, 3)), frozenset((1, 2))),  # slot product u*ubar
)


def _pair_sign(a: int, b: int) -> float:
    return 1.0 if a < b else -1.0


def _visit_constraint(visit: _Visit) -> tuple[int, int, float]:
    """The visit's site equation as a relation between slot products.

    M12*M34 = M13*M24 in the visit's slot order, rewritten over the vertex's
    own edge order: returns (partition index of the left product, of the
    right product, relative sign eps) meaning Q_left = eps * Q_right.
    """
    sg = visit.sigma

    def classify(a, b, c, d):
        pair1, pair2 = frozenset((sg[a], sg[b])), frozenset((sg[c], sg[d]))
        for idx, (p1, p2) in enumerate(_PARTITIONS):
            if {pair1, pair2} == {p1, p2}:
                sign = _pair_sign(sg[a], sg[b]) * _pair_sign(sg[c], sg[d])
                return idx, sign
        raise AssertionError("slot pairs do not partition the positions")

    left_idx, left_sign = classify(0, 1, 2, 3)
    right_idx, right_sign = classify(0, 2, 1, 3)
    return left_idx, right_idx, left_sign * right_sign


def solve_site_equations(
    g: Graph, basis: CycleBasis, scheme: EmbeddingScheme
) -> SiteAssignment:
    """Nonzero site entries satisfying every active site equation.

    The unknowns per vertex reduce to the three products s*sbar, t*tbar and
    u*ubar; every basis cycle through the vertex ties two of them together
    with a sign.  A sparse family leaves at least one sign pattern feasible
    (three independent active forms would force all products to vanish).

    Also applies the rotation normalization of the nonorientable
    construction: at every vertex the ratio on the edge whose rotation
    successor is the cycle's other member edge is positive; flipping
    (u, ubar) at a vertex flips all its ratios.
    """
    if not g.is_regular(4):
        raise GraphError("site equations are formulated for 4-regular graphs")
    all_visits = {cyc: cycle_visits(g, cyc) for cyc in basis.cycles}
    constraints: list[list[tuple[int, int, float]]] = [[] for _ in range(g.num_vertices)]
    for cyc in basis.cycles:
        for visit in all_visits[cyc]:
            constraints[visit.vertex].append(_visit_constraint(visit))
    values = np.zeros((g.num_vertices, 6))
    candidates = [
        (1.0, -1.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (1.0, -1.0, -1.0),
        (-1.0, 1.0, 1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0), (-1.0, -1.0, -1.0),
    ]
    for v in range(g.num_vertices):
        solution = None
        for q in candidates:
            if all(q[i] == eps * q[j] for i, j, eps in constraints[v]):
                solution = q
                break
        if solution is None:
            raise SolveError("basis not sparse: site equations have no nonzero solution")
        q1, q2, q3 = solution
        values[v] = (1.0, q1, 1.0, q2, 1.0, q3)
    site = SiteAssignment(values)
    for cyc in basis.cycles:
        for visit in all_visits[cyc]:
            c = _relabeled(site, visit)
            if c["M12"] * c["M34"] - c["M13"] * c["M24"] != 0.0:
                raise SolveError("site equation violated after solve")
    _normalize_rotation_signs(g, site, basis, scheme, all_visits)
    return site


def _rotation_aligned_edge(scheme: EmbeddingScheme, visit: _Visit) -> int:
    """The member edge e of the visit pair with rotation successor in the pair."""
    v, p, q = visit.vertex, visit.enter_edge, visit.exit_edge
    if scheme.rotation_next(v, p, 1) == q:
        return p
    if scheme.rotation_next(v, q, 1) == p:
        return q
    raise SolveError(
        "basis cycle uses a non-adjacent rotation pair; not a face family"
    )


def _normalize_rotation_signs(g, site, basis, scheme, all_visits):
    seen = [False] * g.num_vertices
    for cyc in basis.cycles:
        for visit in all_visits[cyc]:
            v = visit.vertex
            if seen[v]:
                continue
            seen[v] = True
            e = _rotation_aligned_edge(scheme, visit)
            r = (
                ratio_entering(site, visit)
                if e == visit.enter_edge
                else ratio_leaving(site, visit)
            )
            if r < 0:
                site.values[v, 4] *= -1.0
                site.values[v, 5] *= -1.0
    # every remaining visit must now respect the rotation orientation
    for cyc in basis.cycles:
        for visit in all_visits[cyc]:
            e = _rotation_aligned_edge(scheme, visit)
            r = (
                ratio_entering(site, visit)
                if e == visit.enter_edge
                else ratio_leaving(site, visit)
            )
            if r < 0:
                raise SolveError("rotation sign normalization is inconsistent")


def solve_edge_equations(
    g: Graph,
    site: SiteAssignment,
    basis: CycleBasis,
    scheme: EmbeddingScheme,
) -> EdgeAssignment:
    """Edge entries from b_e**2 = -R_{v,e} R_{w,e}, as positive monomials.

    The right-hand side is cycle-independent (cycles sharing an edge have
    opposite ratios) and its sign matches the edge signature after the
    rotation normalization: negative exactly on odd-crosscap edges.  Signs of
    the coefficients are fixed later by the cycle equations.
    """
    rhs: dict[int, float] = {}
    for cyc in basis.cycles:
        visits = cycle_visits(g, cyc)
        r = len(visits)
        for i in range(r):
            e = visits[i].exit_edge
            value = -ratio_leaving(site, visits[i]) * ratio_entering(
                site, visits[(i + 1) % r]
            )
            if e in rhs:
                if abs(rhs[e] - value) > EDGE_EQ_TOL * max(1.0, abs(value)):
                    raise SolveError("edge equation inconsistent across cycles")
            else:
                rhs[e] = value
    coeffs = np.ones(g.num_edges)
    masks = []
    for e in range(g.num_edges):
        mask = scheme.crosscap_parity_mask(e)
        masks.append(mask)
        if e not in rhs:
            continue  # outside every basis cycle: unconstrained, stays 1
        value = rhs[e]
        negative = value < 0
        odd = int(mask).bit_count() % 2 == 1
        if negative != odd:
            raise SolveError(
                "edge equation sign disagrees with the scheme signature"
            )
        coeffs[e] = np.sqrt(abs(value))
    return EdgeAssignment(coeffs, tuple(masks))


def _monomial_product(pairs) -> tuple[float, int]:
    """Product of (coeff, mask) monomials: masks compose with i_k**2 = -1."""
    coeff = 1.0
    mask = 0
    for c, m in pairs:
        inter = mask & m
        if int(inter).bit_count() % 2:
            coeff = -coeff
        coeff *= c
        mask ^= m
    return coeff, mask


def solve_cycle_equations(
    g: Graph,
    site: SiteAssignment,
    edge: EdgeAssignment,
    basis: CycleBasis,
) -> EdgeAssignment:
    """Flip edge-entry signs so every basis cycle satisfies prod B = -prod U.

    B takes the sign of the dart-order traversal (positive from the lower
    endpoint).  The residual sign of each cycle is a GF(2) right-hand side;
    independence of the basis makes the system solvable.  Multicomplex
    monomials only contribute a global (-1) per doubly-crossed crosscap,
    which the same GF(2) pass absorbs.
    """
    rhs_bits = []
    for cyc in basis.cycles:
        visits = cycle_visits(g, cyc)
        r = len(visits)
        prod_u = 1.0
        terms = []
        for i in range(r):
            prod_u *= visit_u_entry(site, visits[i])
            e = visits[i].exit_edge
            v_from = visits[i].vertex
            v_to = visits[(i + 1) % r].vertex
            sign = 1.0 if v_from < v_to else -1.0
            terms.append((sign * edge.coeffs[e], edge.masks[e]))
        prod_b, mask_b = _monomial_product(terms)
        if mask_b != 0:
            raise SolveError(
                "basis cycle crosses some crosscap an odd number of times"
            )
        ratio = prod_b / prod_u
        if abs(abs(ratio) - 1.0) > 1e-6:
            raise SolveError("cycle equation residual is not a sign")
        rhs_bits.append(0 if ratio < 0 else 1)
    solution = gf2_solve(masks_to_matrix(basis.cycles, g.num_edges), rhs_bits)
    if solution is None:
        raise SolveError("basis not independent")
    return EdgeAssignment(np.where(solution == 1, -edge.coeffs, edge.coeffs), edge.masks)


@dataclass
class IncidenceMatrix:
    """Dart-indexed skew matrix with its construction context.

    entries[k] is the matrix entry at dart pair ``dart_graph.pairs[k]``: a
    real number when n_generators is 0, else its 2**n_generators
    coefficients in C_n.  edge_masks[e] is the crosscap subset edge e of
    ``graph`` crosses; a curve's crossing-parity class is the XOR of its
    edges' masks.  class_values maps a class to (real coefficient, monomial
    subset mask): the common value of the curve functional on that class.
    lam is the constant with Re(lam * F) = 1 on every class.
    """

    graph: Graph
    dart_graph: DartGraph
    entries: np.ndarray
    edge_masks: tuple[int, ...]
    reference_matching: PerfectMatching
    lam: object = None
    class_values: dict = field(default_factory=dict)
    n_generators: int = 0

    @property
    def ring(self) -> str:
        return MULTICOMPLEX if self.n_generators else REAL

    @property
    def skew(self) -> SkewMatrix:
        """The dense matrix, scattered from ``entries`` on every access."""
        d = self.dart_graph
        return skew_from_pairs(self.ring, d.num_darts, d.pairs, self.entries, self.n_generators)


def site_block_pfaffian(site: SiteAssignment, v: int) -> float:
    s, sbar, t, tbar, u, ubar = site.values[v]
    return s * sbar - t * tbar + u * ubar


def _assemble(d: DartGraph, site: SiteAssignment, edge: EdgeAssignment,
              n_generators: int) -> np.ndarray:
    """Entries on ``d.pairs``: each vertex's six site entries in pair order,
    then each edge's monomial (one-hot at its mask in C_n)."""
    site_part = site.values[:, [0, 2, 4, 5, 3, 1]].ravel()
    if not n_generators:
        return np.concatenate([site_part, edge.coeffs])
    entries = np.zeros((len(d.pairs), 1 << n_generators))
    entries[:len(site_part), 0] = site_part
    entries[len(site_part) + np.arange(len(edge.coeffs)), edge.masks] = edge.coeffs
    return entries


def build_incidence_matrix(
    g: Graph,
    scheme: EmbeddingScheme,
    curve_basis: list[CurveMask] | None = None,
    deleted_edges=(),
) -> IncidenceMatrix:
    """Run the three solvers over the face-boundary family and assemble.

    The entries lie in C_n for the scheme's n crosscaps (real when n = 0),
    and each edge entry carries prod i_k over its crosscap list.  With
    crosscaps, the class table is calibrated over the span of
    ``curve_basis`` (default: a fundamental basis of ``g``); a matrix used
    with link deletions passes a basis of the curves avoiding them.
    """
    if not g.is_regular(4):
        raise GraphError("incidence construction needs a 4-regular graph")
    if not g.is_two_connected():
        raise GraphError("not 2-connected")
    report = trace_faces(g, scheme)
    if not report.faces_are_cycles:
        raise SchemeError(
            "faces not cycles; apply subdivide_to_cycle_faces first"
        )
    basis = face_boundary_basis(g, scheme, report)
    d = build_dart_graph(g)
    site = solve_site_equations(g, basis, scheme)
    edge = solve_edge_equations(g, site, basis, scheme)
    edge = solve_cycle_equations(g, site, edge, basis)
    n_gen = scheme.n_crosscaps
    inc = IncidenceMatrix(
        graph=g,
        dart_graph=d,
        entries=_assemble(d, site, edge, n_gen),
        edge_masks=edge.masks,
        reference_matching=even_degree_matching(d),
        n_generators=n_gen,
    )
    if n_gen:
        if curve_basis is None:
            curve_basis = fundamental_cycle_basis(g).cycles
        _calibrate(inc, curve_basis, deleted_edges)
    else:
        f0 = float(np.prod([site_block_pfaffian(site, v) for v in range(g.num_vertices)]))
        inc.class_values = {0: (f0, 0)}
        inc.lam = f0
    return inc


def weighted_matrix(
    entries: np.ndarray,
    d: DartGraph,
    m0: PerfectMatching,
    weights,
) -> SkewMatrix:
    """Dense matrix of ``entries`` (laid out like ``IncidenceMatrix.entries``)
    with each link entry scaled by w (outside m0) or 1/w (inside m0)."""
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValueError("weights must be finite and strictly positive")
    factor = np.where([pair in m0 for pair in d.link_edges], 1.0 / w, w)
    scaled = entries.copy()
    scaled[len(d.site_edges):] *= factor.reshape((-1,) + (1,) * (entries.ndim - 1))
    ring, n_gen = entry_ring(entries)
    return skew_from_pairs(ring, d.num_darts, d.pairs, scaled, n_gen)


def zero_link_entries(inc: IncidenceMatrix, edges) -> np.ndarray:
    """Entries with the link entries of the given edges killed
    (deletion under an empty-intersection reference matching)."""
    entries = inc.entries.copy()
    entries[len(inc.dart_graph.site_edges) + np.fromiter(edges, dtype=np.intp)] = 0.0
    return entries


def zero_site_entries_at(inc: IncidenceMatrix, edges) -> np.ndarray:
    """Entries with the site entries touching darts of the given edges killed
    (deletion under the all-links reference matching)."""
    d = inc.dart_graph
    n_site = len(d.site_edges)
    targets = d.pairs[n_site + np.fromiter(edges, dtype=np.intp)]
    entries = inc.entries.copy()
    entries[:n_site][np.isin(d.pairs[:n_site], targets).any(axis=1)] = 0.0
    return entries


def _calibrate(inc: IncidenceMatrix, basis, deleted_edges=()):
    """Read the class table at one curve per class and build lam.

    The crossing-parity class is GF(2)-linear on curves, so XOR-ing every
    basis cycle into the representatives found so far reaches each class of
    the span.  The value on class c is the curve functional F at its
    representative and must be the single monomial c ^ sigma, where sigma is
    the class of the reference matching's links (0 for a vertex-internal
    reference).  When the matrix will be used with deleted edges, the
    deletion-zeroed entries are measured; the basis then spans the curves
    avoiding them.

    The table is then checked.  Up to CURVE_ENUM_MAX_BETTI basis cycles the
    check is exact: for a batch of random weight draws every coefficient of
    w(M0 & E) * Pf(A(w)) must equal sum_cls F_cls * W_cls(w), where W_cls(w)
    sums w(C) over the span's curves of the class.  Above it, F at
    CALIBRATION_SAMPLES random curves of the span must equal its class row.
    Signs are then normalized and lam is assembled so that Re(lam * F) = 1
    on every class.
    """
    g = inc.graph
    d = inc.dart_graph
    m0 = inc.reference_matching
    n_gen = inc.n_generators
    measured = zero_link_entries(inc, deleted_edges)
    ref_links = [e for e, pair in enumerate(d.link_edges) if pair in m0]
    sigma = reduce(xor, (inc.edge_masks[e] for e in ref_links), 0)
    basis_classes = [
        reduce(xor, (m for e, m in enumerate(inc.edge_masks) if b >> e & 1), 0) for b in basis
    ]
    reps = {0: 0}
    for b, cb in zip(basis, basis_classes):
        for cls, curve in list(reps.items()):
            reps.setdefault(cls ^ cb, curve ^ b)
    f_table = np.zeros((1 << n_gen, 1 << n_gen))  # row c: F on class c
    class_values = {}
    for cls in sorted(reps):
        vec = f_weight(measured, d, m0, reps[cls]).coeffs
        mono = cls ^ sigma
        coeff = vec[mono]
        off = np.max(np.abs(np.delete(vec, mono)))
        if abs(coeff) < 1e-9 or off > CALIBRATION_TOL * max(1.0, abs(coeff)):
            raise SolveError(
                "scheme/matrix invalid: class value is not the expected monomial"
            )
        class_values[cls] = (float(coeff), mono)
        f_table[cls] = vec
    rng = np.random.default_rng(CALIBRATION_SEED)
    if len(basis) <= CURVE_ENUM_MAX_BETTI:
        curves = cycle_span(basis)
        classes = np.array(cycle_span(basis_classes), dtype=np.uint8)  # n_gen <= 8
        draws = rng.uniform(0.4, 1.6, size=(2 * len(reps) + 4, g.num_edges))
        log_draws = np.log(draws).T
        weight_sums = np.zeros((1 << n_gen, len(draws)))
        for start in range(0, len(curves), CURVE_BLOCK):
            x = masks_to_matrix(curves[start:start + CURVE_BLOCK], g.num_edges).astype(np.float64)
            np.add.at(weight_sums, classes[start:start + len(x)], np.exp(x @ log_draws))
        pf_coeffs = np.array([
            pfaffian(weighted_matrix(measured, d, m0, w)).coeffs * np.prod(w[ref_links])
            for w in draws
        ])
        scale = max(1.0, float(np.max(np.abs(pf_coeffs))))
        residual = np.max(np.abs(weight_sums.T @ f_table - pf_coeffs))
        constant = residual <= CALIBRATION_TOL * scale
    else:
        constant = True
        for pick in rng.integers(0, 2, size=(CALIBRATION_SAMPLES, len(basis))):
            cls = reduce(xor, compress(basis_classes, pick), 0)
            vec = f_weight(measured, d, m0, reduce(xor, compress(basis, pick), 0)).coeffs
            tol = CALIBRATION_TOL * max(1.0, abs(f_table[cls, cls ^ sigma]))
            if np.max(np.abs(vec - f_table[cls])) > tol:
                constant = False
                break
    if not constant:
        raise SolveError(
            "scheme/matrix invalid: functional is not constant per class"
        )
    inc.class_values = _normalize_class_signs(inc, class_values)
    lam = MulticomplexValue.zero(n_gen)
    for coeff, mono in inc.class_values.values():
        weight = (-1.0) ** int(mono).bit_count() / coeff
        lam = lam + MulticomplexValue.monomial(n_gen, mono, weight)
    inc.lam = lam


def _normalize_class_signs(inc, class_values) -> dict:
    """Apply i_k -> -i_k so every class value has one sign; the new table.

    The automorphism for the generator subset x negates the coefficients at
    monomials m with |m & x| odd, so it flips class c relative to class 0
    exactly when |c & x| is odd: the repair solves a small GF(2) system over
    the class masks.  When the system is inconsistent the raw signs are kept
    (lam absorbs them).
    """
    classes = sorted(class_values)
    f0 = class_values[0][0]
    defects = np.array([class_values[c][0] * f0 < 0 for c in classes], dtype=np.uint8)
    if not defects.any():
        return class_values
    n_gen = inc.n_generators
    x = gf2_solve(masks_to_matrix(classes, n_gen), defects)
    if x is None or not x.any():
        return class_values
    sign = np.where(masks_to_matrix(range(1 << n_gen), n_gen) @ x % 2, -1.0, 1.0)
    inc.entries *= sign
    return {c: (float(coeff * sign[mono]), mono) for c, (coeff, mono) in class_values.items()}


def reduce_to_minor(
    inc: IncidenceMatrix,
    t,
    g1: Graph,
) -> IncidenceMatrix:
    """Integrate out the darts of the transform's edges (all-links reference).

    Site entries touching deleted edges are zeroed first so curves through
    them drop out; the derived matrix on the remaining darts is an incidence
    matrix on the minor's dart graph, reindexed to its dart order.  The
    functional constants transfer as lam1 = sign * Pf(A_K)**(n-p-1) * lam2
    in the real ring; multicomplex class tables are calibrated on the minor,
    whose edges keep the crossing masks of the host edges they come from.
    """
    g2 = inc.graph
    d2 = inc.dart_graph
    kept = zero_site_entries_at(inc, t.deleted)
    checked = skew_from_pairs(inc.ring, d2.num_darts, d2.pairs, kept, inc.n_generators)
    k_indices = sorted(
        i
        for e in (set(t.deleted) | set(t.contracted))
        for i in d2.link_edges[e]
    )
    if not k_indices:
        return inc
    pf_k = pfaffian(submatrix(checked, k_indices))
    pf_k_mag = pf_k.max_abs() if inc.ring == MULTICOMPLEX else abs(pf_k)
    if pf_k_mag < 1e-12 * max(1.0, float(np.max(np.abs(inc.entries)))):
        raise SolveError("degenerate reduction")
    reduced = derived_matrix(checked, k_indices)
    comp = [i for i in range(d2.num_darts) if i not in set(k_indices)]
    d1 = build_dart_graph(g1)
    # position of each surviving dart in the minor's dart order
    target = []
    for i in comp:
        v2, e2 = d2.darts[i]
        dart1 = (t.vertex_map[v2], t.edge_map[e2])
        target.append(d1.dart_index[dart1])
    perm = np.argsort(np.array(target))
    a1 = SkewMatrix(inc.ring, reduced.data[perm][:, perm], inc.n_generators)
    edge_masks = [0] * g1.num_edges
    for e2, e1 in t.edge_map.items():
        edge_masks[e1] = inc.edge_masks[e2]
    out = IncidenceMatrix(
        graph=g1,
        dart_graph=d1,
        entries=pattern_entries(a1, d1),
        edge_masks=tuple(edge_masks),
        reference_matching=canonical_matching(d1),
        n_generators=inc.n_generators,
    )
    if inc.ring == REAL:
        n = d2.num_darts // 2
        p = len(k_indices) // 2
        lam1 = permutation_sign(perm) * (pf_k ** (n - p - 1)) * inc.lam
        out.lam = lam1
        out.class_values = {0: (lam1, 0)}
    else:
        _calibrate(out, fundamental_cycle_basis(g1).cycles)
    return out


# ---------------------------------------------------------------------------
# K5 / K3,3 obstructions


# two cycle families per graph, as edge-id tuples; the hexagon family and
# its partner share every length-4 subchain with equal multiplicity
K33_CYCLES = (
    (0, 3, 5, 8, 7, 1),
    (0, 6, 8, 2),
    (3, 6, 7, 4),
)
K33_CYCLES_PRIME = (
    (0, 3, 4, 7, 8, 2),
    (0, 6, 7, 1),
    (3, 6, 8, 5),
)
K5_CYCLES = (
    (4, 3, 6),
    (0, 1, 2, 6),
    (0, 7, 2, 9, 4),
    (0, 8, 3, 2, 5),
)
K5_CYCLES_PRIME = (
    (4, 9, 2, 6),
    (0, 8, 3, 6),
    (0, 7, 2, 5),
    (0, 1, 2, 3, 4),
)


def _edges_to_mask(edges) -> int:
    mask = 0
    for e in edges:
        mask |= 1 << e
    return mask


def random_incidence_matrix(d: DartGraph, rng: np.random.Generator) -> SkewMatrix:
    """Random real skew matrix supported on the dart-graph edge pattern."""
    return skew_from_pairs(REAL, d.num_darts, d.pairs, rng.normal(size=len(d.pairs)))


def obstruction_check(which: str, a: SkewMatrix, d: DartGraph | None = None) -> dict:
    """Evaluate the two cycle families whose functional products must be
    opposite; no choice of entries can make the functional constant."""
    from .fixtures import get_fixture

    if which == "k5":
        fixture = get_fixture("k5-projective")
        fam, fam_prime = K5_CYCLES, K5_CYCLES_PRIME
    elif which == "k33":
        fixture = get_fixture("k33-projective")
        fam, fam_prime = K33_CYCLES, K33_CYCLES_PRIME
    else:
        raise ValueError("which must be 'k5' or 'k33'")
    g = fixture.graph
    if d is None or d.graph.edges != g.edges:
        d = build_dart_graph(g)
    entries = pattern_entries(a, d)
    m0 = canonical_matching(d)
    values = [f_weight(entries, d, m0, _edges_to_mask(cyc)) for cyc in fam]
    values_prime = [f_weight(entries, d, m0, _edges_to_mask(cyc)) for cyc in fam_prime]
    lhs = float(np.prod(values))
    rhs = float(np.prod(values_prime))
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return {"lhs": lhs, "rhs": rhs, "relative_residual": 0.0, "degenerate": True}
    return {
        "lhs": lhs,
        "rhs": rhs,
        "relative_residual": abs(lhs + rhs) / scale,
        "degenerate": False,
    }
