import numpy as np
import pytest

from pfising.darts import (
    build_dart_graph,
    canonical_matching,
    enumerate_matchings,
    even_degree_matching,
    f_weight,
    matching_to_curve,
    pattern_entries,
    phi,
)
from pfising.fixtures import get_fixture
from pfising.graphs import GraphError, Graph, enumerate_closed_curves, first_betti
from pfising.kasteleyn import random_incidence_matrix, weighted_matrix
from pfising.skewpf import matching_sign, pfaffian

K3 = get_fixture("k3").graph
C4 = get_fixture("c4").graph
K4 = get_fixture("k4").graph
K5 = get_fixture("k5-projective").graph
K33 = get_fixture("k33-projective").graph


def test_dart_graph_sizes():
    d3 = build_dart_graph(K3)
    assert (d3.num_darts, len(d3.link_edges), len(d3.site_edges)) == (6, 3, 3)
    d5 = build_dart_graph(K5)
    assert (d5.num_darts, len(d5.link_edges), len(d5.site_edges)) == (20, 10, 30)
    d33 = build_dart_graph(K33)
    assert (d33.num_darts, len(d33.link_edges), len(d33.site_edges)) == (18, 9, 18)


def test_isolated_vertex_rejected():
    g = Graph(3, ((0, 1),))
    with pytest.raises(GraphError, match="isolated"):
        build_dart_graph(g)


def test_canonical_matching_is_link_edges():
    for g, count in ((K3, 3), (K5, 10), (K33, 9)):
        d = build_dart_graph(g)
        m = canonical_matching(d)
        assert m == frozenset(d.link_edges)
        assert len(m) == count


def test_even_degree_matching():
    d5 = build_dart_graph(K5)
    m = even_degree_matching(d5)
    assert len(m) == 10
    assert not m & set(d5.link_edges)
    d4 = build_dart_graph(C4)
    m4 = even_degree_matching(d4)
    assert len(m4) == 4  # one site pair per vertex
    with pytest.raises(GraphError, match="odd-degree"):
        even_degree_matching(build_dart_graph(K4))


def test_matching_counts():
    assert len(enumerate_matchings(build_dart_graph(K3))) == 2
    assert len(enumerate_matchings(build_dart_graph(K33))) == 16
    assert len(enumerate_matchings(build_dart_graph(K5))) == 416


def test_matching_enumeration_guard():
    grid = get_fixture("grid3x3").graph  # 24 darts: at the guard
    torus = get_fixture("torus-grid3x3").graph  # 36 darts: over it
    build_dart_graph(grid)  # guard is on enumeration, not construction
    with pytest.raises(GraphError, match="guard"):
        enumerate_matchings(build_dart_graph(torus))


def test_phi_identity_and_triangle():
    d = build_dart_graph(K3)
    matchings = enumerate_matchings(d)
    m0 = canonical_matching(d)
    assert phi(m0, m0, d) == 0
    images = sorted(phi(m0, m, d) for m in matchings)
    assert images == [0, 0b111]


def test_phi_shift_rule():
    d = build_dart_graph(K33)
    matchings = enumerate_matchings(d)
    m0, m1 = matchings[0], matchings[5]
    for m in matchings[:8]:
        assert phi(m1, m, d) == phi(m0, m, d) ^ phi(m1, m0, d)


def test_phi_rejects_non_matchings():
    d = build_dart_graph(K3)
    m0 = canonical_matching(d)
    with pytest.raises(GraphError):
        phi(m0, frozenset({(0, 1)}), d)


def test_phi_surjective_with_class_count():
    for g in (K3, C4, K4, K33, K5):
        d = build_dart_graph(g)
        m0 = canonical_matching(d)
        images = {phi(m0, m, d) for m in enumerate_matchings(d)}
        assert images == set(enumerate_closed_curves(g))
        assert len(images) == 2 ** first_betti(g)


def test_three_regular_bijection():
    # K33 is 3-regular: matchings biject with closed curves
    d = build_dart_graph(K33)
    assert len(enumerate_matchings(d)) == 2 ** first_betti(K33)


def test_f_weight_zero_when_no_preimage():
    rng = np.random.default_rng(0)
    d = build_dart_graph(K3)
    a = random_incidence_matrix(d, rng)
    m0 = canonical_matching(d)
    # a single edge is not a closed curve: no matching maps to it
    assert f_weight(pattern_entries(a, d), d, m0, 0b001) == 0.0


def test_f_weight_against_direct_enumeration():
    rng = np.random.default_rng(1)
    for g in (K3, C4, K4, K33):
        d = build_dart_graph(g)
        a = random_incidence_matrix(d, rng)
        entries = pattern_entries(a, d)
        m0 = canonical_matching(d)
        matchings = enumerate_matchings(d)
        direct = {}
        indices = range(d.num_darts)
        for m in matchings:
            c = matching_to_curve(m0, m, d)
            term = matching_sign(sorted(m), indices)
            for i, j in m:
                term *= a.data[i, j]
            direct[c] = direct.get(c, 0.0) + term
        for c, expected in direct.items():
            assert f_weight(entries, d, m0, c) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_pfaffian_expands_as_weighted_curve_sum():
    # Pf(A(w)) = w(M0 & E)^-1 sum_C w(C) F(M0, C), exact on small graphs
    rng = np.random.default_rng(2)
    for g in (K3, C4, K4, K33, K5):
        d = build_dart_graph(g)
        entries = pattern_entries(random_incidence_matrix(d, rng), d)
        m0 = canonical_matching(d)
        w = rng.uniform(0.2, 1.5, g.num_edges)
        aw = weighted_matrix(entries, d, m0, w)
        lhs = pfaffian(aw)
        total = 0.0
        for c in enumerate_closed_curves(g):
            wc = float(np.prod([w[e] for e in g.curve_edges(c)]))
            total += wc * f_weight(entries, d, m0, c)
        rhs = total / float(np.prod(w))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_f_weight_site_block_identity():
    # with the vertex-internal reference matching, F(empty) is the product of
    # the per-vertex site-block Pfaffians
    from pfising.kasteleyn import site_block_pfaffian, solve_site_equations
    from pfising.embeddings import face_boundary_basis, resolve_planar_scheme
    from pfising.minors import four_regularize, subdivide_to_cycle_faces
    from pfising.kasteleyn import build_incidence_matrix

    fx = get_fixture("c4")
    s0 = resolve_planar_scheme(fx.graph, fx.scheme)
    g1, s1, _ = four_regularize(fx.graph, s0)
    g2, s2, _ = subdivide_to_cycle_faces(g1, s1)
    inc = build_incidence_matrix(g2, s2)
    site = solve_site_equations(g2, face_boundary_basis(g2, s2), s2)
    expected = float(
        np.prod([site_block_pfaffian(site, v) for v in range(g2.num_vertices)])
    )
    value = f_weight(inc.entries, inc.dart_graph, inc.reference_matching, 0)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(inc.lam, rel=1e-12)


def test_f_weight_rejects_wrong_zero_pattern():
    from pfising.skewpf import SkewMatrix

    d = build_dart_graph(K3)
    data = np.zeros((6, 6))
    data[0, 5] = 1.0   # darts (0,e0) and (2,e2): no common element
    data[5, 0] = -1.0
    a = SkewMatrix("real", data)
    with pytest.raises(GraphError, match="pattern"):
        pattern_entries(a, d)
