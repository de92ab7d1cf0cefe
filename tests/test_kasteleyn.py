import numpy as np
import pytest

from pfising.darts import build_dart_graph, canonical_matching, f_weight, pattern_entries
from pfising.embeddings import face_boundary_basis, resolve_planar_scheme
from pfising.fixtures import get_fixture, minor_pair, torus_grid
from pfising.graphs import enumerate_closed_curves
from pfising.kasteleyn import (
    K5_CYCLES,
    K5_CYCLES_PRIME,
    K33_CYCLES,
    K33_CYCLES_PRIME,
    SolveError,
    build_incidence_matrix,
    cycle_ratios,
    cycle_visits,
    obstruction_check,
    random_incidence_matrix,
    ratio_entering,
    ratio_leaving,
    reduce_to_minor,
    solve_cycle_equations,
    solve_edge_equations,
    solve_site_equations,
    visit_u_entry,
    weighted_matrix,
    zero_link_entries,
)
from pfising.graphs import CycleBasis
from pfising.minors import (
    compose_transforms,
    four_regularize,
    subdivide_to_cycle_faces,
    transported_weights,
)
from pfising.skewpf import pfaffian


def planar_pipeline(name):
    fx = get_fixture(name)
    s0 = resolve_planar_scheme(fx.graph, fx.scheme)
    g1, s1, t1 = four_regularize(fx.graph, s0)
    g2, s2, t2 = subdivide_to_cycle_faces(g1, s1)
    return fx.graph, g2, s2, compose_transforms(t2, t1)


def test_site_solution_nonzero_and_satisfies_equations():
    _, g2, s2, _ = planar_pipeline("k4")
    basis = face_boundary_basis(g2, s2)
    site = solve_site_equations(g2, basis, s2)
    assert np.all(site.values != 0)
    for cyc in basis.cycles:
        for visit in cycle_visits(g2, cyc):
            v, sg = visit.vertex, visit.sigma
            lhs = site.entry(v, sg[0], sg[1]) * site.entry(v, sg[2], sg[3])
            rhs = site.entry(v, sg[0], sg[2]) * site.entry(v, sg[1], sg[3])
            assert lhs == rhs


def test_site_alternating_ratio_law():
    # the two ratios of one visit multiply to -(U)^2 < 0
    _, g2, s2, _ = planar_pipeline("grid2x2")
    basis = face_boundary_basis(g2, s2)
    site = solve_site_equations(g2, basis, s2)
    for cyc in basis.cycles:
        for visit in cycle_visits(g2, cyc):
            prod = ratio_leaving(site, visit) * ratio_entering(site, visit)
            assert prod == pytest.approx(-visit_u_entry(site, visit) ** 2)
            assert prod < 0


def test_cycles_sharing_an_edge_have_opposite_ratios():
    _, g2, s2, _ = planar_pipeline("k4")
    basis = face_boundary_basis(g2, s2)
    site = solve_site_equations(g2, basis, s2)
    seen = {}
    for cyc in basis.cycles:
        for (v, e), r in cycle_ratios(g2, site, cyc).items():
            if (v, e) in seen:
                assert r == pytest.approx(-seen[(v, e)])
            else:
                seen[(v, e)] = r


def test_three_active_forms_rejected():
    # an artificial cluster: three cycles through one vertex pairing
    # {e1,e2}, {e1,e3}, {e1,e4} force all three site forms
    fx = get_fixture("torus-grid3x3")
    g = fx.graph
    curves = enumerate_closed_curves(g)
    v = 0
    adj = g.adjacency[v]
    picked = {}
    for c in curves:
        edges = [e for e in adj if c >> e & 1]
        if len(edges) == 2 and adj.index(edges[0]) == 0:
            picked[adj.index(edges[1])] = c
        if len(picked) == 3:
            break
    basis = CycleBasis(tuple(picked.values()), "fundamental")
    with pytest.raises(SolveError, match="not sparse"):
        solve_site_equations(g, basis, fx.scheme)


def test_edge_equations_planar_all_real():
    _, g2, s2, _ = planar_pipeline("grid3x3")
    basis = face_boundary_basis(g2, s2)
    site = solve_site_equations(g2, basis, s2)
    edge = solve_edge_equations(g2, site, basis, s2)
    assert all(m == 0 for m in edge.masks)
    assert np.all(edge.coeffs > 0)


def test_edge_equations_projective_crosscap_edges_imaginary():
    fx = get_fixture("k5-projective")
    basis = face_boundary_basis(fx.graph, fx.scheme)
    site = solve_site_equations(fx.graph, basis, fx.scheme)
    edge = solve_edge_equations(fx.graph, site, basis, fx.scheme)
    for e in range(fx.graph.num_edges):
        assert (edge.masks[e] != 0) == (fx.scheme.signature(e) < 0)


def test_cycle_equations_hold_after_solve():
    fx = get_fixture("k5-projective")
    basis = face_boundary_basis(fx.graph, fx.scheme)
    site = solve_site_equations(fx.graph, basis, fx.scheme)
    edge = solve_edge_equations(fx.graph, site, basis, fx.scheme)
    edge = solve_cycle_equations(fx.graph, site, edge, basis)
    from pfising.kasteleyn import _monomial_product

    for cyc in basis.cycles:
        visits = cycle_visits(fx.graph, cyc)
        r = len(visits)
        prod_u = float(np.prod([visit_u_entry(site, v) for v in visits]))
        terms = []
        for i in range(r):
            e = visits[i].exit_edge
            sign = 1.0 if visits[i].vertex < visits[(i + 1) % r].vertex else -1.0
            terms.append((sign * edge.coeffs[e], edge.masks[e]))
        prod_b, mask = _monomial_product(terms)
        assert mask == 0
        assert prod_b == pytest.approx(-prod_u)


@pytest.mark.parametrize("name, scheme_key, width", [
    pytest.param("grid3x3", None, None, id="grid3x3-host"),
    pytest.param("k5-projective", None, 2, id="k5-projective"),
    pytest.param("torus-grid3x3", "even-crosscaps", 8, id="torus-grid3x3-even"),
])
def test_incidence_entries_on_dart_pattern(name, scheme_key, width):
    from pfising.minors import build_host

    fx = get_fixture(name)
    scheme = fx.alt_schemes[scheme_key] if scheme_key else fx.scheme
    if fx.planar:
        scheme = resolve_planar_scheme(fx.graph, scheme)
    g2, s2, _t = build_host(fx.graph, scheme)
    inc = build_incidence_matrix(g2, s2)
    basis = face_boundary_basis(g2, s2)
    site = solve_site_equations(g2, basis, s2)
    edge = solve_cycle_equations(g2, site, solve_edge_equations(g2, site, basis, s2), basis)
    d = inc.dart_graph
    assert inc.entries.shape == ((len(d.pairs),) if width is None else (len(d.pairs), width))
    data = inc.skew.data
    i, j = d.pairs.T
    assert np.array_equal(data[i, j], inc.entries)
    off = np.ones(data.shape[:2], dtype=bool)
    off[i, j] = off[j, i] = False
    assert not data[off].any()
    # every entry is one monomial: site entries real, link entries at the edge's mask
    assert np.all(np.count_nonzero(inc.entries.reshape(len(d.pairs), -1), axis=1) == 1)
    for v in range(g2.num_vertices):
        ids = d.vertex_dart_ids(v)
        for a in range(4):
            for b in range(a + 1, 4):
                assert np.ravel(data[ids[a], ids[b]])[0] == site.entry(v, a, b)
    # link entries are the solved edge coefficients under the generator flip
    # i_k -> -i_k (k in x) that the class-sign normalization applied
    assert any(
        all(
            np.ravel(data[i, j])[edge.masks[e]]
            == (-1) ** (edge.masks[e] & x).bit_count() * edge.coeffs[e]
            for e, (i, j) in enumerate(d.link_edges)
        )
        for x in range(width or 1)
    )


def test_functional_constant_on_planar_fixtures():
    for name in ("k3", "c4", "k4", "grid2x2"):
        g, g2, s2, t = planar_pipeline(name)
        inc = build_incidence_matrix(g2, s2)
        reduced = reduce_to_minor(inc, t, g)
        values = [
            f_weight(reduced.entries, reduced.dart_graph, reduced.reference_matching, c)
            for c in enumerate_closed_curves(g)
        ]
        top = max(abs(v) for v in values)
        assert top > 0
        assert (max(values) - min(values)) / top <= 1e-12


def test_nonplanar_class_structure():
    fx = get_fixture("k5-projective")
    inc = build_incidence_matrix(fx.graph, fx.scheme)
    assert set(inc.class_values) == {0, 1}
    (c0, m0), (c1, m1) = inc.class_values[0], inc.class_values[1]
    assert m0 == 0 and m1 == 1
    assert c0 == pytest.approx(c1)  # F = f0 * i1**eps with equal magnitude
    # Re(lam * F) = 1 on both classes
    from pfising.multicomplex import MulticomplexValue

    for cm, (coeff, mask) in inc.class_values.items():
        f_val = MulticomplexValue.monomial(1, mask, coeff)
        assert (inc.lam * f_val).real == pytest.approx(1.0)


@pytest.mark.parametrize("name, scheme_key", [
    ("k5-projective", None),
    ("torus-grid3x3", "even-crosscaps"),
    ("torus-grid5x5", "even-crosscaps"),  # beta1 = 26: the sampled check
])
def test_calibration_rejects_nonconstant_functional(monkeypatch, name, scheme_key):
    # doubling one link entry leaves every curve value a monomial but makes
    # curves of one class through that edge disagree with those avoiding it
    from pfising import kasteleyn
    from pfising.minors import build_host

    assemble = kasteleyn._assemble

    def doubled(d, site, edge, n_generators):
        entries = assemble(d, site, edge, n_generators)
        entries[len(d.site_edges)] *= 2.0  # link entry of edge 0
        return entries

    monkeypatch.setattr(kasteleyn, "_assemble", doubled)
    fx = torus_grid(5) if name == "torus-grid5x5" else get_fixture(name)
    g2, s2, _t = build_host(fx.graph, fx.alt_schemes[scheme_key] if scheme_key else fx.scheme)
    with pytest.raises(SolveError, match="functional is not constant per class"):
        build_incidence_matrix(g2, s2)


@pytest.mark.parametrize("name, scheme_key", [
    pytest.param("k5-projective", None, id="k5-projective"),
    pytest.param("k33-projective", None, id="k33-projective"),
    pytest.param("torus-grid3x3", "even-crosscaps", id="torus-grid3x3-even"),
])
def test_sampled_calibration_matches_exact(monkeypatch, name, scheme_key):
    # with the guard at 0 the build checks sampled curves instead of summing
    # the span against weighted Pfaffians, and must find the same table
    from pfising import kasteleyn
    from pfising.partition import NonplanarSolver

    fx = get_fixture(name)
    scheme = fx.alt_schemes[scheme_key] if scheme_key else fx.scheme
    exact = NonplanarSolver(fx.graph, scheme)
    calls = []
    weighted = kasteleyn.weighted_matrix
    monkeypatch.setattr(kasteleyn, "weighted_matrix", lambda *a: calls.append(a) or weighted(*a))
    monkeypatch.setattr(kasteleyn, "CURVE_ENUM_MAX_BETTI", 0)
    sampled = NonplanarSolver(fx.graph, scheme)
    assert not calls
    assert sampled.class_table == exact.class_table
    assert np.array_equal(sampled.inc.lam.coeffs, exact.inc.lam.coeffs)


@pytest.mark.parametrize("name", ["k33-projective", "hex-patch"])
def test_reduced_minor_has_its_own_edge_masks(name):
    # the minor carries one crossing mask per minor edge, no host assignments,
    # and its class table holds on every minor curve
    from pfising.partition import NonplanarSolver
    from pfising.verify import reduced_minor

    if name == "hex-patch":
        inc, _tm = reduced_minor(name)
    else:
        fx = get_fixture(name)
        solver = NonplanarSolver(fx.graph, fx.scheme)
        inc = reduce_to_minor(solver.inc, solver.transform, fx.graph)
    g = inc.graph
    assert len(inc.edge_masks) == g.num_edges
    assert not hasattr(inc, "site") and not hasattr(inc, "edge")
    for c in enumerate_closed_curves(g):
        cls = 0
        for e in g.curve_edges(c):
            cls ^= inc.edge_masks[e]
        coeff, mono = inc.class_values[cls]
        expected = np.zeros(1 << inc.n_generators)
        expected[mono] = coeff
        value = f_weight(inc.entries, inc.dart_graph, inc.reference_matching, c)
        assert np.ravel(getattr(value, "coeffs", value)) == pytest.approx(expected, abs=1e-12)


def test_weighted_matrix_branches():
    fx = get_fixture("k5-projective")
    d = build_dart_graph(fx.graph)
    rng = np.random.default_rng(3)
    a = random_incidence_matrix(d, rng)
    entries = pattern_entries(a, d)
    ones = np.ones(fx.graph.num_edges)
    assert np.allclose(weighted_matrix(entries, d, frozenset(), ones).data, a.data)
    w = rng.uniform(0.5, 2.0, fx.graph.num_edges)
    m_all = canonical_matching(d)
    scaled = weighted_matrix(entries, d, m_all, w)  # every link entry divided
    for e, (i, j) in enumerate(d.link_edges):
        assert scaled.data[i, j] == pytest.approx(a.data[i, j] / w[e])
    scaled2 = weighted_matrix(entries, d, frozenset(), w)  # every link entry multiplied
    for e, (i, j) in enumerate(d.link_edges):
        assert scaled2.data[i, j] == pytest.approx(a.data[i, j] * w[e])
    with pytest.raises(ValueError, match="positive"):
        weighted_matrix(entries, d, m_all, np.zeros(fx.graph.num_edges))


def test_reduce_to_minor_empty_transform_is_identity():
    from pfising.minors import MinorTransform

    g, g2, s2, t = planar_pipeline("k3")
    inc = build_incidence_matrix(g2, s2)
    same = reduce_to_minor(inc, MinorTransform.identity(g2), g2)
    assert same is inc


def test_reduce_contract_one_edge_preserves_z():
    # contract one helper-free edge of the 4-regularized K4 host
    from pfising.minors import complete_transform

    g, g2, s2, t = planar_pipeline("k4")
    inc = build_incidence_matrix(g2, s2)
    big = reduce_to_minor(inc, t, g)  # incidence matrix on K4 itself
    # now contract edge 0 of K4 ({0,1}) and compare partition values
    minor, tc = complete_transform(g, (), (0,))
    red = reduce_to_minor(big, tc, minor)
    rng = np.random.default_rng(11)
    for _ in range(5):
        w = rng.uniform(0.2, 1.0, minor.num_edges)
        zb = sum(
            float(np.prod([w[e] for e in minor.curve_edges(c)]))
            for c in enumerate_closed_curves(minor)
        )
        aw = weighted_matrix(red.entries, red.dart_graph, red.reference_matching, w)
        z = float(np.prod(w)) * float(pfaffian(aw)) / red.lam
        assert z == pytest.approx(zb, rel=1e-9)


def test_obstruction_families_are_closed_curves():
    k5 = get_fixture("k5-projective").graph
    k33 = get_fixture("k33-projective").graph
    for fam, g in ((K5_CYCLES, k5), (K5_CYCLES_PRIME, k5),
                   (K33_CYCLES, k33), (K33_CYCLES_PRIME, k33)):
        for cyc in fam:
            mask = 0
            for e in cyc:
                mask |= 1 << e
            assert g.is_closed_curve(mask)


@pytest.mark.parametrize("which,fixture", [("k5", "k5-projective"), ("k33", "k33-projective")])
def test_obstruction_identity_random_matrices(which, fixture):
    g = get_fixture(fixture).graph
    d = build_dart_graph(g)
    rng = np.random.default_rng(99)
    for _ in range(25):
        rep = obstruction_check(which, random_incidence_matrix(d, rng), d)
        assert not rep["degenerate"]
        assert rep["relative_residual"] <= 1e-9


def test_obstruction_zero_matrix_degenerate():
    from pfising.skewpf import SkewMatrix

    g = get_fixture("k33-projective").graph
    d = build_dart_graph(g)
    a = SkewMatrix("real", np.zeros((d.num_darts, d.num_darts)))
    rep = obstruction_check("k33", a, d)
    assert rep["degenerate"]
    assert rep["lhs"] == rep["rhs"] == 0.0


def test_obstruction_wrong_pattern_rejected():
    from pfising.graphs import GraphError

    g5 = get_fixture("k5-projective").graph
    d5 = build_dart_graph(g5)
    rng = np.random.default_rng(1)
    with pytest.raises(GraphError):
        obstruction_check("k33", random_incidence_matrix(d5, rng), d5)
