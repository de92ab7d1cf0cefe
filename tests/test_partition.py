import numpy as np
import pytest

from pfising import skewpf
from pfising.embeddings import SchemeError
from pfising.fixtures import _grid_graph, fixture_names, get_fixture, torus_grid
from pfising.graphs import CURVE_ENUM_MAX_BETTI, Graph, GraphError, first_betti
from pfising.kasteleyn import weighted_matrix
from pfising.partition import (
    IsingModel,
    NonplanarSolver,
    PlanarPfaffianSolver,
    WeightFunction,
    ising_bruteforce,
    ising_prefactor,
    ising_weights,
    ising_z,
    z_bruteforce,
    z_complex_sum,
    z_multicomplex,
    z_pfaffian_planar,
    z_real_sum,
)

PLANAR = ["k3", "c4", "k4", "grid2x2", "grid3x3", "hex-patch", "tri-patch"]

# Weights on which an elimination meets a pivot below 1e-12 of the largest
# entry; it must be eliminated, not taken for a zero Pfaffian.
HARD_WEIGHTS = {
    "grid3x3": [np.full(12, 1e5)],
    "k33-projective": [np.exp([-8.5, 11.4, 13.0, 5.8, 10.3, -6.3, 4.6, 11.8, -12.6])],
}


def test_weight_function_validation():
    with pytest.raises(ValueError, match="positive"):
        WeightFunction(np.array([1.0, 0.0]))
    w = WeightFunction.uniform(0.5, 3)
    assert len(w) == 3 and w[1] == 0.5


def test_z_bruteforce_closed_forms():
    k3 = get_fixture("k3").graph
    for x in (0.25, 0.5, 0.9):
        assert z_bruteforce(k3, WeightFunction.uniform(x, 3)) == pytest.approx(1 + x ** 3)
    c4 = get_fixture("c4").graph
    assert z_bruteforce(c4, WeightFunction.uniform(0.5, 4)) == pytest.approx(1 + 0.5 ** 4)
    k5 = get_fixture("k5-projective").graph
    tiny = z_bruteforce(k5, WeightFunction.uniform(1e-9, 10))
    assert tiny == pytest.approx(1.0)


def test_z_monotonicity_floor():
    # every term positive: Z >= 1 always
    rng = np.random.default_rng(0)
    for name in ("k4", "grid3x3", "k5-projective"):
        g = get_fixture(name).graph
        w = WeightFunction(rng.uniform(1e-6, 1.0, g.num_edges))
        assert z_bruteforce(g, w) >= 1.0


@pytest.mark.parametrize("name", PLANAR)
def test_planar_route_matches_bruteforce(name):
    fx = get_fixture(name)
    solver = PlanarPfaffianSolver(fx.graph, fx.scheme)
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    draws = [rng.uniform(1e-9, 1.0, fx.graph.num_edges) for _ in range(20)]
    for values in draws + HARD_WEIGHTS.get(name, []):
        w = WeightFunction(values)
        zb = z_bruteforce(fx.graph, w)
        assert abs(solver.evaluate(w) - zb) / abs(zb) <= 1e-9


def test_planar_solver_holds_no_dense_matrix():
    fx = get_fixture("grid3x3")
    solver = PlanarPfaffianSolver(fx.graph, fx.scheme)
    held = list(vars(solver).values()) + list(vars(solver.inc).values())
    assert not any(isinstance(v, skewpf.SkewMatrix) for v in held)


def test_sampled_torus_build_makes_no_host_matrix_dense(monkeypatch):
    # beta1 = 26 takes the sampled calibration, which reads the class table
    # from the entries alone: only per-vertex site blocks become matrices
    fx = torus_grid(5)
    orders = []
    post_init = skewpf.SkewMatrix.__post_init__

    def recording(self):
        post_init(self)
        orders.append(self.order)

    monkeypatch.setattr(skewpf.SkewMatrix, "__post_init__", recording)
    solver = NonplanarSolver(fx.graph, fx.alt_schemes["even-crosscaps"])
    assert orders and max(orders) < solver.inc.dart_graph.num_darts
    assert not any(isinstance(v, skewpf.SkewMatrix) for v in vars(solver).values())


def test_planar_route_rejects_nonplanar_scheme():
    fx = get_fixture("k5-projective")
    with pytest.raises(SchemeError, match="not planar"):
        z_pfaffian_planar(fx.graph, fx.scheme, WeightFunction.uniform(0.3, 10))


def test_planar_small_weight_limit():
    fx = get_fixture("k3")
    w = WeightFunction.uniform(1e-9, 3)
    assert z_pfaffian_planar(fx.graph, fx.scheme, w) == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["k5-projective", "k33-projective"])
def test_projective_fixtures_all_routes(name):
    fx = get_fixture(name)
    solver = NonplanarSolver(fx.graph, fx.scheme)
    rng = np.random.default_rng(7)
    draws = [rng.uniform(1e-9, 1.0, fx.graph.num_edges) for _ in range(10)]
    for values in draws + HARD_WEIGHTS.get(name, []):
        w = WeightFunction(values)
        zb = z_bruteforce(fx.graph, w)
        zm = solver.evaluate_multicomplex(w)
        zc = solver.evaluate_complex_sum(w)
        assert abs(zm - zb) / zb <= 1e-9
        assert abs(zc - zb) / zb <= 1e-9
        assert abs(zc - zm) <= 1e-10 * max(1.0, abs(zm))


def test_complex_sum_term_count():
    # nonorientable genus 1: exactly 2 characters, hence 2 complex Pfaffians
    from pfising.multicomplex import all_characters

    assert len(all_characters(1)) == 2
    assert len(all_characters(3)) == 8


def test_torus_even_scheme_all_routes():
    fx = get_fixture("torus-grid3x3")
    solver = NonplanarSolver(fx.graph, fx.alt_schemes["even-crosscaps"])
    rng = np.random.default_rng(8)
    for _ in range(5):
        w = WeightFunction(rng.uniform(0.05, 1.0, fx.graph.num_edges))
        zb = z_bruteforce(fx.graph, w)
        assert abs(solver.evaluate_multicomplex(w) - zb) / zb <= 1e-9
        assert abs(solver.evaluate_complex_sum(w) - zb) / zb <= 1e-9
        assert abs(solver.evaluate_real_sum(w) - zb) / zb <= 1e-9


@pytest.mark.parametrize("name", ["k5-projective", "torus-grid3x3"])
def test_nonplanar_routes_eliminate_one_matrix_per_conjugate_pair(name, monkeypatch):
    fx = get_fixture(name)
    scheme = (fx.alt_schemes or {}).get("even-crosscaps", fx.scheme)
    solver = NonplanarSolver(fx.graph, scheme)
    w = WeightFunction.uniform(0.5, fx.graph.num_edges)
    routes = [lambda w: skewpf.pfaffian(solver._weighted(w)),
              solver.evaluate_multicomplex, solver.evaluate_complex_sum]
    if name == "torus-grid3x3":
        routes.append(solver.evaluate_real_sum)
    calls = []
    eliminate = skewpf._pfaffian_field
    monkeypatch.setattr(skewpf, "_pfaffian_field", lambda m: calls.append(m) or eliminate(m))
    for route in routes:
        calls.clear()
        route(w)
        assert len(calls) == 2 ** (scheme.n_crosscaps - 1)


def test_real_sum_rejected_on_odd_entries():
    fx = get_fixture("k5-projective")
    with pytest.raises(SchemeError, match="orientable-derived"):
        z_real_sum(fx.graph, fx.scheme, WeightFunction.uniform(0.4, 10))


def test_nonplanar_route_needs_crosscaps():
    fx = get_fixture("k4")
    with pytest.raises(SchemeError, match="crosscap"):
        z_multicomplex(fx.graph, fx.scheme, WeightFunction.uniform(0.4, 6))


def test_ising_weights_are_tanh():
    g = get_fixture("k3").graph
    m = IsingModel(g, np.array([0.7, 0.7, 0.7]), 1.3)
    w = ising_weights(m)
    assert np.allclose(w.values, np.tanh(1.3 * 0.7))


def test_ising_k3_closed_form():
    g = get_fixture("k3").graph
    J, beta = 0.8, 0.6
    m = IsingModel(g, np.full(3, J), beta)
    expected = 2 ** 3 * np.cosh(beta * J) ** 3 * (1 + np.tanh(beta * J) ** 3)
    by_states = 2 * (np.exp(3 * beta * J) + 3 * np.exp(-beta * J))
    assert expected == pytest.approx(by_states, rel=1e-12)
    assert ising_z(m, "brute") == pytest.approx(expected, rel=1e-12)
    assert ising_bruteforce(m) == pytest.approx(expected, rel=1e-12)


def test_ising_infinite_temperature_limit():
    g = get_fixture("k4").graph
    m = IsingModel(g, np.full(6, 1.0), 1e-12)
    assert ising_bruteforce(m) == pytest.approx(2 ** 4, rel=1e-9)


@pytest.mark.parametrize("name", ["k3", "k4", "grid2x2"])
def test_ising_pfaffian_matches_spin_sum(name):
    fx = get_fixture(name)
    rng = np.random.default_rng(17)
    for _ in range(10):
        J = rng.uniform(0.05, 2.0, fx.graph.num_edges)
        beta = rng.uniform(0.05, 2.0)
        m = IsingModel(fx.graph, J, beta)
        zp = ising_z(m, "planar", fx.scheme)
        zs = ising_bruteforce(m)
        assert abs(zp - zs) / zs <= 1e-9


def test_ising_single_edge_rejected_by_pipeline():
    g = Graph(2, ((0, 1),))
    m = IsingModel(g, np.array([1.0]), 1.0)
    from pfising.embeddings import plain_scheme

    with pytest.raises(GraphError, match="2-connected"):
        ising_z(m, "planar", plain_scheme(g, [(0,), (0,)]))


def test_ising_bruteforce_guard():
    g = Graph(21, tuple((i, i + 1) for i in range(20)))
    m = IsingModel(g, np.ones(20), 1.0)
    with pytest.raises(GraphError, match="guard"):
        ising_bruteforce(m)


def test_ising_model_validation():
    g = get_fixture("k3").graph
    with pytest.raises(ValueError):
        IsingModel(g, np.array([1.0, -1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        IsingModel(g, np.ones(3), 0.0)


def _with_bad_first(n, bad):
    values = np.full(n, 0.5)
    values[0] = bad
    return values


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["weight", "weighted_matrix", "beta", "coupling"])
def test_nonfinite_inputs_rejected(where, bad):
    fx = get_fixture("grid3x3")
    g = fx.graph
    if where == "weighted_matrix":
        solver = PlanarPfaffianSolver(g, fx.scheme)
        inc = solver.inc
        args = (solver.entries, inc.dart_graph, inc.reference_matching,
                _with_bad_first(solver.host.num_edges, bad))
    with pytest.raises(ValueError, match="finite"):
        if where == "weight":
            WeightFunction(_with_bad_first(g.num_edges, bad))
        elif where == "weighted_matrix":
            weighted_matrix(*args)
        elif where == "beta":
            IsingModel(g, np.ones(g.num_edges), bad)
        else:
            IsingModel(g, _with_bad_first(g.num_edges, bad), 1.0)


def test_ising_prefactor_matches_direct_product():
    rng = np.random.default_rng(4)
    for name in fixture_names():
        g = get_fixture(name).graph
        m = IsingModel(g, rng.uniform(0.05, 2.0, g.num_edges), rng.uniform(0.1, 2.0))
        direct = 2.0 ** g.num_vertices * np.prod(np.cosh(m.beta * m.couplings))
        assert ising_prefactor(m) == pytest.approx(direct, rel=1e-14)


def _open_grid_graph(side):
    right = [(side * r + c, side * r + c + 1) for r in range(side) for c in range(side - 1)]
    down = [(side * r + c, side * (r + 1) + c) for r in range(side - 1) for c in range(side)]
    return Graph(side * side, tuple(right + down))


@pytest.mark.parametrize("g, beta", [
    (_open_grid_graph(24), 1.0),  # fits as 2**|V|, overflows with the cosh product
    (Graph(1089, tuple((i, i + 1) for i in range(1088))), 1e-3),  # 2**|V| alone overflows
], ids=["open-grid-24", "path-1089"])
def test_ising_prefactor_overflow_names_its_log(g, beta):
    m = IsingModel(g, np.ones(g.num_edges), beta)
    expected = g.num_vertices * np.log(2.0) + g.num_edges * np.log(np.cosh(beta))
    with pytest.raises(OverflowError, match="log") as info:
        ising_prefactor(m)
    assert float(str(info.value).rsplit(" ", 1)[1]) == pytest.approx(expected, rel=1e-12)


def _torus_curve_sum(wh, wv):
    """Z_G(w) on a side x side grid by a row transfer matrix, from
    2**|V| Z_G(w) = sum over spins s of prod_e (1 + w_e s_u s_v).

    ``wh[r, c]`` weighs the edge right of vertex (r, c) and ``wv[r, c]`` the
    edge below it, both wrapping around; a zero weight leaves the edge out,
    so an open strip is the torus with its wrap edges at 0."""
    side = len(wh)
    spins = 1 - 2 * ((np.arange(1 << side)[:, None] >> np.arange(side)) & 1)
    # With no wrap-down bonds the last bond matrix is all ones, and the trace
    # of X times it is the sum of X's entries: one row of X is enough.
    total = np.eye(1 << side) if wv[-1].any() else np.ones((1, 1 << side))
    for r in range(side):
        total = total * np.prod(1 + wh[r] * spins * np.roll(spins, -1, axis=1), axis=1)
        for c, x in enumerate(wv[r]):  # the bond below column c acts on bit c
            bond = np.array([[1 + x, 1 - x], [1 - x, 1 + x]])
            t = total.reshape(-1, 1 << (side - 1 - c), 2, 1 << c)
            total = np.einsum("abjd,jk->abkd", t, bond).reshape(total.shape)
    return float(np.trace(total)) / 2.0 ** (side * side)


def _torus_grid_curve_sum(side, w):
    # torus_grid: edge 2 * (side * r + c) runs right, the next one down
    return _torus_curve_sum(w[0::2].reshape(side, side), w[1::2].reshape(side, side))


def _open_grid_curve_sum(g, side, w):
    wh, wv = np.zeros((side, side)), np.zeros((side, side))
    for (u, v), we in zip(g.edges, w):
        (wh if v == u + 1 else wv)[divmod(u, side)] = we
    return _torus_curve_sum(wh, wv)


def test_torus_curve_sum_matches_bruteforce():
    g = torus_grid(3).graph
    w = np.random.default_rng(3).uniform(0.1, 1.0, g.num_edges)
    exact = z_bruteforce(g, WeightFunction(w))
    assert _torus_grid_curve_sum(3, w) == pytest.approx(exact, rel=1e-12)
    g, _ = _grid_graph(4, 4)
    w = np.random.default_rng(4).uniform(0.1, 1.0, g.num_edges)
    exact = z_bruteforce(g, WeightFunction(w))
    assert _open_grid_curve_sum(g, 4, w) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("side", [5, 6])
def test_torus_beyond_enumeration(side):
    fx = torus_grid(side)
    g = fx.graph
    assert first_betti(g) > CURVE_ENUM_MAX_BETTI
    solver = NonplanarSolver(g, fx.alt_schemes["even-crosscaps"])
    rng = np.random.default_rng(side)
    for _ in range(3):
        w = rng.uniform(0.1, 1.0, g.num_edges)
        exact = _torus_grid_curve_sum(side, w)
        weights = WeightFunction(w)
        for route in (solver.evaluate_multicomplex, solver.evaluate_complex_sum,
                      solver.evaluate_real_sum):
            assert route(weights) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("side", [8, 10])
def test_planar_grid_beyond_enumeration(side):
    g, scheme = _grid_graph(side, side)
    assert first_betti(g) > CURVE_ENUM_MAX_BETTI
    solver = PlanarPfaffianSolver(g, scheme)
    rng = np.random.default_rng(side)
    for _ in range(3):
        w = rng.uniform(0.05, 0.95, g.num_edges)
        exact = _open_grid_curve_sum(g, side, w)
        assert solver.evaluate(WeightFunction(w)) == pytest.approx(exact, rel=1e-9)
