"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to see them.  Tolerances are pinned here, not configurable.
"""
import time

import numpy as np
import pytest

from pfising.darts import build_dart_graph, enumerate_matchings, f_weight
from pfising.fixtures import get_fixture, minor_pair
from pfising.graphs import enumerate_closed_curves, first_betti
from pfising.kasteleyn import (
    build_incidence_matrix,
    obstruction_check,
    random_incidence_matrix,
    reduce_to_minor,
    weighted_matrix,
)
from pfising.minors import compose_transforms, four_regularize, subdivide_to_cycle_faces
from pfising.multicomplex import MulticomplexValue, all_characters
from pfising.partition import (
    IsingModel,
    NonplanarSolver,
    PlanarPfaffianSolver,
    WeightFunction,
    ising_bruteforce,
    ising_z,
    z_bruteforce,
)
from pfising.embeddings import resolve_planar_scheme
from pfising.skewpf import SkewMatrix, pfaffian, pfaffian_bruteforce, reduce, submatrix

PLANAR_FIXTURES = ("k3", "c4", "k4", "grid2x2", "grid3x3", "hex-patch", "tri-patch")


def _report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {tag}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_counting_reproductions():
    start = time.time()
    k5 = get_fixture("k5-projective").graph
    k33 = get_fixture("k33-projective").graph
    curves_k5 = len(enumerate_closed_curves(k5))
    matchings_k5 = len(enumerate_matchings(build_dart_graph(k5)))
    matchings_k33 = len(enumerate_matchings(build_dart_graph(k33)))
    elapsed = time.time() - start
    ok = (
        curves_k5 == 64
        and matchings_k5 == 416
        and matchings_k33 == 16 == 2 ** first_betti(k33)
        and elapsed < 5.0
    )
    _report(
        "1 counting reproductions",
        ok,
        f"K5 curves {curves_k5}, D(K5) matchings {matchings_k5}, "
        f"D(K3,3) matchings {matchings_k33}, {elapsed:.2f} s",
    )


def test_criterion_2_planar_pfaffian_representation():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for name in PLANAR_FIXTURES:
        fx = get_fixture(name)
        solver = PlanarPfaffianSolver(fx.graph, fx.scheme)
        for _ in range(20):
            w = WeightFunction(rng.uniform(1e-12, 1.0, fx.graph.num_edges))
            zb = z_bruteforce(fx.graph, w)
            worst = max(worst, abs(solver.evaluate(w) - zb) / abs(zb))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report("2 planar Pfaffian representation", ok,
            f"worst rel {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_functional_constancy():
    worst = 0.0
    for name in PLANAR_FIXTURES:
        fx = get_fixture(name)
        if 2 * fx.graph.num_edges > 24:
            continue  # dart guard after reduction back to the fixture
        s0 = resolve_planar_scheme(fx.graph, fx.scheme)
        g1, s1, t1 = four_regularize(fx.graph, s0)
        g2, s2, t2 = subdivide_to_cycle_faces(g1, s1)
        inc = build_incidence_matrix(g2, s2)
        red = reduce_to_minor(inc, compose_transforms(t2, t1), fx.graph)
        values = [
            f_weight(red.entries, red.dart_graph, red.reference_matching, c)
            for c in enumerate_closed_curves(fx.graph)
        ]
        top = max(abs(v) for v in values)
        assert top > 0, name
        worst = max(worst, (max(values) - min(values)) / top)
    ok = worst <= 1e-9
    _report("3 curve-functional constancy", ok, f"worst spread {worst:.2e}")


def test_criterion_4_single_multicomplex_formula():
    rng = np.random.default_rng(4)
    worst = 0.0
    tables = {}
    for name in ("k5-projective", "k33-projective"):
        fx = get_fixture(name)
        solver = NonplanarSolver(fx.graph, fx.scheme)
        for _ in range(20):
            w = WeightFunction(rng.uniform(1e-12, 1.0, fx.graph.num_edges))
            zb = z_bruteforce(fx.graph, w)
            zm = solver.evaluate_multicomplex(w)
            worst = max(worst, abs(zm - zb) / abs(zb))
        table = solver.class_table
        tables[name] = table
        # parity-class invariant F = f0 * i1**eps: class 0 real, class 1 on i1,
        # equal coefficients
        assert set(table) == {0, 1}, name
        (c0, m0), (c1, m1) = table[0], table[1]
        assert m0 == 0 and m1 == 1
        assert abs(c0 - c1) <= 1e-9 * abs(c0)
    ok = worst <= 1e-9
    _report("4 nonplanar single-matrix formula", ok,
            f"worst rel {worst:.2e}; class tables {tables}")


def test_criterion_5_expansion_equivalences():
    rng = np.random.default_rng(5)
    worst_pair = 0.0
    for name in ("k5-projective", "k33-projective"):
        fx = get_fixture(name)
        solver = NonplanarSolver(fx.graph, fx.scheme)
        for _ in range(10):
            w = WeightFunction(rng.uniform(1e-12, 1.0, fx.graph.num_edges))
            zm = solver.evaluate_multicomplex(w)
            zc = solver.evaluate_complex_sum(w)
            worst_pair = max(worst_pair, abs(zc - zm) / max(abs(zm), 1e-300))
    fx = get_fixture("torus-grid3x3")
    solver = NonplanarSolver(fx.graph, fx.alt_schemes["even-crosscaps"])
    worst_real = 0.0
    for _ in range(10):
        w = WeightFunction(rng.uniform(1e-12, 1.0, fx.graph.num_edges))
        zb = z_bruteforce(fx.graph, w)
        zr = solver.evaluate_real_sum(w)
        zm = solver.evaluate_multicomplex(w)
        zc = solver.evaluate_complex_sum(w)
        worst_real = max(worst_real, abs(zr - zb) / abs(zb))
        worst_pair = max(worst_pair, abs(zc - zm) / max(abs(zm), 1e-300))
    ok = worst_pair <= 1e-10 and worst_real <= 1e-9
    _report("5 expansion equivalences", ok,
            f"complex-sum vs multicomplex {worst_pair:.2e}, "
            f"4-real-Pfaffian torus vs brute {worst_real:.2e} (no downgrade)")


def test_criterion_6_obstruction_identities():
    rng = np.random.default_rng(6)
    worst = 0.0
    for which, fixture in (("k33", "k33-projective"), ("k5", "k5-projective")):
        d = build_dart_graph(get_fixture(fixture).graph)
        for _ in range(100):
            rep = obstruction_check(which, random_incidence_matrix(d, rng), d)
            assert not rep["degenerate"]
            worst = max(worst, rep["relative_residual"])
    ok = worst <= 1e-9
    _report("6 obstruction identities", ok, f"worst residual {worst:.2e} over 200 matrices")


def test_criterion_7_pfaffian_kernel():
    rng = np.random.default_rng(7)
    worst_eq = worst_det = 0.0
    for _ in range(50):
        n = int(rng.choice([4, 6, 8, 10, 12]))
        m = rng.normal(size=(n, n))
        m = m - m.T
        a = SkewMatrix("real", m)
        pf, bf = pfaffian(a), pfaffian_bruteforce(a)
        det = np.linalg.det(m)
        worst_eq = max(worst_eq, abs(pf - bf) / max(1.0, abs(bf)))
        worst_det = max(worst_det, abs(pf ** 2 - det) / max(1.0, abs(det)))
    worst_red = 0.0
    for _ in range(50):
        n = int(rng.choice([3, 4, 5]))
        order = 2 * n
        m = rng.normal(size=(order, order))
        m = m - m.T
        a = SkewMatrix("real", m)
        p = int(rng.integers(1, n))
        k = sorted(rng.choice(order, size=2 * p, replace=False).tolist())
        if abs(pfaffian(submatrix(a, k))) < 1e-6:
            continue
        pf_k, comp = reduce(a, k)
        lhs = pfaffian(a)
        rhs = pf_k ** (-(n - p - 1)) * pfaffian(comp)
        worst_red = max(worst_red, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = worst_eq <= 1e-8 and worst_det <= 1e-8 and worst_red <= 1e-8
    _report("7 Pfaffian kernel properties", ok,
            f"fast-vs-brute {worst_eq:.2e}, Pf^2-vs-det {worst_det:.2e}, "
            f"reduction {worst_red:.2e}")


def test_criterion_8_minor_reduction():
    rng = np.random.default_rng(8)
    base = get_fixture("grid3x3")
    s0 = resolve_planar_scheme(base.graph, base.scheme)
    g1, s1, t1 = four_regularize(base.graph, s0)
    g2, s2, t2 = subdivide_to_cycle_faces(g1, s1)
    inc_host = reduce_to_minor(
        build_incidence_matrix(g2, s2), compose_transforms(t2, t1), base.graph
    )
    worst = 0.0
    for name in ("hex-patch", "tri-patch"):
        host, minor, tm = minor_pair(name)
        inc = reduce_to_minor(inc_host, tm, minor)
        for _ in range(10):
            w = WeightFunction(rng.uniform(1e-12, 1.0, minor.num_edges))
            zb = z_bruteforce(minor, w)
            aw = weighted_matrix(
                inc.entries, inc.dart_graph, inc.reference_matching, w.values
            )
            z = float(np.prod(w.values)) * float(pfaffian(aw)) / inc.lam
            worst = max(worst, abs(z - zb) / abs(zb))
    ok = worst <= 1e-9
    _report("8 minor reduction (hex, tri)", ok, f"worst rel {worst:.2e}")


def test_criterion_9_ising_correspondence():
    rng = np.random.default_rng(9)
    worst = 0.0
    for name in ("k3", "k4", "grid2x2"):
        fx = get_fixture(name)
        for _ in range(20):
            J = rng.uniform(1e-12, 2.0, fx.graph.num_edges)
            beta = rng.uniform(1e-12, 2.0)
            m = IsingModel(fx.graph, J, beta)
            zp = ising_z(m, "planar", fx.scheme)
            zs = ising_bruteforce(m)
            worst = max(worst, abs(zp - zs) / abs(zs))
    ok = worst <= 1e-9
    _report("9 Ising correspondence (pins tanh(beta*J))", ok, f"worst rel {worst:.2e}")


def test_criterion_10_character_averaging():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        x = MulticomplexValue(n, rng.normal(size=1 << n))
        avg = sum(h.apply(x) for h in all_characters(n)) / 2 ** n
        worst = max(worst, abs(avg - x.real))
    ok = worst <= 1e-12
    _report("10 character averaging identity", ok, f"worst abs {worst:.2e}")
