"""Checks of the benchmark's own code: oracle, generators, checking, tracing.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import pfising  # noqa: E402
from pfising import fixtures  # noqa: E402
from grids import open_grid, oracle_arrays, torus_even_grid  # noqa: E402
from oracle import grid_z  # noqa: E402
import run  # noqa: E402
from tracing import OPERATION, SETUP, Tracer, pfaffian_flops  # noqa: E402
from workloads import Operation  # noqa: E402


@pytest.mark.parametrize(
    "side, periodic",
    [(2, False), (3, False), (4, False), (5, False), (3, True), (4, True)],
)
def test_oracle_matches_bruteforce(side, periodic):
    """Every grid with beta1 <= 24, the brute-force enumeration guard."""
    g, _s, keys = (torus_even_grid if periodic else open_grid)(side)
    assert pfising.first_betti(g) <= 24
    w = np.random.default_rng(side).uniform(0.05, 0.95, size=g.num_edges)
    exact = pfising.z_bruteforce(g, pfising.WeightFunction(w))
    assert grid_z(*oracle_arrays(side, keys, w), periodic) == pytest.approx(exact, rel=1e-13)


def test_oracle_rejects_weights_that_cancel():
    g, _s, keys = open_grid(3)
    w = np.full(g.num_edges, 0.5)
    w[0] = 1.5
    with pytest.raises(ValueError):
        grid_z(*oracle_arrays(3, keys, w), periodic=False)


def test_generators_reproduce_the_fixtures():
    torus = fixtures.torus_grid3x3()
    g, s, _keys = torus_even_grid(3)
    assert g == torus.graph
    assert s == torus.alt_schemes["even-crosscaps"]
    grid = fixtures.grid3x3()
    g, s, _keys = open_grid(3)
    assert (g, s) == (grid.graph, grid.scheme)


def test_torus_routes_match_oracle():
    g, s, keys = torus_even_grid(3)
    solver = pfising.NonplanarSolver(g, s)
    w = np.random.default_rng(5).uniform(0.05, 0.95, size=g.num_edges)
    exact = grid_z(*oracle_arrays(3, keys, w), periodic=True)
    weights = pfising.WeightFunction(w)
    for route in (solver.evaluate_multicomplex, solver.evaluate_complex_sum,
                  solver.evaluate_real_sum):
        assert route(weights) == pytest.approx(exact, rel=1e-9)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0, 10)
    assert run.tail([float(i) for i in range(1, 11)]) == (50, 5.0, 5)
    assert run.percentile([1.0, 2.0, 3.0], 50) == (2.0, 1)


def _record(value, exact=2.0):
    return Operation("x", [("r", None)], lambda: exact), [value]


def test_check_counts_every_failure_kind_per_route():
    records = [_record(2.0), _record(2.0 * (1 + 1e-12)), _record(0.0), _record(math.nan),
               _record(ValueError("pivot")), _record(2.1)]
    result = run.check(records, failures_known=True)
    assert (result["attempted"], result["failed"], result["correct"]) == (6, 4, True)
    assert result["passed_frac"] == pytest.approx(2 / 6)
    assert result["failures_per_route"] == {"r": {"attempted": 6, "failed": 4}}
    assert result["min_correct_digits"] == pytest.approx(12.0, abs=0.1)
    assert sum(result["failure_reasons"].values()) == 4


def test_partly_wrong_run_trips_the_gates():
    """One wrong output in a hundred: incorrect where no failure is known,
    and a passed_frac drop beyond its bound where one is."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "passed_frac")
    records = [_record(2.0)] * 99 + [_record(2.0 * (1 + 1e-7))]
    assert run.check(records, failures_known=True)["correct"]
    assert not run.check(records, failures_known=False)["correct"]
    clean = run.check([_record(2.0)] * 100, failures_known=True)["passed_frac"]
    wrong = records[:97] + [_record(0.0)] * 3
    partly = run.check(wrong, failures_known=True)["passed_frac"]
    assert (clean - partly) / clean > bound


class _CountingWorkload:
    fixed_round_s = 2.0

    def __init__(self):
        self.rounds = 0

    def round(self, built, rng):
        self.rounds += 1
        return [None]


@pytest.mark.parametrize("seconds, rounds", [(30, 15), (0.5, 1)])
def test_fixed_round_workload_ignores_the_clock(seconds, rounds):
    """The run length, not the host's speed, fixes which operations run."""
    workload = _CountingWorkload()
    run.closed_loop(workload, None, None, seconds, lambda op: None)
    assert workload.rounds == rounds


def test_check_is_incorrect_when_an_oracle_fails():
    def broken():
        raise pfising.GraphError("too big")

    result = run.check([(Operation("x", [("r", None)], broken), [1.0])], failures_known=True)
    assert not result["correct"]


def test_tracer_spans_and_restore():
    fx = fixtures.k4()
    w = pfising.WeightFunction(np.full(fx.graph.num_edges, 0.5))
    original = pfising.partition.pfaffian
    tracer = Tracer()
    with tracer.phase(SETUP):
        solver = pfising.PlanarPfaffianSolver(fx.graph, fx.scheme)
    with tracer.phase(SETUP):
        pfising.PlanarPfaffianSolver(fx.graph, fx.scheme)
    for _ in range(2):
        with tracer.phase(OPERATION):
            solver.evaluate(w)
    assert pfising.partition.pfaffian is original
    times = tracer.layer_times()
    counts = tracer.layer_counts()
    assert counts["skewpf.pfaffian_calls"] == 1.0  # per mean set-up plus mean operation
    assert counts["embeddings.trace_faces_calls"] == tracer.counts[SETUP][
        "embeddings.trace_faces_calls"] / 2
    assert counts["darts.num_darts"] == solver.inc.dart_graph.num_darts
    assert counts["skewpf.flops_computed"] == pfaffian_flops(
        solver.inc.dart_graph.num_darts, "real", 0)
    for inclusive, own in times.values():
        assert 0.0 <= own <= inclusive + 1e-12
    assert {span[0] for span in tracer.spans} >= {
        "kasteleyn.build_incidence_matrix", "embeddings.trace_faces", "skewpf.pfaffian"}


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(name, unit) for name, unit, _s, _k in run.PER_LAYER] + list(run.TRACE_OVERHEAD)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
