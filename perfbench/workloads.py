"""The benchmark workloads: what is built once and what one operation calls.

* ``planar_grid``: one ``PlanarPfaffianSolver`` on an open 16 x 16 grid
  (306 host vertices, 1224 darts), then disorder draws w(e) in (0.05, 0.95)
  through ``evaluate``.  Bound by the Pfaffian kernel.
* ``torus_even``: one ``NonplanarSolver`` on the 4 x 4 torus with the
  three-crosscap even scheme, then draws that each go through the
  multicomplex, complex-sum and real-sum evaluations.  Bound by set-up
  (calibration sums over 2**17 curves); its 64-dart evaluations are bound by
  per-call overhead, not flops.
* ``oneshot_fixtures``: every shipped fixture through each public route that
  applies to it, plus ``ising_z(method="auto")`` over a beta ladder.  Every
  call builds its own solver.  Route weights are log-uniform over
  [1e-6, 1e6], the range where small pivots make the Pfaffian routes fail.

An operation is one weight draw through the workload's routes, or one
public-API call in ``oneshot_fixtures``.  The library only sees inputs drawn
here from the run's seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import pfising
from pfising import fixtures
from grids import open_grid, oracle_arrays, torus_even_grid
from oracle import grid_z

DISORDER_RANGE = (0.05, 0.95)
LOG_UNIFORM_RANGE = (1e-6, 1e6)
BETA_LADDER = (0.25, 0.5, 1.0, 2.0)
COUPLING_RANGE = (0.5, 1.5)


@dataclass
class Operation:
    """One timed operation: its routes, in call order, and its exact value."""

    label: str
    routes: list[tuple[str, Callable[[], float]]]
    oracle: Callable[[], float]


class PlanarGrid:
    name = "planar_grid"
    side = 16
    fixed_round_s = None
    setup_repeats = 9
    trace_setup_pairs = 5
    setup_includes_import = False
    failures_known = False

    def build(self):
        g, s, keys = open_grid(self.side)
        return keys, pfising.PlanarPfaffianSolver(g, s)

    def round(self, built, rng: np.random.Generator) -> list[Operation]:
        keys, solver = built
        w = rng.uniform(*DISORDER_RANGE, size=len(keys))
        weights = pfising.WeightFunction(w)
        return [Operation(
            "disorder draw",
            [("evaluate", lambda: solver.evaluate(weights))],
            lambda: grid_z(*oracle_arrays(self.side, keys, w), periodic=False),
        )]


class TorusEven:
    name = "torus_even"
    side = 4
    fixed_round_s = None
    # One build is over 20 s of Python work; repeating it would not fit the
    # run budget, and its own length keeps its relative noise small.
    setup_repeats = 1
    trace_setup_pairs = 1
    setup_includes_import = False
    failures_known = False

    def build(self):
        g, s, keys = torus_even_grid(self.side)
        return keys, pfising.NonplanarSolver(g, s)

    def round(self, built, rng: np.random.Generator) -> list[Operation]:
        keys, solver = built
        w = rng.uniform(*DISORDER_RANGE, size=len(keys))
        weights = pfising.WeightFunction(w)
        return [Operation(
            "disorder draw",
            [
                ("evaluate_multicomplex", lambda: solver.evaluate_multicomplex(weights)),
                ("evaluate_complex_sum", lambda: solver.evaluate_complex_sum(weights)),
                ("evaluate_real_sum", lambda: solver.evaluate_real_sum(weights)),
            ],
            lambda: grid_z(*oracle_arrays(self.side, keys, w), periodic=True),
        )]


class OneshotFixtures:
    name = "oneshot_fixtures"
    setup_repeats = 5
    trace_setup_pairs = 5
    # A one-shot user pays for the import of pfising; its median over fresh
    # interpreters is added to the median fixture construction.
    setup_includes_import = True
    # The log-uniform weights reach the small pivots on which the Pfaffian
    # routes return 0.0 or lose digits; passed_frac gates that share.
    failures_known = True
    # So that the failure count depends on the seed alone, a run issues a
    # fixed number of rounds instead of stopping on the clock: --seconds
    # divided by this nominal round time, measured on a shared 2-core host.
    fixed_round_s = 2.0

    def build(self):
        """(fixture, scheme, routes) for every shipped fixture.

        Non-planar fixtures use their crosscap scheme: the torus fixture's
        default orientable scheme has no crosscaps, which the non-planar
        routes refuse.
        """
        table = []
        for name in fixtures.fixture_names():
            fx = fixtures.get_fixture(name)
            scheme = (fx.alt_schemes or {}).get("even-crosscaps", fx.scheme)
            if fx.planar:
                routes = [pfising.z_pfaffian_planar]
            else:
                routes = [pfising.z_multicomplex, pfising.z_complex_sum]
                if all(len(caps) % 2 == 0 for caps in scheme.crosscaps):
                    routes.append(pfising.z_real_sum)
            table.append((fx, scheme, routes))
        return table

    def round(self, built, rng: np.random.Generator) -> list[Operation]:
        """One pass over every fixture, route and beta."""
        lo, hi = (math.log(x) for x in LOG_UNIFORM_RANGE)
        ops = []
        for fx, scheme, routes in built:
            g = fx.graph
            for route in routes:
                w = pfising.WeightFunction(np.exp(rng.uniform(lo, hi, size=g.num_edges)))
                ops.append(Operation(
                    fx.name,
                    [(route.__name__, lambda r=route, g=g, s=scheme, w=w: r(g, s, w))],
                    lambda g=g, w=w: pfising.z_bruteforce(g, w),
                ))
            for beta in BETA_LADDER:
                model = pfising.IsingModel(
                    g, rng.uniform(*COUPLING_RANGE, size=g.num_edges), beta
                )
                ops.append(Operation(
                    fx.name,
                    [("ising_z", lambda m=model, s=scheme: pfising.ising_z(m, "auto", s))],
                    lambda m=model: pfising.ising_bruteforce(m),
                ))
        return ops


WORKLOADS = {w.name: w for w in (PlanarGrid(), TorusEven(), OneshotFixtures())}
