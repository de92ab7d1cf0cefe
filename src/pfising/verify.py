"""Fixture verification: cross-check every applicable route against the oracle."""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import fixtures as fixture_zoo
from .darts import build_dart_graph
from .embeddings import resolve_planar_scheme
from .kasteleyn import (
    IncidenceMatrix,
    build_incidence_matrix,
    obstruction_check,
    random_incidence_matrix,
    reduce_to_minor,
    weighted_matrix,
)
from .minors import MinorTransform, build_host
from .partition import (
    NonplanarSolver,
    PlanarPfaffianSolver,
    WeightFunction,
    curve_functional_table,
    z_bruteforce,
)
from .skewpf import pfaffian

DEFAULT_TOLERANCE = 1e-9


@dataclass
class VerificationReport:
    fixture: str
    seed: int
    tolerance: float
    z_values: dict = field(default_factory=dict)       # method -> last-draw value
    max_deviations: dict = field(default_factory=dict)  # comparison -> worst rel dev
    fa_constant: bool | None = None
    fa_spread: float | None = None
    parity_classes: dict = field(default_factory=dict)  # class bitmask -> coefficient
    obstruction_residual: float | None = None
    passed: bool = False
    seconds: float = 0.0
    notes: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=str)

    def summary_lines(self) -> list[str]:
        lines = [f"fixture {self.fixture}: {'PASS' if self.passed else 'FAIL'}"]
        for key, val in self.max_deviations.items():
            lines.append(f"  {key}: worst relative deviation {val:.3e}")
        if self.fa_spread is not None:
            lines.append(
                f"  curve functional constancy: spread {self.fa_spread:.3e}"
                f" ({'constant' if self.fa_constant else 'NOT constant'})"
            )
        if self.parity_classes:
            cls = ", ".join(
                f"{bin(int(k))}: {v:+.6g}" for k, v in sorted(self.parity_classes.items())
            )
            lines.append(f"  parity classes: {cls}")
        if self.obstruction_residual is not None:
            lines.append(
                f"  obstruction identity residual: {self.obstruction_residual:.3e}"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  time: {self.seconds:.2f} s")
        return lines


def _functional_spread(values) -> tuple[bool, float]:
    reals = [float(np.real(v)) for v in values]
    top = max(abs(v) for v in reals)
    if top == 0.0:
        return False, float("inf")
    return True, (max(reals) - min(reals)) / top


def verify_fixture(
    name: str,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    draws: int = 20,
    expect_obstruction: bool = False,
    trials: int = 100,
) -> VerificationReport:
    start = time.time()
    rng = np.random.default_rng(seed)
    report = VerificationReport(fixture=name, seed=seed, tolerance=tolerance)
    fixture = fixture_zoo.get_fixture(name)
    g = fixture.graph

    if name in ("hex-patch", "tri-patch"):
        _verify_reduced(name, report, rng, draws)
    elif fixture.planar:
        _verify_planar(fixture, report, rng, draws)
    else:
        _verify_nonplanar(fixture, report, rng, draws)

    if expect_obstruction:
        which = "k5" if name.startswith("k5") else "k33"
        d = build_dart_graph(g)
        worst = 0.0
        for _ in range(trials):
            result = obstruction_check(which, random_incidence_matrix(d, rng), d)
            if not result["degenerate"]:
                worst = max(worst, result["relative_residual"])
        report.obstruction_residual = worst

    deviations_ok = all(v <= tolerance for v in report.max_deviations.values())
    fa_ok = report.fa_spread is None or (report.fa_constant and report.fa_spread <= tolerance)
    obstruction_ok = (
        report.obstruction_residual is None or report.obstruction_residual <= tolerance
    )
    report.passed = deviations_ok and fa_ok and obstruction_ok
    report.seconds = time.time() - start
    return report


def _verify_planar(fixture, report, rng, draws):
    g = fixture.graph
    solver = PlanarPfaffianSolver(g, fixture.scheme)
    worst = 0.0
    for _ in range(draws):
        w = WeightFunction(rng.uniform(1e-9, 1.0, g.num_edges))
        zb = z_bruteforce(g, w)
        zp = solver.evaluate(w)
        worst = max(worst, abs(zp - zb) / abs(zb))
        report.z_values = {"brute": zb, "planar": zp}
    report.max_deviations["planar vs brute"] = worst
    reduced = reduce_to_minor(solver.inc, solver.transform, g)
    values = [v for _c, v in curve_functional_table(reduced)]
    report.fa_constant, report.fa_spread = _functional_spread(values)
    report.parity_classes = {k: v for k, (v, _m) in reduced.class_values.items()}


def _verify_nonplanar(fixture, report, rng, draws):
    g = fixture.graph
    even = (fixture.alt_schemes or {}).get("even-crosscaps")
    solver = NonplanarSolver(g, even if even is not None else fixture.scheme)
    methods = {
        "multicomplex": solver.evaluate_multicomplex,
        "complex-sum": solver.evaluate_complex_sum,
    }
    if even is not None:
        methods["real-sum"] = solver.evaluate_real_sum
    worst = {k: 0.0 for k in methods}
    worst_pair = 0.0
    for _ in range(draws):
        w = WeightFunction(rng.uniform(1e-9, 1.0, g.num_edges))
        zb = z_bruteforce(g, w)
        vals = {k: fn(w) for k, fn in methods.items()}
        for k, v in vals.items():
            worst[k] = max(worst[k], abs(v - zb) / abs(zb))
        worst_pair = max(
            worst_pair,
            abs(vals["multicomplex"] - vals["complex-sum"])
            / max(abs(vals["multicomplex"]), 1e-300),
        )
        report.z_values = {"brute": zb, **vals}
    for k, v in worst.items():
        report.max_deviations[f"{k} vs brute"] = v
    report.max_deviations["complex-sum vs multicomplex"] = worst_pair
    report.parity_classes = {k: c for k, (c, _m) in solver.class_table.items()}
    reduced = reduce_to_minor(solver.inc, solver.transform, g)
    spread_per_class = 0.0
    table = {}
    for _c, v in curve_functional_table(reduced):
        mask = int(np.argmax(np.abs(v.coeffs)))
        coeff = float(v.coeffs[mask])
        if mask in table:
            spread_per_class = max(spread_per_class, abs(table[mask] - coeff))
        else:
            table[mask] = coeff
    report.fa_constant = True
    report.fa_spread = spread_per_class / max(abs(v) for v in table.values())


def reduced_minor(pair: str) -> tuple[IncidenceMatrix, MinorTransform]:
    """Incidence matrix of a shipped minor pair, reduced from the 3x3 grid.

    The grid's host matrix is reduced to the grid, then through the pair's
    transform to the minor.  Returns the minor's matrix and that transform.
    """
    host, minor, tm = fixture_zoo.minor_pair(pair)
    scheme = resolve_planar_scheme(host, fixture_zoo.get_fixture("grid3x3").scheme)
    big, big_scheme, t = build_host(host, scheme)
    inc_host = reduce_to_minor(build_incidence_matrix(big, big_scheme), t, host)
    return reduce_to_minor(inc_host, tm, minor), tm


def z_reduced(inc: IncidenceMatrix, w: WeightFunction) -> float:
    """Z from a reduced matrix; its all-links reference matching divides every
    link entry by its weight, which the weight product restores."""
    aw = weighted_matrix(inc.entries, inc.dart_graph, inc.reference_matching, w.values)
    return float(np.prod(w.values)) * float(pfaffian(aw)) / inc.lam


def _verify_reduced(name, report, rng, draws):
    inc, _tm = reduced_minor(name)
    minor = inc.graph
    worst = 0.0
    for _ in range(draws):
        w = WeightFunction(rng.uniform(1e-9, 1.0, minor.num_edges))
        zb = z_bruteforce(minor, w)
        z = z_reduced(inc, w)
        worst = max(worst, abs(z - zb) / abs(zb))
        report.z_values = {"brute": zb, "reduced-pfaffian": z}
    report.max_deviations["reduced-pfaffian vs brute"] = worst
    values = [v for _c, v in curve_functional_table(inc)]
    report.fa_constant, report.fa_spread = _functional_spread(values)
