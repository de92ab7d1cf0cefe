"""Command-line interface: compute, verify, obstruction, dartgraph, reduce, fixtures."""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import fixtures as fixture_zoo
from .darts import build_dart_graph, enumerate_matchings
from .fileio import format_graph, format_scheme, parse_graph, parse_scheme, parse_weight_spec
from .graphs import GraphError, first_betti
from .kasteleyn import obstruction_check, random_incidence_matrix
from .partition import (
    ROUTES,
    IsingModel,
    WeightFunction,
    ising_z,
    resolve_method,
    z_bruteforce,
)
from .verify import DEFAULT_TOLERANCE, reduced_minor, verify_fixture, z_reduced

USAGE_ERROR = 2


def _tolerance(args) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    return float(os.environ.get("PFI_TOL", DEFAULT_TOLERANCE))


def _load_graph_and_scheme(args):
    if getattr(args, "fixture", None):
        fx = fixture_zoo.get_fixture(args.fixture)
        scheme = fx.scheme
        if getattr(args, "alt_scheme", None):
            scheme = fx.alt_schemes[args.alt_scheme]
        return fx.graph, scheme
    if not args.graph:
        raise FileNotFoundError("no graph given (use --graph or --fixture)")
    with open(args.graph) as fh:
        g = parse_graph(fh.read())
    scheme = None
    if getattr(args, "scheme", None):
        with open(args.scheme) as fh:
            scheme = parse_scheme(fh.read(), g)
    return g, scheme


def cmd_compute(args) -> int:
    try:
        g, scheme = _load_graph_and_scheme(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        method = resolve_method(g, args.method, scheme)
        if args.couplings is not None:
            if args.beta is None:
                print("error: --couplings needs --beta", file=sys.stderr)
                return USAGE_ERROR
            couplings = parse_weight_spec(args.couplings, g.num_edges)
            model = IsingModel(g, couplings, args.beta)
            value = ising_z(model, method, scheme)
            quantity = "ising-z"
        else:
            weights = WeightFunction(parse_weight_spec(args.weights, g.num_edges))
            value = ROUTES[method](g, scheme, weights)
            quantity = "z"
    except (OSError, ValueError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.dump_matrix:
        from .fileio import format_matrix
        from .partition import NonplanarSolver, PlanarPfaffianSolver

        if method in ("planar",):
            solver = PlanarPfaffianSolver(g, scheme)
            inc = solver.inc
        elif method in ("multicomplex", "complex-sum", "real-sum"):
            inc = NonplanarSolver(g, scheme).inc
        else:
            print("error: --dump-matrix needs a Pfaffian method", file=sys.stderr)
            return USAGE_ERROR
        with open(args.dump_matrix, "w") as fh:
            fh.write(format_matrix(inc.skew, labels=inc.dart_graph.darts))
    if args.json:
        print(json.dumps({"quantity": quantity, "method": method, "value": value}))
    else:
        print(f"{value:.12g}")
    return 0


def cmd_verify(args) -> int:
    report = verify_fixture(
        args.fixture,
        seed=args.seed,
        tolerance=_tolerance(args),
        draws=args.draws,
        expect_obstruction=args.expect_obstruction,
        trials=args.trials,
    )
    if args.json:
        print(report.to_json())
    else:
        print("\n".join(report.summary_lines()))
    return 0 if report.passed else 1


def cmd_obstruction(args) -> int:
    rng = np.random.default_rng(args.seed)
    fixture = "k5-projective" if args.which == "k5" else "k33-projective"
    g = fixture_zoo.get_fixture(fixture).graph
    d = build_dart_graph(g)
    worst = 0.0
    results = []
    for _ in range(args.trials):
        rep = obstruction_check(args.which, random_incidence_matrix(d, rng), d)
        results.append(rep)
        if not rep["degenerate"]:
            worst = max(worst, rep["relative_residual"])
    tol = _tolerance(args)
    ok = worst <= tol
    if args.json:
        print(json.dumps({"which": args.which, "trials": args.trials,
                          "worst_residual": worst, "pass": ok}))
    else:
        print(
            f"{args.which}: product identity over {args.trials} random matrices, "
            f"worst residual {worst:.3e} -> {'PASS' if ok else 'FAIL'}"
        )
    return 0 if ok else 1


def cmd_dartgraph(args) -> int:
    try:
        g, _scheme = _load_graph_and_scheme(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    d = build_dart_graph(g)
    info = {
        "darts": d.num_darts,
        "site_edges": len(d.site_edges),
        "link_edges": len(d.link_edges),
    }
    if d.num_darts <= 24:
        info["perfect_matchings"] = len(enumerate_matchings(d))
    if args.json:
        info["dart_list"] = [list(x) for x in d.darts]
        print(json.dumps(info))
    else:
        print(f"darts: {info['darts']}")
        for i, (v, e) in enumerate(d.darts):
            print(f"  {i}: vertex {v}, edge {e}")
        print(f"site edges: {info['site_edges']}  link edges: {info['link_edges']}")
        if "perfect_matchings" in info:
            print(f"perfect matchings: {info['perfect_matchings']}")
        else:
            print("perfect matchings: skipped (above the 24-dart guard)")
    return 0


def cmd_reduce(args) -> int:
    inc, tm = reduced_minor(args.pair)
    rng = np.random.default_rng(args.seed)
    w = WeightFunction(rng.uniform(0.1, 1.0, inc.graph.num_edges))
    zb = z_bruteforce(inc.graph, w)
    z = z_reduced(inc, w)
    rel = abs(z - zb) / abs(zb)
    tol = _tolerance(args)
    payload = {
        "pair": args.pair,
        "deleted": sorted(tm.deleted),
        "contracted": sorted(tm.contracted),
        "z_bruteforce": zb,
        "z_reduced_pfaffian": z,
        "relative_deviation": rel,
        "pass": rel <= tol,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(
            f"{args.pair}: deleted {payload['deleted']}, contracted {payload['contracted']}\n"
            f"Z brute {zb:.12g} vs reduced Pfaffian {z:.12g} "
            f"(rel {rel:.3e}) -> {'PASS' if payload['pass'] else 'FAIL'}"
        )
    return 0 if payload["pass"] else 1


def cmd_fixtures(args) -> int:
    if args.emit:
        fx = fixture_zoo.get_fixture(args.emit)
        print(format_graph(fx.graph), end="")
        if fx.scheme is not None and args.with_scheme:
            print("# scheme")
            print(format_scheme(fx.scheme), end="")
        return 0
    for name in fixture_zoo.fixture_names():
        fx = fixture_zoo.get_fixture(name)
        g = fx.graph
        kind = "planar" if fx.planar else "nonplanar"
        print(
            f"{name:16s} |V|={g.num_vertices:3d} |E|={g.num_edges:3d} "
            f"beta1={first_betti(g):3d}  {kind}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfising",
        description="Exact Ising / closed-curve partition functions via Pfaffians",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="evaluate a partition function")
    pc.add_argument("--graph")
    pc.add_argument("--fixture")
    pc.add_argument("--scheme")
    pc.add_argument("--alt-scheme", dest="alt_scheme")
    pc.add_argument("--weights", default="uniform:0.5")
    pc.add_argument("--couplings")
    pc.add_argument("--beta", type=float)
    pc.add_argument(
        "--method",
        default="auto",
        choices=[*ROUTES, "auto"],
    )
    pc.add_argument("--dump-matrix", dest="dump_matrix")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="run the cross-method checks on a fixture")
    pv.add_argument("--fixture", required=True)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol", type=float)
    pv.add_argument("--draws", type=int, default=20)
    pv.add_argument("--expect-obstruction", action="store_true")
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)

    po = sub.add_parser("obstruction", help="check the K5/K3,3 product identity")
    po.add_argument("which", choices=["k5", "k33"])
    po.add_argument("--trials", type=int, default=100)
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--tol", type=float)
    po.add_argument("--json", action="store_true")
    po.set_defaults(func=cmd_obstruction)

    pd = sub.add_parser("dartgraph", help="dart list and edge-partition sizes")
    pd.add_argument("--graph")
    pd.add_argument("--fixture")
    pd.add_argument("--json", action="store_true")
    pd.set_defaults(func=cmd_dartgraph)

    pr = sub.add_parser("reduce", help="minor reduction demo on shipped pairs")
    pr.add_argument("--pair", required=True, choices=["hex-patch", "tri-patch"])
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--tol", type=float)
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=cmd_reduce)

    pf = sub.add_parser("fixtures", help="list or emit the shipped fixtures")
    pf.add_argument("--emit")
    pf.add_argument("--with-scheme", action="store_true")
    pf.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
