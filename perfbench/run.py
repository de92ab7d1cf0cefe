"""pfising benchmark: build once, evaluate many, check every result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload planar_grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each run is one process with one closed-loop caller: it sets the workload
up, then issues operations back to back for ``--seconds`` seconds,
finishing the round it is in, and afterwards checks every output against
its oracle.  ``setup_s`` is the median of ``setup_repeats`` set-ups, the
first before the loop and the others between its rounds.  A workload
with known failures instead issues a fixed number of rounds sized from
``--seconds``, so that one seed always gives the same operations and the
same failures.  An operation fails if a route raises, returns a non-finite
value or 0.0, or differs from the oracle by more than 1e-9 relative (the
``verify`` default); a failed operation is still timed and counted as
attempted.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run that sets up untraced and traced in alternating pairs, runs every
operation untraced and traced in alternating order, and reports the
per-layer metrics of :mod:`tracing` plus the tracing overhead (traced minus
untraced).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failed operations
count in ``failed``.  ``correct`` is false when an output could not be
checked, and on a workload without known failures when any operation
failed; on ``oneshot_fixtures``, whose inputs expose a known defect, the
gated ``passed_frac`` carries the failure share instead.  The lines before
it are a readable report with sample counts, failures per route and the
environment; the whole result, and the spans of a traced run, are also
written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

BLAS_THREADS = 1
IMPORT_REPEATS = 11
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("planar_grid", "torus_even", "oneshot_fixtures")
REL_TOL = 1e-9
TAIL_MIN_BEYOND = 10
DIGITS_FLOOR = 2.0 ** -53  # a relative error of zero reads as full double precision

# The latency percentiles are printed but not gated.  On a shared host whose
# speed swings by up to 2x in phases lasting seconds, they follow the phases:
# over ten torus_even runs on a shared 2-core host their quartile spreads
# reached 0.37 (median) and 0.32 (tail), above 0.25, the largest bound the
# benchmark may set.  The mean rate, ops_per_s, averages over the phases.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("passed_frac", "share"),
    ("min_correct_digits", "digits"),
    ("peak_rss_mb", "MB"),
)
# (metric, unit, span or counter, kind): "self" and "inclusive" read the
# span's time, "count" a counter of tracing.Tracer.
PER_LAYER = (
    ("skewpf.pfaffian_s", "s", "skewpf.pfaffian", "self"),
    ("skewpf.pfaffian_calls", "count", "skewpf.pfaffian_calls", "count"),
    ("skewpf.order", "count", "skewpf.order", "count"),
    ("skewpf.flops_computed", "flop", "skewpf.flops_computed", "count"),
    ("skewpf.skewmatrix_constructions", "count", "skewpf.skewmatrix_constructions", "count"),
    ("kasteleyn.weighted_matrix_s", "s", "kasteleyn.weighted_matrix", "inclusive"),
    ("kasteleyn.zero_link_entries_s", "s", "kasteleyn.zero_link_entries", "inclusive"),
    ("minors.transported_weights_s", "s", "minors.transported_weights", "inclusive"),
    ("kasteleyn.build_incidence_matrix_s", "s", "kasteleyn.build_incidence_matrix", "self"),
    ("kasteleyn.solve_site_equations_s", "s", "kasteleyn.solve_site_equations", "inclusive"),
    ("kasteleyn.solve_edge_equations_s", "s", "kasteleyn.solve_edge_equations", "inclusive"),
    ("kasteleyn.solve_cycle_equations_s", "s", "kasteleyn.solve_cycle_equations", "inclusive"),
    ("graphs.enumerate_closed_curves_s", "s", "graphs.enumerate_closed_curves", "inclusive"),
    ("graphs.curves_enumerated", "count", "graphs.curves_enumerated", "count"),
    ("kasteleyn.calibration_pfaffians", "count", "kasteleyn.calibration_pfaffians", "count"),
    ("minors.four_regularize_s", "s", "minors.four_regularize", "inclusive"),
    ("minors.subdivide_to_cycle_faces_s", "s", "minors.subdivide_to_cycle_faces", "inclusive"),
    ("embeddings.resolve_planar_scheme_s", "s", "embeddings.resolve_planar_scheme", "inclusive"),
    ("embeddings.trace_faces_calls", "count", "embeddings.trace_faces_calls", "count"),
    ("embeddings.trace_faces_s", "s", "embeddings.trace_faces", "inclusive"),
    ("minors.host_vertices", "count", "minors.host_vertices", "count"),
    ("darts.num_darts", "count", "darts.num_darts", "count"),
    ("skewpf.character_image_s", "s", "skewpf.character_image", "inclusive"),
    ("multicomplex.value_from_character_images_s", "s",
     "multicomplex.value_from_character_images", "inclusive"),
    ("partition.evaluate_multicomplex_s", "s", "partition.evaluate_multicomplex", "inclusive"),
    ("partition.evaluate_complex_sum_s", "s", "partition.evaluate_complex_sum", "inclusive"),
    ("partition.evaluate_real_sum_s", "s", "partition.evaluate_real_sum", "inclusive"),
)
TRACE_OVERHEAD = (("trace.eval_overhead_ms", "ms"),)


def import_library() -> None:
    """Import ``pfising`` from this checkout's ``src``.

    Pins the BLAS thread count first, since numpy reads it when it loads.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "pfising" / "__init__.py").is_file():
        sys.exit(f"error: no pfising sources under {src}")
    sys.dont_write_bytecode = True  # every run compiles the same way
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import pfising

    if Path(pfising.__file__).resolve().parent != src / "pfising":
        sys.exit(f"error: pfising was imported from {pfising.__file__}, not {src}")


def import_seconds() -> float:
    """Seconds to import ``pfising`` in a fresh interpreter.

    numpy, the library's only third-party import, is loaded before the clock
    starts: its cold import would be most of the time, and no ``pfising``
    change moves it.  The caller takes the median of several samples, since
    one sample of a few tens of milliseconds follows the host's speed swings.
    """
    code = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import pfising; "
            "print(time.perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-B", "-c", code, str(ROOT / "src")],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def percentile(ordered: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples: (value, samples beyond it)."""
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def tail(ordered: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it) for the tail of sorted samples.

    The highest whole percentile with at least ten samples beyond it, and
    never below the median; below 20 samples it is the median, with fewer
    than ten beyond.
    """
    n = len(ordered)
    pct = max(50, math.floor(100 * (n - TAIL_MIN_BEYOND) / n))
    return (pct, *percentile(ordered, pct))


def run_operation(op) -> tuple[float, list]:
    """Call every route of ``op``; returns (seconds, outputs or exceptions)."""
    outputs = []
    start = time.perf_counter()
    for _route, call in op.routes:
        try:
            outputs.append(call())
        except Exception as exc:  # a raising route is a counted failure
            outputs.append(exc)
    return time.perf_counter() - start, outputs


def planned_rounds(workload, seconds: float) -> int | None:
    """The fixed number of rounds a run issues, or None to stop on the clock."""
    if workload.fixed_round_s is None:
        return None
    return max(1, round(seconds / workload.fixed_round_s))


def closed_loop(workload, built, rng, seconds, on_operation, between_rounds=None):
    """Issue rounds of operations until ``seconds`` have passed in them, or
    the planned number of rounds on a workload with a fixed count; returns
    the seconds spent in rounds.  ``on_operation(op)`` runs and records one
    operation; ``between_rounds()``, if given, runs off the clock after each
    round but the last."""
    rounds = planned_rounds(workload, seconds)
    done = 0
    elapsed = 0.0
    while True:
        start = time.perf_counter()
        for op in workload.round(built, rng):
            on_operation(op)
        elapsed += time.perf_counter() - start
        done += 1
        if done == rounds or (rounds is None and elapsed >= seconds):
            return elapsed
        if between_rounds is not None:
            between_rounds()


def check(records, failures_known: bool) -> dict:
    """Compare every recorded output with its oracle.

    The result is correct when every output was checked and, unless the
    workload's inputs expose a known defect (``failures_known``), none failed.
    """
    attempted = failed = 0
    unchecked = 0
    worst = 0.0
    per_route = defaultdict(lambda: [0, 0])
    reasons = Counter()
    failed_labels = Counter()
    for op, outputs in records:
        attempted += 1
        try:
            exact = float(op.oracle())
        except Exception as exc:
            unchecked += 1
            reasons[f"oracle raised {type(exc).__name__}"] += 1
            continue
        op_failed = False
        op_worst = 0.0
        for (route, _call), value in zip(op.routes, outputs):
            per_route[route][0] += 1
            if isinstance(value, Exception):
                reason = f"raised {type(value).__name__}"
            elif not math.isfinite(value):
                reason = "non-finite"
            elif value == 0.0:
                reason = "returned 0.0"
            else:
                err = abs(value - exact) / abs(exact)
                op_worst = max(op_worst, err)
                reason = "oracle mismatch" if err > REL_TOL else None
            if reason:
                per_route[route][1] += 1
                reasons[f"{route}: {reason}"] += 1
                op_failed = True
        if op_failed:
            failed += 1
            failed_labels[op.label] += 1
        else:
            worst = max(worst, op_worst)
    return {
        "correct": unchecked == 0 and (failures_known or failed == 0),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "passed_frac": 1.0 - failed / attempted,
        "max_rel_err": worst,
        "min_correct_digits": -math.log10(max(worst, DIGITS_FLOOR)) if failed < attempted else 0.0,
        "failures_per_route": {r: {"attempted": a, "failed": f} for r, (a, f) in per_route.items()},
        "failure_reasons": dict(reasons),
        "failed_operations_by_label": dict(failed_labels),
    }


def timed_setup(workload):
    """(build, seconds) of one set-up."""
    start = time.perf_counter()
    built = workload.build()
    return built, time.perf_counter() - start


def run_untraced(workload, seed, seconds):
    """The end-to-end metrics of one run.

    The first set-up comes before the first operation.  The other set-up
    samples, and the import samples where set-up includes the import, are
    taken one of each between rounds, off the clock, and their builds are
    dropped; any still missing when the loop ends are taken after it.
    Samples spread over the run follow the host's speed over the run, where
    samples taken back to back all fall in one of its phases.
    """
    import numpy as np

    built, first_setup = timed_setup(workload)
    setup_times = [first_setup]
    import_samples = []
    wanted_imports = IMPORT_REPEATS if workload.setup_includes_import else 0

    def sample_setup():
        if len(setup_times) < workload.setup_repeats:
            setup_times.append(timed_setup(workload)[1])
        if len(import_samples) < wanted_imports:
            import_samples.append(import_seconds())

    rng = np.random.default_rng(seed)
    records, latencies = [], []

    def on_operation(op):
        latency, outputs = run_operation(op)
        latencies.append(latency)
        records.append((op, outputs))

    elapsed = closed_loop(workload, built, rng, seconds, on_operation, sample_setup)
    while len(setup_times) < workload.setup_repeats or len(import_samples) < wanted_imports:
        sample_setup()
    setup_s = statistics.median(setup_times)
    if import_samples:
        setup_s += statistics.median(import_samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = check(records, workload.failures_known)
    ordered = sorted(latencies)
    pct, tail_value, beyond = tail(ordered)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / elapsed,
        "passed_frac": checked["passed_frac"],
        "min_correct_digits": checked["min_correct_digits"],
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "setup_samples_s": setup_times,
        "import_samples_s": import_samples,
        "eval_p50_ms": 1e3 * percentile(ordered, 50)[0],
        "eval_tail_ms": 1e3 * tail_value,
        "latencies_ms": [1e3 * x for x in latencies],
        "operations": len(latencies),
        "planned_rounds": planned_rounds(workload, seconds),
        "loop_s": elapsed,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        **checked,
    }
    return metrics, details


def paired_setups(workload, tracer, pairs):
    """Untraced and traced set-ups in ``pairs`` pairs, the order alternating
    so that neither side always runs on warm caches.

    Returns (last build, untraced seconds, traced seconds).
    """
    from tracing import SETUP

    untraced, traced = [], []
    built = None
    for pair in range(pairs):
        for is_traced in ((False, True) if pair % 2 == 0 else (True, False)):
            built = None  # release the previous build before timing the next
            start = time.perf_counter()
            with tracer.phase(SETUP) if is_traced else nullcontext():
                built = workload.build()
            (traced if is_traced else untraced).append(time.perf_counter() - start)
    return built, untraced, traced


def overhead(diffs: list[float]) -> dict:
    """Median of paired traced-minus-untraced seconds, and whether its sign
    is resolved.  A sign test: the count of pairs on either side of zero must
    differ by more than twice the binomial sigma, sqrt(n), which takes at
    least five pairs.  An unresolved figure is noise, whatever its sign.
    """
    n = len(diffs)
    positive = sum(d > 0 for d in diffs)
    return {"median_s": statistics.median(diffs), "pairs": n, "positive": positive,
            "resolved": abs(2 * positive - n) > 2 * math.sqrt(n)}


def run_traced(workload, seed, seconds):
    import numpy as np
    from tracing import OPERATION, Tracer

    tracer = Tracer()
    built, untraced_setups, traced_setups = paired_setups(
        workload, tracer, workload.trace_setup_pairs)
    rng = np.random.default_rng(seed)
    records, overheads = [], []

    def on_operation(op):
        traced_first = len(overheads) % 2 == 1  # alternate which side runs first
        if traced_first:
            with tracer.phase(OPERATION):
                traced, traced_out = run_operation(op)
        plain, plain_out = run_operation(op)
        if not traced_first:
            with tracer.phase(OPERATION):
                traced, traced_out = run_operation(op)
        overheads.append(traced - plain)
        records.append((op, plain_out))
        records.append((op, traced_out))

    elapsed = closed_loop(workload, built, rng, seconds, on_operation)
    checked = check(records, workload.failures_known)
    times = tracer.layer_times()
    counts = tracer.layer_counts()
    metrics = {}
    for name, _unit, source, kind in PER_LAYER:
        if kind == "count":
            metrics[name] = counts.get(source, 0.0)
        else:
            inclusive, own = times.get(source, (0.0, 0.0))
            metrics[name] = own if kind == "self" else inclusive
    eval_overhead = overhead(overheads)
    metrics["trace.eval_overhead_ms"] = 1e3 * eval_overhead["median_s"]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    details = {
        "untraced_setups_s": untraced_setups,
        "traced_setups_s": traced_setups,
        "setup_overhead": overhead([t - u for u, t in zip(untraced_setups, traced_setups)]),
        "eval_overhead": eval_overhead,
        "traced_operations": tracer.operations,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "loop_s": elapsed,
        **checked,
    }
    return metrics, details


def report(workload_name, trace, metrics, details, env, units):
    print(f"workload {workload_name}  trace {trace}  seed {env['seed']}")
    print("environment " + json.dumps(env))
    for name, value in metrics.items():
        print(f"  {name:48s} {value!r} {units[name]}")
    if trace:
        for name in ("setup_overhead", "eval_overhead"):
            figure = details[name]
            verdict = "resolved" if figure["resolved"] else "unresolved: within the noise"
            print(f"  trace.{name}: {figure['median_s']!r} s, median over "
                  f"{figure['pairs']} alternating pairs, {figure['positive']} of them "
                  f"traced slower ({verdict})")
    else:
        for name in ("eval_p50_ms", "eval_tail_ms"):
            print(f"  {name:48s} {details[name]!r} ms (not gated)")
        if details["planned_rounds"]:
            print(f"  fixed count of {details['planned_rounds']} rounds")
        print(f"  operations {details['operations']} in {details['loop_s']:.3f} s; "
              f"eval_p50 over {details['operations']} samples; eval_tail is "
              f"p{details['tail_percentile']} with {details['tail_samples_beyond']} beyond; "
              f"setup samples {len(details['setup_samples_s'])}, "
              f"import samples {len(details['import_samples_s'])}")
    print(f"  failed_frac {details['failed_frac']!r} "
          f"({details['failed']} of {details['attempted']} operations)")
    for route, counts in sorted(details["failures_per_route"].items()):
        print(f"  route {route:28s} failed {counts['failed']} of {counts['attempted']}")
    for reason, count in sorted(details["failure_reasons"].items()):
        print(f"  failure {reason}: {count}")
    for label, count in sorted(details["failed_operations_by_label"].items()):
        print(f"  failed operations on {label}: {count}")


def run_one(args) -> dict:
    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    if args.trace:
        metrics, details = run_traced(workload, args.seed, args.seconds)
        units = {name: unit for name, unit, _s, _k in PER_LAYER}
        units.update(TRACE_OVERHEAD)
    else:
        metrics, details = run_untraced(workload, args.seed, args.seconds)
        units = dict(END_TO_END)
    report(workload.name, args.trace, metrics, details, env, units)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(
        {"workload": workload.name, "environment": env, "metrics": metrics,
         "units": units, "details": details}, indent=1, default=str))
    return {
        "correct": details["correct"],
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
