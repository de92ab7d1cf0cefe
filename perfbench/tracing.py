"""Spans around calls into ``pfising``, recorded from outside the library.

The tracer replaces each traced function under every name a ``pfising``
module holds it by (``pfising.partition.four_regularize``,
``pfising.kasteleyn.enumerate_closed_curves``, ...), so calls made inside the
library are caught as well as the benchmark's own.  Spans (name, start, end,
parent) stay in memory and are written out when the run ends.

A run has two phases, each opened with :meth:`Tracer.phase`: the traced
set-ups and then every traced operation.  A per-layer figure is the layer's
mean amount per set-up plus its mean amount per operation, so it compares
directly with ``setup_s`` and ``eval_p50_ms``.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module that defines it, attribute): every traced function.  Spans are
# named "<module>.<attribute>" with the ``pfising.`` prefix dropped.
TRACED_FUNCTIONS = (
    ("pfising.skewpf", "pfaffian"),
    ("pfising.multicomplex", "value_from_character_images"),
    ("pfising.kasteleyn", "weighted_matrix"),
    ("pfising.kasteleyn", "zero_link_entries"),
    ("pfising.kasteleyn", "build_incidence_matrix"),
    ("pfising.kasteleyn", "solve_site_equations"),
    ("pfising.kasteleyn", "solve_edge_equations"),
    ("pfising.kasteleyn", "solve_cycle_equations"),
    ("pfising.minors", "transported_weights"),
    ("pfising.minors", "four_regularize"),
    ("pfising.minors", "subdivide_to_cycle_faces"),
    ("pfising.graphs", "enumerate_closed_curves"),
    ("pfising.embeddings", "resolve_planar_scheme"),
    ("pfising.embeddings", "trace_faces"),
    ("pfising.darts", "build_dart_graph"),
)
# (module, class, method): methods are looked up on the class at call time.
TRACED_METHODS = (
    ("pfising.skewpf", "SkewMatrix", "character_image"),
    ("pfising.partition", "NonplanarSolver", "evaluate_multicomplex"),
    ("pfising.partition", "NonplanarSolver", "evaluate_complex_sum"),
    ("pfising.partition", "NonplanarSolver", "evaluate_real_sum"),
)

SETUP = "setup"
OPERATION = "operation"


def _span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('pfising.')}.{attr}"


def pfaffian_flops(order: int, ring: str, n_generators: int) -> int:
    """Floating-point operations of the Parlett-Reid updates, as computed.

    Step k of the elimination updates the trailing m x m block (m = n - k - 2)
    with two outer products, a difference, a division by the pivot and a
    subtraction: 5 m**2 real operations, or 22 m**2 real flops on complex
    entries (6 per product or division, 2 per sum).  A multicomplex matrix
    is eliminated once per character image, 2**n_generators complex
    eliminations.  Assumes no early exit on a small pivot.
    """
    per_entry = 5 if ring == "real" else 22
    images = 1 << n_generators if ring == "multicomplex" else 1
    total = sum((order - k - 2) ** 2 for k in range(0, order - 2, 2))
    return per_entry * images * total


class Tracer:
    """Records spans and counters inside :meth:`phase`; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.stack: list[int] = []
        self.current_phase: str | None = None
        self.counts = {SETUP: defaultdict(float), OPERATION: defaultdict(float)}
        self.peaks: dict[str, int] = defaultdict(int)
        self.setups = 0
        self.operations = 0
        self._patches: list[tuple[object, str, object, object]] = []
        for module, attr in TRACED_FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(_span_name(module, attr), original)
            for name, mod in list(sys.modules.items()):
                if name == "pfising" or name.startswith("pfising."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original, wrapped))
        for module, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = getattr(cls, attr)
            wrapped = self._wrap(_span_name(module, attr), original)
            self._patches.append((cls, attr, original, wrapped))
        skew = sys.modules["pfising.skewpf"].SkewMatrix
        self._patches.append(
            (skew, "__post_init__", skew.__post_init__, self._counting(skew.__post_init__))
        )

    def _counting(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer._count("skewpf.skewmatrix_constructions", 1)
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, parent, tracer.current_phase]
            tracer.spans.append(span)
            tracer.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            tracer._observe(name, args, parent, result)
            return result

        return traced

    # -- counters ---------------------------------------------------------
    def _count(self, key: str, amount: float):
        self.counts[self.current_phase][key] += amount

    def _observe(self, name, args, parent, result):
        if name == "skewpf.pfaffian":
            a = args[0]
            self._count("skewpf.pfaffian_calls", 1)
            self._count("skewpf.flops_computed",
                        pfaffian_flops(a.order, a.ring, a.n_generators))
            self.peaks["skewpf.order"] = max(self.peaks["skewpf.order"], a.order)
            if parent >= 0 and self.spans[parent][0] == "kasteleyn.build_incidence_matrix":
                self._count("kasteleyn.calibration_pfaffians", 1)
        elif name == "graphs.enumerate_closed_curves":
            self._count("graphs.curves_enumerated", len(result))
        elif name == "embeddings.trace_faces":
            self._count("embeddings.trace_faces_calls", 1)
        elif name == "minors.subdivide_to_cycle_faces":
            host = result[0].num_vertices
            self.peaks["minors.host_vertices"] = max(self.peaks["minors.host_vertices"], host)
        elif name == "darts.build_dart_graph":
            self.peaks["darts.num_darts"] = max(self.peaks["darts.num_darts"], result.num_darts)

    # -- phases -----------------------------------------------------------
    @contextmanager
    def phase(self, phase: str):
        """Trace the calls made inside the block as part of ``phase``.

        The wrappers are in place only inside the block; outside it the
        library runs unmodified.
        """
        for owner, attr, _original, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.current_phase = phase
        try:
            yield
        finally:
            self.current_phase = None
            for owner, attr, original, _wrapped in reversed(self._patches):
                setattr(owner, attr, original)
        if phase == OPERATION:
            self.operations += 1
        else:
            self.setups += 1

    # -- results ----------------------------------------------------------
    def _weights(self) -> dict[str, float]:
        return {SETUP: 1.0 / max(1, self.setups), OPERATION: 1.0 / max(1, self.operations)}

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """name -> (inclusive seconds, self seconds), per mean set-up plus mean
        operation.  Self time subtracts the direct children of every span; no
        traced function calls itself, so inclusive time is a plain sum.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        weight = self._weights()
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, phase) in enumerate(self.spans):
            duration = end - start
            inclusive[name] += weight[phase] * duration
            own[name] += weight[phase] * (duration - child_time[index])
        return {name: (inclusive[name], own[name]) for name in own}

    def layer_counts(self) -> dict[str, float]:
        """Counters per mean set-up plus mean operation, and the peak sizes."""
        out = dict(self.peaks)
        weight = self._weights()
        for key in set(self.counts[SETUP]) | set(self.counts[OPERATION]):
            out[key] = (weight[SETUP] * self.counts[SETUP][key]
                        + weight[OPERATION] * self.counts[OPERATION][key])
        return out

    def write(self, path):
        """Write every span as {name, start, end, parent, phase} JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "phase": phase}) + "\n")
