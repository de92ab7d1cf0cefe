"""Partition-function evaluation routes and the Ising correspondence.

Every route computes Z_G(w) = sum over closed curves of the edge-weight
products.  The Pfaffian routes run the pipeline
4-regularize -> subdivide-to-cycle-faces -> solve/assemble, evaluate on the
host graph directly (helper edges keep weight 1, deleted helper chords have
their link entries zeroed) and divide out the calibrated constant:

* planar:        Z = Pf(A(w)) / lam                     (one real Pfaffian)
* multicomplex:  Z = Re(lam * Pf(A(w)))                 (one Pfaffian in C_n)
* complex sum:   Z = Re sum_j H_j(lam)/2**n * Pf(H_j(A)(w))   (2**n terms)
* real sum:      Z = sum_j H_j(lam)/2**(n-1) * Pf(H_j(A)(w))  (2**(n-1) real
                 terms, available when every entry lies in the even
                 subalgebra, e.g. schemes derived from orientable embeddings)

The three nonplanar routes are one computation: the character images come
from :func:`~pfising.skewpf.character_pfaffians`, which eliminates the
2**(n-1) characters with i_1 -> +i (the others are complex conjugates).  On
even-subalgebra matrices those images are real, which is the real sum.
:data:`ROUTES` and :func:`resolve_method` are the one method table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .darts import f_weight
from .embeddings import EmbeddingScheme, SchemeError, resolve_planar_scheme, trace_faces
from .graphs import Graph, GraphError, enumerate_closed_curves, fundamental_cycle_basis
from .kasteleyn import (
    IncidenceMatrix,
    build_incidence_matrix,
    weighted_matrix,
    zero_link_entries,
)
from .minors import build_host, curve_preimage, transported_weights
from .multicomplex import half_character_table
from .skewpf import SkewMatrix, character_pfaffians, pfaffian

ISING_BRUTEFORCE_MAX_VERTICES = 20


@dataclass(frozen=True)
class WeightFunction:
    """Strictly positive weight per edge."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "values", v)

    @staticmethod
    def uniform(x: float, num_edges: int) -> "WeightFunction":
        return WeightFunction(np.full(num_edges, float(x)))

    def __getitem__(self, e: int) -> float:
        return float(self.values[e])

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class IsingModel:
    """Ferromagnetic Ising model: couplings J_e >= 0 at inverse temperature beta."""

    graph: Graph
    couplings: np.ndarray
    beta: float

    def __post_init__(self):
        j = np.asarray(self.couplings, dtype=np.float64)
        if j.shape != (self.graph.num_edges,):
            raise ValueError("one coupling per edge required")
        if not np.all(np.isfinite(j)) or np.any(j < 0):
            raise ValueError("ferromagnetic couplings must be finite and nonnegative")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and positive")
        object.__setattr__(self, "couplings", j)


def z_bruteforce(g: Graph, w: WeightFunction) -> float:
    """Direct sum over all 2**beta1 closed curves (the oracle)."""
    total = 0.0
    for c in enumerate_closed_curves(g):
        term = 1.0
        e = 0
        m = c
        while m:
            if m & 1:
                term *= w[e]
            m >>= 1
            e += 1
        total += term
    return total


class PlanarPfaffianSolver:
    """Reusable planar pipeline: build once, evaluate many weight draws."""

    def __init__(self, g: Graph, scheme: EmbeddingScheme):
        self.graph = g
        self.host, s2, self.transform = build_host(g, resolve_planar_scheme(g, scheme))
        self.inc = build_incidence_matrix(self.host, s2)
        self.entries = zero_link_entries(self.inc, self.transform.deleted)

    def evaluate(self, w: WeightFunction) -> float:
        wt = transported_weights(self.transform, w.values, self.host.num_edges)
        aw = weighted_matrix(
            self.entries, self.inc.dart_graph, self.inc.reference_matching, wt
        )
        return float(pfaffian(aw)) / self.inc.lam


class NonplanarSolver:
    """Multicomplex pipeline for a crosscap-annotated scheme."""

    def __init__(self, g: Graph, scheme: EmbeddingScheme):
        if scheme.n_crosscaps < 1:
            raise SchemeError("nonplanar route needs a crosscap-annotated scheme")
        self.graph = g
        self.n_generators = scheme.n_crosscaps
        g2, s2, self.transform = build_host(g, scheme)
        self.host = g2
        self.host_scheme = s2
        basis = [
            curve_preimage(g2, self.transform, c) for c in fundamental_cycle_basis(g).cycles
        ]
        self.inc = build_incidence_matrix(
            g2, s2, curve_basis=basis, deleted_edges=self.transform.deleted
        )
        self.entries = zero_link_entries(self.inc, self.transform.deleted)
        self._lam_images = self.inc.lam.coeffs @ half_character_table(self.n_generators)

    @property
    def class_table(self) -> dict:
        return dict(self.inc.class_values)

    def _weighted(self, w: WeightFunction) -> SkewMatrix:
        wt = transported_weights(self.transform, w.values, self.host.num_edges)
        return weighted_matrix(
            self.entries, self.inc.dart_graph, self.inc.reference_matching, wt
        )

    def evaluate_multicomplex(self, w: WeightFunction) -> float:
        return (self.inc.lam * pfaffian(self._weighted(w))).real

    def evaluate_complex_sum(self, w: WeightFunction) -> float:
        return self._character_sum(w)

    def evaluate_real_sum(self, w: WeightFunction) -> float:
        if any(int(m).bit_count() % 2 for m in self.inc.edge_masks):
            raise SchemeError(
                "scheme not orientable-derived; use complex sum"
            )
        return self._character_sum(w)

    def _character_sum(self, w: WeightFunction) -> float:
        """Re sum_h H_h(lam) Pf(H_h(A(w))) / 2**(n-1) over the characters with
        i_1 -> +i; the conjugate half doubles the real part of the 2**n sum."""
        terms = self._lam_images * character_pfaffians(self._weighted(w))
        return float(np.sum(terms).real) / (1 << (self.n_generators - 1))


def z_pfaffian_planar(g: Graph, s: EmbeddingScheme, w: WeightFunction) -> float:
    """Single real Pfaffian for a genus-0 scheme."""
    return PlanarPfaffianSolver(g, s).evaluate(w)


def z_multicomplex(g: Graph, s: EmbeddingScheme, w: WeightFunction) -> float:
    """Real part of one multicomplex Pfaffian (crosscap-annotated scheme)."""
    return NonplanarSolver(g, s).evaluate_multicomplex(w)


def z_complex_sum(g: Graph, s: EmbeddingScheme, w: WeightFunction) -> float:
    """Expansion into 2**n complex Pfaffians via the characters of C_n
    (2**(n-1) conjugate pairs, one elimination per pair)."""
    return NonplanarSolver(g, s).evaluate_complex_sum(w)


def z_real_sum(g: Graph, s: EmbeddingScheme, w: WeightFunction) -> float:
    """Expansion into 2**(n-1) real Pfaffians via the even subalgebra."""
    return NonplanarSolver(g, s).evaluate_real_sum(w)


def ising_weights(m: IsingModel) -> WeightFunction:
    """High-temperature weights w(e) = tanh(beta * J_e).

    This is the assignment under which 2**|V| prod cosh(beta J_e) Z_G(w)
    equals the literal spin sum (pinned by the ising_bruteforce oracle).
    """
    w = np.tanh(m.beta * m.couplings)
    if np.any(w <= 0):
        raise ValueError("zero coupling gives a zero weight; drop the edge instead")
    return WeightFunction(w)


def ising_prefactor(m: IsingModel) -> float:
    """2**|V| prod cosh(beta J_e), exponentiated from its log; OverflowError
    when it does not fit in a float64."""
    x = m.beta * m.couplings
    log_cosh = np.logaddexp(x, -x) - np.log(2.0)
    log_value = float(m.graph.num_vertices * np.log(2.0) + np.sum(log_cosh))
    if log_value > np.log(np.finfo(np.float64).max):
        raise OverflowError(f"Ising prefactor overflows a float64: its log is {log_value!r}")
    return float(np.exp(log_value))


ROUTES = {
    "brute": lambda g, s, w: z_bruteforce(g, w),
    "planar": z_pfaffian_planar,
    "multicomplex": z_multicomplex,
    "complex-sum": z_complex_sum,
    "real-sum": z_real_sum,
}


def resolve_method(g: Graph, method: str, scheme: EmbeddingScheme | None) -> str:
    """The key of :data:`ROUTES` that ``method`` names on (g, scheme).

    "auto" picks brute force without a scheme, the planar route on a sphere
    (Euler characteristic 2) and the multicomplex route otherwise.
    """
    if method == "auto":
        if scheme is None:
            return "brute"
        chi = trace_faces(g, scheme).euler_characteristic
        return "planar" if chi == 2 else "multicomplex"
    if method not in ROUTES:
        raise ValueError(f"unknown method {method!r}")
    if method != "brute" and scheme is None:
        raise ValueError(f"method {method!r} needs an embedding scheme")
    return method


def ising_z(m: IsingModel, method: str = "auto",
            scheme: EmbeddingScheme | None = None) -> float:
    """Ising partition function through the closed-curve correspondence."""
    w = ising_weights(m)
    route = ROUTES[resolve_method(m.graph, method, scheme)]
    return ising_prefactor(m) * route(m.graph, scheme, w)


def ising_bruteforce(m: IsingModel) -> float:
    """Direct 2**|V| spin sum."""
    n = m.graph.num_vertices
    if n > ISING_BRUTEFORCE_MAX_VERTICES:
        raise GraphError(
            f"{n} vertices exceeds the spin-sum guard {ISING_BRUTEFORCE_MAX_VERTICES}"
        )
    states = np.arange(1 << n, dtype=np.uint32)
    spins = 1.0 - 2.0 * ((states[:, None] >> np.arange(n)[None, :]) & 1)
    energy = np.zeros(1 << n)
    for e, (u, v) in enumerate(m.graph.edges):
        energy += m.couplings[e] * spins[:, u] * spins[:, v]
    return float(np.sum(np.exp(m.beta * energy)))


def curve_functional_table(inc: IncidenceMatrix, curves=None) -> list:
    """(curve, value) pairs of the matching-sum functional, for reports."""
    g = inc.graph
    if curves is None:
        curves = enumerate_closed_curves(g)
    d, m0 = inc.dart_graph, inc.reference_matching
    return [(c, f_weight(inc.entries, d, m0, c)) for c in curves]
