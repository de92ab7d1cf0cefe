"""Exact Ising / closed-curve partition functions on finite graphs via Pfaffians.

Planar graphs get a single real Pfaffian; non-planar graphs get the real
part of one Pfaffian over a multicomplex algebra (equivalently sums of
complex or real Pfaffians), built from a crosscap-annotated embedding
scheme.  Includes brute-force oracles, graph-minor reduction machinery and
executable reproductions of the K5 / K3,3 obstruction identities.
"""
from .graphs import (
    CurveMask,
    CycleBasis,
    Graph,
    GraphError,
    enumerate_closed_curves,
    first_betti,
    fundamental_cycle_basis,
)
from .embeddings import (
    EmbeddingScheme,
    FaceReport,
    SchemeError,
    face_boundary_basis,
    plain_scheme,
    resolve_planar_scheme,
    trace_faces,
)
from .minors import (
    MinorTransform,
    apply_minor,
    build_host,
    complete_transform,
    compose_transforms,
    curve_preimage,
    four_regularize,
    subdivide_to_cycle_faces,
)
from .darts import (
    DartGraph,
    build_dart_graph,
    canonical_matching,
    enumerate_matchings,
    even_degree_matching,
    f_weight,
    phi,
)
from .multicomplex import (
    CharacterMap,
    MulticomplexValue,
    all_characters,
)
from .skewpf import (
    SkewMatrix,
    derived_matrix,
    pfaffian,
    pfaffian_bruteforce,
    reduce,
    submatrix,
)
from .kasteleyn import (
    IncidenceMatrix,
    build_incidence_matrix,
    cycle_ratios,
    obstruction_check,
    reduce_to_minor,
    solve_cycle_equations,
    solve_edge_equations,
    solve_site_equations,
    weighted_matrix,
)
from .partition import (
    IsingModel,
    NonplanarSolver,
    PlanarPfaffianSolver,
    WeightFunction,
    ising_bruteforce,
    ising_z,
    z_bruteforce,
    z_complex_sum,
    z_multicomplex,
    z_pfaffian_planar,
    z_real_sum,
)

__version__ = "0.1.0"
