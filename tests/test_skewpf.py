import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfising.fixtures import _grid_graph, torus_grid
from pfising.kasteleyn import weighted_matrix
from pfising.multicomplex import MulticomplexValue, half_character_table
from pfising.partition import NonplanarSolver, PlanarPfaffianSolver
from pfising.skewpf import (
    SkewMatrix,
    _pfaffian_field,
    derived_matrix,
    matching_sign,
    pfaffian,
    pfaffian_bruteforce,
    reduce,
    skew_from_upper,
    submatrix,
)


def random_skew(rng, n, complex_=False):
    m = rng.normal(size=(n, n))
    if complex_:
        m = m + 1j * rng.normal(size=(n, n))
    m = m - m.T
    return SkewMatrix("complex" if complex_ else "real", m)


def test_order_two():
    a = skew_from_upper(2, {(0, 1): 3.25})
    assert pfaffian(a) == 3.25
    assert pfaffian_bruteforce(a) == 3.25


def test_order_four_definition():
    vals = {(0, 1): 1.0, (0, 2): 2.0, (0, 3): 3.0, (1, 2): 4.0, (1, 3): 5.0, (2, 3): 6.0}
    a = skew_from_upper(4, vals)
    expected = 1 * 6 - 2 * 5 + 3 * 4
    assert pfaffian(a) == pytest.approx(expected, rel=1e-14)
    assert pfaffian_bruteforce(a) == pytest.approx(expected, rel=1e-14)


def test_empty_matrix():
    a = SkewMatrix("real", np.zeros((0, 0)))
    assert pfaffian(a) == 1.0
    assert pfaffian_bruteforce(a) == 1.0


def test_odd_order_rejected():
    a = SkewMatrix("real", np.zeros((3, 3)))
    with pytest.raises(ValueError):
        pfaffian(a)


def test_fast_equals_bruteforce_and_det():
    rng = np.random.default_rng(10)
    for n in (4, 6, 8, 10, 12):
        for complex_ in (False, True):
            a = random_skew(rng, n, complex_)
            fast = pfaffian(a)
            brute = pfaffian_bruteforce(a)
            assert abs(fast - brute) <= 1e-10 * max(1.0, abs(brute))
            det = np.linalg.det(a.data)
            assert abs(fast ** 2 - det) <= 1e-8 * max(1.0, abs(det))


def test_transposition_flips_sign():
    rng = np.random.default_rng(11)
    a = random_skew(rng, 8)
    i, j = 2, 5
    perm = list(range(8))
    perm[i], perm[j] = perm[j], perm[i]
    swapped = SkewMatrix("real", a.data[np.ix_(perm, perm)])
    assert pfaffian(swapped) == pytest.approx(-pfaffian(a), rel=1e-10)


def test_singular_matrix_gives_zero():
    a = skew_from_upper(4, {(0, 1): 1.0})  # rows 2,3 vanish
    assert pfaffian(a) == 0.0


def test_submatrix_cases():
    rng = np.random.default_rng(12)
    a = random_skew(rng, 8)
    full = submatrix(a, range(8))
    assert np.allclose(full.data, a.data)
    empty = submatrix(a, [])
    assert pfaffian(empty) == 1.0
    two = submatrix(a, [2, 6])
    assert pfaffian(two) == pytest.approx(a.data[2, 6])


def test_derived_matrix_against_direct_pfaffians():
    rng = np.random.default_rng(13)
    a = random_skew(rng, 8)
    k = [1, 2, 5, 6]
    b = derived_matrix(a, k)
    comp = [i for i in range(8) if i not in k]
    for p in range(len(comp)):
        for q in range(p + 1, len(comp)):
            direct = pfaffian_bruteforce(submatrix(a, sorted(k + [comp[p], comp[q]])))
            assert b.data[p, q] == pytest.approx(direct, rel=1e-9)
    assert np.allclose(derived_matrix(a, []).data, a.data)
    assert derived_matrix(a, list(range(8))).order == 0


def test_reduction_formula():
    rng = np.random.default_rng(14)
    cases = [(4, [0, 1]), (8, [0, 3]), (8, [1, 2, 5, 6]), (10, [0, 2, 5, 7])]
    for order, k in cases:
        for _ in range(5):
            a = random_skew(rng, order)
            pf_k, comp = reduce(a, k)
            n, p = order // 2, len(k) // 2
            lhs = pfaffian(a)
            rhs = pf_k ** (-(n - p - 1)) * pfaffian(comp)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_reduction_exponent_zero_case():
    rng = np.random.default_rng(15)
    a = random_skew(rng, 4)
    pf_k, comp = reduce(a, [0, 1])  # n=2, p=1: exponent 0
    assert pfaffian(a) == pytest.approx(pfaffian(comp), rel=1e-10)


def test_reduction_singular_pivot_rejected():
    data = np.zeros((6, 6))
    data[2, 3] = 1.0
    data[3, 2] = -1.0
    data[4, 5] = 1.0
    data[5, 4] = -1.0
    a = SkewMatrix("real", data)
    with pytest.raises(ValueError, match="singular pivot"):
        reduce(a, [0, 1])


def test_multicomplex_embedding_of_real():
    rng = np.random.default_rng(16)
    m = rng.normal(size=(6, 6))
    m = m - m.T
    data = np.zeros((6, 6, 4))
    data[:, :, 0] = m
    a = SkewMatrix("multicomplex", data, 2)
    v = pfaffian(a)
    assert isinstance(v, MulticomplexValue)
    assert v.real == pytest.approx(pfaffian(SkewMatrix("real", m)), rel=1e-10)
    assert np.max(np.abs(v.coeffs[1:])) < 1e-10


def test_multicomplex_bruteforce_agrees():
    rng = np.random.default_rng(17)
    data = np.zeros((4, 4, 2))
    for (i, j) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        vec = rng.normal(size=2)
        data[i, j] = vec
        data[j, i] = -vec
    a = SkewMatrix("multicomplex", data, 1)
    assert pfaffian(a).is_close(pfaffian_bruteforce(a), atol=1e-10)


def test_bruteforce_guard():
    a = SkewMatrix("real", np.zeros((18, 18)))
    with pytest.raises(ValueError, match="limited"):
        pfaffian_bruteforce(a)


def test_skew_validation():
    with pytest.raises(ValueError):
        SkewMatrix("real", np.ones((2, 2)))
    with pytest.raises(ValueError):
        SkewMatrix("bogus", np.zeros((2, 2)))
    exact = random_skew(np.random.default_rng(18), 6).data
    exact[0, 1] = exact[1, 0] = 0.0  # the tolerance there is atol=1e-12 alone
    assert np.array_equal(SkewMatrix("real", exact).data, exact)
    near = exact.copy()
    near[0, 1] += 1e-14  # not exactly skew, inside the tolerance
    assert SkewMatrix("real", near).data[0, 1] == near[0, 1]
    for bad in (1e-6, np.nan):
        off = exact.copy()
        off[0, 1] += bad
        with pytest.raises(ValueError, match="not skew-symmetric"):
            SkewMatrix("real", off)


def _dense_pfaffian(mat):
    """Parlett-Reid with the rank-2 update applied to the whole trailing
    block: the reference that the kernel must reproduce bit for bit."""
    a = np.array(mat, copy=True)
    n = a.shape[0]
    if n == 0:
        return 1.0
    pf = 1.0 + 0.0j if np.iscomplexobj(a) else 1.0
    sign = 1.0
    for k in range(0, n - 2, 2):
        p = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if a[p, k] == 0:
            return 0.0 * pf
        if p != k + 1:
            a[[k + 1, p], :] = a[[p, k + 1], :]
            a[:, [k + 1, p]] = a[:, [p, k + 1]]
            sign = -sign
        piv = a[k, k + 1]
        pf = pf * piv
        u = a[k, k + 2:]
        v = a[k + 1, k + 2:]
        a[k + 2:, k + 2:] -= (np.outer(u, v) - np.outer(v, u)) / piv
    return sign * (pf * a[n - 2, n - 1])


def _sparse_skew(rng, n, density, complex_):
    """Skew matrix with about ``density`` of its entries nonzero, magnitudes
    spread over e**-14 .. e**14, and in about one draw in ten a zero row and
    column."""
    m = rng.normal(size=(n, n)) * np.exp(rng.uniform(-14, 14, (n, n)))
    if complex_:
        m = m + 1j * rng.normal(size=(n, n)) * np.exp(rng.uniform(-14, 14, (n, n)))
    m = np.triu(m * (rng.random((n, n)) < density), 1)
    m = m - m.T
    if rng.random() < 0.1:
        z = rng.integers(n)
        m[z, :] = 0
        m[:, z] = 0
    return m


def _assert_kernel_identical(m):
    got, want = _pfaffian_field(m), _dense_pfaffian(m)
    assert got == want, (got, want)


def test_kernel_identical_to_dense_update_on_random_matrices():
    rng = np.random.default_rng(19)
    for _ in range(300):
        n = 2 * int(rng.integers(1, 41))
        density = rng.choice([0.02, 0.05, 0.1, 0.3, 0.6, 1.0])
        _assert_kernel_identical(_sparse_skew(rng, n, density, rng.random() < 0.5))


def test_kernel_identical_to_dense_update_on_dart_matrices():
    solver = PlanarPfaffianSolver(*_grid_graph(8, 8))
    rng = np.random.default_rng(20)
    wt = rng.uniform(0.05, 0.95, solver.host.num_edges)
    d, m0 = solver.inc.dart_graph, solver.inc.reference_matching
    _assert_kernel_identical(weighted_matrix(solver.entries, d, m0, wt).data)

    fx = torus_grid(4)
    torus = NonplanarSolver(fx.graph, fx.alt_schemes["even-crosscaps"])
    wt = rng.uniform(0.05, 0.95, torus.host.num_edges)
    d, m0 = torus.inc.dart_graph, torus.inc.reference_matching
    a = weighted_matrix(torus.entries, d, m0, wt)
    images = np.moveaxis(a.data @ half_character_table(a.n_generators), 2, 0)
    assert len(images) == 4 and not images.imag.any()
    for image in images.real:
        _assert_kernel_identical(image)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(6))))
def test_matching_sign_matches_permutation_parity(seq):
    # pairing (seq0,seq1)(seq2,seq3)(seq4,seq5) has the parity of seq
    pairs = [(seq[0], seq[1]), (seq[2], seq[3]), (seq[4], seq[5])]
    inversions = sum(
        1 for i in range(6) for j in range(i + 1, 6) if seq[i] > seq[j]
    )
    canonical = matching_sign(pairs, range(6))
    # canonical ordering differs from seq by sorting pairs and within pairs,
    # each swap flipping parity; reproduce it directly
    flat = []
    for lo, hi in sorted((min(p), max(p)) for p in pairs):
        flat.extend((lo, hi))
    inv2 = sum(1 for i in range(6) for j in range(i + 1, 6) if flat[i] > flat[j])
    assert canonical == (-1) ** inv2
