"""Skew-symmetric matrices over real, complex or multicomplex scalars.

Pfaffian evaluation uses Parlett-Reid style skew elimination with partial
pivoting for the field cases.  Each rank-2 update touches only the rows and
columns S_k where the two pivot rows are nonzero, so a sparse dart matrix
costs O(sum_k |S_k|**2) plus O(n) per step, on dense n x n storage.
Multicomplex matrices are handled through the 2**n characters of C_n: each
character is a ring homomorphism, the Pfaffian is a polynomial in the
entries, so the Pfaffian of the image is the image of the Pfaffian and the
coefficients are recovered by the inverse transform.
(Direct elimination inside C_n would be unsafe: the algebra has zero
divisors.)  The coefficients are real, so characters h and -h give complex
conjugate images and :func:`character_pfaffians` eliminates only the 2**(n-1)
characters sending i_1 -> +i; every multicomplex route is derived from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .multicomplex import (
    MulticomplexValue,
    all_characters,
    half_character_table,
    value_from_character_images,
)

REAL = "real"
COMPLEX = "complex"
MULTICOMPLEX = "multicomplex"

BRUTEFORCE_MAX_ORDER = 16
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class SkewMatrix:
    """Skew-symmetric matrix with a declared scalar ring.

    data layout: (order, order) for real/complex rings, and
    (order, order, 2**n_generators) real coefficients for the multicomplex
    ring (last axis indexed by generator-subset bitmask).
    """

    ring: str
    data: np.ndarray
    n_generators: int = 0

    def __post_init__(self):
        if self.ring not in (REAL, COMPLEX, MULTICOMPLEX):
            raise ValueError(f"unknown ring {self.ring!r}")
        d = np.asarray(self.data)
        if self.ring == REAL:
            d = d.astype(np.float64)
            expected_ndim = 2
        elif self.ring == COMPLEX:
            d = d.astype(np.complex128)
            expected_ndim = 2
        else:
            d = d.astype(np.float64)
            expected_ndim = 3
        if d.ndim != expected_ndim or d.shape[0] != d.shape[1]:
            raise ValueError("bad matrix shape")
        if self.ring == MULTICOMPLEX and d.shape[2] != (1 << self.n_generators):
            raise ValueError("coefficient axis does not match generator count")
        # Exact skewness, the common case, is cheaper to test and implies
        # the tolerant test, so the accepted set is that of allclose alone.
        neg_t = -np.swapaxes(d, 0, 1)
        if not np.array_equal(d, neg_t) and not np.allclose(d, neg_t, atol=1e-12):
            raise ValueError("matrix is not skew-symmetric")
        object.__setattr__(self, "data", d)

    @property
    def order(self) -> int:
        return self.data.shape[0]

    def scale_abs(self) -> float:
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0

    def character_image(self, char) -> "SkewMatrix":
        """Complex matrix obtained by applying one character entrywise."""
        if self.ring != MULTICOMPLEX:
            raise ValueError("character images only apply to multicomplex matrices")
        vec = char.vector()
        return SkewMatrix(COMPLEX, self.data @ vec)


def skew_from_pairs(ring: str, order: int, pairs, values, n_generators: int = 0) -> SkewMatrix:
    """Skew matrix with ``values[k]`` at ``pairs[k] = (i, j)`` and its negative at (j, i).

    ``values`` has shape (P,) for the real and complex rings and
    (P, 2**n_generators) for the multicomplex ring; every other entry is zero.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    tail = (1 << n_generators,) if ring == MULTICOMPLEX else ()
    dtype = np.complex128 if ring == COMPLEX else np.float64
    values = np.asarray(values, dtype=dtype).reshape((len(pairs),) + tail)
    data = np.zeros((order, order) + tail, dtype=dtype)
    data[pairs[:, 0], pairs[:, 1]] = values
    data[pairs[:, 1], pairs[:, 0]] = -values
    return SkewMatrix(ring, data, n_generators)


def entry_ring(entries: np.ndarray) -> tuple[str, int]:
    """(ring, n_generators) of values laid out as for :func:`skew_from_pairs`:
    (P,) real or complex, or (P, 2**n) coefficients in C_n."""
    if entries.ndim == 2:
        return MULTICOMPLEX, entries.shape[1].bit_length() - 1
    return (COMPLEX if np.iscomplexobj(entries) else REAL), 0


def skew_from_upper(order: int, entries: dict, ring: str = REAL, n_generators: int = 0) -> SkewMatrix:
    """Build a SkewMatrix from upper-triangular entries {(i, j): value}, i < j."""
    if any(not i < j for i, j in entries):
        raise ValueError("upper-triangular entries require i < j")
    values = [v.coeffs if isinstance(v, MulticomplexValue) else v for v in entries.values()]
    return skew_from_pairs(ring, order, list(entries), values, n_generators)


def _pfaffian_field(mat: np.ndarray) -> complex:
    """Parlett-Reid skew tridiagonalization with partial pivoting.

    Repeatedly pivots the largest entry of the working column into position
    (k, k+1), multiplies it into the result and applies the rank-2 Schur
    update  A <- A - (u v^T - v u^T)/a  on the trailing block.  The update
    is restricted to S_k x S_k, where S_k is the support of the pivot rows u
    and v: every entry left out would have had a zero subtracted from it,
    so the result is the same floating-point number as with the full
    update (a zero may differ in sign).  The cost is O(sum_k |S_k|**2) plus
    O(n) per step for the pivot search and swap, on n x n storage; O(n**3)
    for a dense matrix.  A pivot column that is exactly zero makes the
    Pfaffian exactly zero; a merely small pivot is still the largest
    available and is eliminated.
    """
    a = np.array(mat, copy=True)
    n = a.shape[0]
    if n % 2:
        raise ValueError("Pfaffian needs even order")
    if n == 0:
        return 1.0
    pf = 1.0 + 0.0j if np.iscomplexobj(a) else 1.0
    sign = 1.0
    for k in range(0, n - 2, 2):
        col = np.abs(a[k + 1:, k])
        p = k + 1 + int(np.argmax(col))
        if a[p, k] == 0:
            return 0.0 * pf
        if p != k + 1:
            a[[k + 1, p], :] = a[[p, k + 1], :]
            a[:, [k + 1, p]] = a[:, [p, k + 1]]
            sign = -sign
        piv = a[k, k + 1]
        pf = pf * piv
        rows = k + 2 + np.flatnonzero(np.logical_or(a[k, k + 2:], a[k + 1, k + 2:]))
        u, v = a[k, rows], a[k + 1, rows]
        a[rows[:, None], rows] -= (u[:, None] * v - v[:, None] * u) / piv
    pf = pf * a[n - 2, n - 1]
    return sign * pf


def pfaffian(a: SkewMatrix):
    """Pfaffian of ``a`` in its scalar ring."""
    if a.order % 2:
        raise ValueError("Pfaffian needs even order")
    if a.ring == REAL:
        return float(np.real(_pfaffian_field(a.data)))
    if a.ring == COMPLEX:
        return complex(_pfaffian_field(a.data))
    if a.n_generators == 0:
        return MulticomplexValue(0, [_pfaffian_field(a.data[:, :, 0])])
    half = character_pfaffians(a)
    return value_from_character_images(
        np.concatenate([half, np.conj(half[::-1])]), a.n_generators
    )


def character_pfaffians(a: SkewMatrix) -> np.ndarray:
    """Pf(H_h(a)) for the 2**(n-1) characters h of C_n sending i_1 -> +i.

    Ordered as the first half of ``all_characters(n)``; the character at
    index 2**n - 1 - j gives the complex conjugate of entry j.  When every
    entry lies in the even subalgebra the images are real (odd monomials
    carry no data) and so are the eliminations.
    """
    images = np.moveaxis(a.data @ half_character_table(a.n_generators), 2, 0)
    if not images.imag.any():
        images = images.real
    return np.array([_pfaffian_field(m) for m in images])


def matching_sign(pairs, indices) -> int:
    """Sign of a perfect matching of ``indices`` written canonically.

    The canonical representative sorts pairs by their lower element, writes
    each pair (lower, higher) and takes the parity of the permutation sending
    the sorted index sequence to the flattened pair sequence.
    """
    order = {idx: pos for pos, idx in enumerate(sorted(indices))}
    seq = []
    for lo, hi in sorted((min(p), max(p)) for p in pairs):
        seq.append(order[lo])
        seq.append(order[hi])
    return permutation_sign(seq)


def permutation_sign(perm) -> int:
    """Sign of a permutation of range(len(perm)): (-1)**(n - number of cycles)."""
    n = len(perm)
    seen = [False] * n
    cycles = 0
    for start in range(n):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return -1 if (n - cycles) % 2 else 1


def _pfaffian_masked(mat: np.ndarray, mask: int, memo: dict):
    if mask == 0:
        return 1.0
    if mask in memo:
        return memo[mask]
    i = (mask & -mask).bit_length() - 1
    rest = mask ^ (1 << i)
    total = 0.0
    sign = 1.0
    r = rest
    while r:
        j = (r & -r).bit_length() - 1
        r ^= 1 << j
        aij = mat[i, j]
        if aij != 0.0:
            total += sign * aij * _pfaffian_masked(mat, rest ^ (1 << j), memo)
        sign = -sign
    memo[mask] = total
    return total


def pfaffian_bruteforce(a: SkewMatrix):
    """Pfaffian as the signed sum over perfect matchings of the index set.

    Independent oracle for :func:`pfaffian`; guarded to order <= 16.
    """
    n = a.order
    if n % 2:
        raise ValueError("Pfaffian needs even order")
    if n > BRUTEFORCE_MAX_ORDER:
        raise ValueError(f"brute-force Pfaffian limited to order {BRUTEFORCE_MAX_ORDER}")
    if a.ring == REAL:
        return float(_pfaffian_masked(a.data, (1 << n) - 1, {}))
    if a.ring == COMPLEX:
        return complex(_pfaffian_masked(a.data, (1 << n) - 1, {}))
    images = []
    for h in all_characters(a.n_generators):
        img = a.character_image(h)
        images.append(_pfaffian_masked(img.data, (1 << n) - 1, {}))
    return value_from_character_images(images, a.n_generators)


def submatrix(a: SkewMatrix, indices) -> SkewMatrix:
    """A_K: keep rows and columns in ``indices``, induced order."""
    idx = sorted(indices)
    if any(not 0 <= i < a.order for i in idx):
        raise ValueError("index out of bounds")
    return SkewMatrix(a.ring, a.data[np.ix_(idx, idx)], a.n_generators)


def derived_matrix(a: SkewMatrix, indices) -> SkewMatrix:
    """Matrix on the complementary index set with entries Pf(A_{K + {i, j}}).

    Skew-extended from the upper triangle in the induced order of the
    complement.
    """
    k = sorted(set(indices))
    if len(k) % 2:
        raise ValueError("index block must have even size")
    comp = [i for i in range(a.order) if i not in set(k)]
    pairs = list(combinations(range(len(comp)), 2))
    values = []
    for p, q in pairs:
        val = pfaffian(submatrix(a, sorted(k + [comp[p], comp[q]])))
        values.append(val.coeffs if a.ring == MULTICOMPLEX else val)
    return skew_from_pairs(a.ring, len(comp), pairs, values, a.n_generators)


def reduce(a: SkewMatrix, indices) -> tuple:
    """Pfaffian reduction step: returns (Pf(A_K), A on the complement).

    Guarantees Pf(A) = Pf(A_K)**-(n-p-1) * Pf(A_complement) whenever the pivot
    block is nonsingular (|K| = 2p, order = 2n, 0 < p < n).
    """
    k = sorted(set(indices))
    if len(k) % 2 or not 0 < len(k) < a.order:
        raise ValueError("need an even index block strictly inside the matrix")
    pf_k = pfaffian(submatrix(a, k))
    magnitude = pf_k.max_abs() if a.ring == MULTICOMPLEX else abs(pf_k)
    if magnitude < PIVOT_RTOL * max(1.0, a.scale_abs()):
        raise ValueError("singular pivot block")
    return pf_k, derived_matrix(a, k)
