"""Commutative multicomplex algebra on n generators i_1..i_n with i_k**2 = -1.

An element is stored as a dense vector of 2**n real coefficients indexed by
subset bitmask S (bit k-1 <-> generator i_k):

    x = sum_S coeffs[S] * prod_{k in S} i_k

Basis products follow (prod_{k in S} i_k)(prod_{k in T} i_k)
= (-1)**|S & T| * prod_{k in S ^ T} i_k, which makes the algebra commutative
and associative with unit at the empty subset.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

MAX_GENERATORS = 8


def _bit_count(arr) -> np.ndarray:
    return np.bitwise_count(np.asarray(arr, dtype=np.uint64)).astype(np.int64)


@lru_cache(maxsize=None)
def _product_tables(n: int):
    """(sign, target) tables for basis-element products in C_n."""
    size = 1 << n
    s = np.arange(size)
    inter = s[:, None] & s[None, :]
    signs = np.where(_bit_count(inter) % 2 == 1, -1.0, 1.0)
    target = (s[:, None] ^ s[None, :]).astype(np.intp)
    return signs, target


@dataclass(frozen=True)
class MulticomplexValue:
    """Element of the multicomplex algebra C_n."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not 0 <= self.n <= MAX_GENERATORS:
            raise ValueError(f"generator count {self.n} outside [0, {MAX_GENERATORS}]")
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.shape != (1 << self.n,):
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def zero(n: int) -> "MulticomplexValue":
        return MulticomplexValue(n, np.zeros(1 << n))

    @staticmethod
    def from_real(n: int, value: float) -> "MulticomplexValue":
        c = np.zeros(1 << n)
        c[0] = value
        return MulticomplexValue(n, c)

    @staticmethod
    def monomial(n: int, subset: int, coeff: float = 1.0) -> "MulticomplexValue":
        """coeff * prod_{k in subset} i_k, subset given as bitmask."""
        if subset >> n:
            raise ValueError("subset references generators beyond n")
        c = np.zeros(1 << n)
        c[subset] = coeff
        return MulticomplexValue(n, c)

    @staticmethod
    def generator(n: int, k: int) -> "MulticomplexValue":
        """The generator i_k, 1-based."""
        if not 1 <= k <= n:
            raise ValueError("generator index out of range")
        return MulticomplexValue.monomial(n, 1 << (k - 1))

    def _check(self, other: "MulticomplexValue"):
        if self.n != other.n:
            raise ValueError("mismatched generator counts")

    def __add__(self, other: "MulticomplexValue") -> "MulticomplexValue":
        self._check(other)
        return MulticomplexValue(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other: "MulticomplexValue") -> "MulticomplexValue":
        self._check(other)
        return MulticomplexValue(self.n, self.coeffs - other.coeffs)

    def __neg__(self) -> "MulticomplexValue":
        return MulticomplexValue(self.n, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return MulticomplexValue(self.n, self.coeffs * other)
        self._check(other)
        signs, target = _product_tables(self.n)
        out = np.zeros(1 << self.n)
        terms = signs * np.outer(self.coeffs, other.coeffs)
        np.add.at(out, target.ravel(), terms.ravel())
        return MulticomplexValue(self.n, out)

    __rmul__ = __mul__

    @property
    def real(self) -> float:
        """Real part: the empty-subset coefficient."""
        return float(self.coeffs[0])

    def scale(self, factor: float) -> "MulticomplexValue":
        return MulticomplexValue(self.n, self.coeffs * factor)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def is_close(self, other: "MulticomplexValue", atol: float = 1e-12) -> bool:
        self._check(other)
        return bool(np.allclose(self.coeffs, other.coeffs, atol=atol, rtol=0.0))


@dataclass(frozen=True)
class CharacterMap:
    """Ring homomorphism C_n -> C sending i_k to signs[k-1] * i."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +-1")

    @property
    def n(self) -> int:
        return len(self.signs)

    def vector(self) -> np.ndarray:
        """Complex image of every basis monomial, indexed by subset mask."""
        return _character_vector(self.signs)

    def apply(self, x: MulticomplexValue) -> complex:
        if x.n != self.n:
            raise ValueError("mismatched generator counts")
        return complex(x.coeffs @ self.vector())


@lru_cache(maxsize=None)
def _character_vector(signs: tuple[int, ...]) -> np.ndarray:
    n = len(signs)
    size = 1 << n
    out = np.empty(size, dtype=np.complex128)
    for mask in range(size):
        val = 1.0 + 0.0j
        for k in range(n):
            if mask >> k & 1:
                val *= signs[k] * 1j
        out[mask] = val
    return out


def all_characters(n: int) -> list[CharacterMap]:
    """The 2**n distinct characters of C_n.

    The first half sends i_1 -> +i.  The character -h of the one at index j
    sits at index 2**n - 1 - j, and on real coefficients H_{-h} = conj(H_h).
    """
    return [CharacterMap(signs) for signs in product((1, -1), repeat=n)]


@lru_cache(maxsize=None)
def half_character_table(n: int) -> np.ndarray:
    """(2**n, 2**(n-1)) table whose column j is ``all_characters(n)[j].vector()``.

    The columns are the characters sending i_1 -> +i; ``coeffs @ table``
    gives their images of one element, ``data @ table`` of a whole matrix.
    """
    return np.stack([h.vector() for h in all_characters(n)[: 1 << (n - 1)]], axis=1)


@lru_cache(maxsize=None)
def _inverse_character_table(n: int) -> np.ndarray:
    """Row S: (-i)**|S| * prod_{k in S} h_k / 2**n over the characters h."""
    signs = np.array([h.signs for h in all_characters(n)]).reshape(1 << n, n)
    subsets = np.arange(1 << n)
    in_subset = (subsets[:, None] >> np.arange(n)) & 1
    table = np.prod(np.where(in_subset[:, None, :], signs[None, :, :], 1), axis=2)
    return table * ((-1j) ** _bit_count(subsets))[:, None] / (1 << n)


def value_from_character_images(images, n: int, imag_tol: float = 1e-8) -> MulticomplexValue:
    """Reconstruct x in C_n from its images under all 2**n characters.

    Valid because each character is a ring homomorphism and the characters
    separate basis monomials:  sum_h (prod_{k in S} h_k) H(mu_T) equals
    2**n * i**|S| only when T == S.
    """
    vals = np.asarray(list(images), dtype=np.complex128)
    if vals.shape != (1 << n,):
        raise ValueError("expected one image per character")
    coeffs = _inverse_character_table(n) @ vals
    scale_ref = max(1.0, float(np.max(np.abs(vals))))
    if np.any(np.abs(coeffs.imag) > imag_tol * scale_ref):
        raise ValueError("character images inconsistent with a C_n element")
    return MulticomplexValue(n, coeffs.real)
