import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfising.multicomplex import (
    CharacterMap,
    MulticomplexValue,
    all_characters,
    even_subalgebra_embed,
    even_subalgebra_lift,
    value_from_character_images,
)


def mc(n, coeffs):
    return MulticomplexValue(n, np.asarray(coeffs, dtype=float))


def random_elements(n):
    return st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=1 << n, max_size=1 << n,
    ).map(lambda c: mc(n, c))


def test_generator_square():
    i1 = MulticomplexValue.generator(2, 1)
    assert (i1 * i1).is_close(MulticomplexValue.from_real(2, -1.0))


def test_conjugate_product():
    one = MulticomplexValue.from_real(1, 1.0)
    i1 = MulticomplexValue.generator(1, 1)
    assert ((one - i1) * (one + i1)).is_close(MulticomplexValue.from_real(1, 2.0))


def test_distinct_generators_multiply_to_monomial():
    i1 = MulticomplexValue.generator(2, 1)
    i2 = MulticomplexValue.generator(2, 2)
    assert (i1 * i2).is_close(MulticomplexValue.monomial(2, 0b11))


def test_real_part_examples():
    x = mc(2, [3.0, 2.0, 0.0, -5.0])  # 3 + 2 i1 - 5 i1 i2
    assert x.real == 3.0
    assert MulticomplexValue.generator(2, 1).real == 0.0


def test_real_part_of_projector_product():
    # (1 - i1)(1 - i2) has real part 1 for n = 2
    one = MulticomplexValue.from_real(2, 1.0)
    prod = (one - MulticomplexValue.generator(2, 1)) * (
        one - MulticomplexValue.generator(2, 2)
    )
    assert prod.real == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(random_elements(n), random_elements(n), random_elements(n))
))
def test_ring_axioms(xyz):
    x, y, z = xyz
    assert (x * y).is_close(y * x, atol=1e-12)
    assert ((x * y) * z).is_close(x * (y * z), atol=1e-9)
    assert (x * (y + z)).is_close(x * y + x * z, atol=1e-10)
    one = MulticomplexValue.from_real(x.n, 1.0)
    assert (x * one).is_close(x, atol=1e-12)


def test_character_count_and_distinct():
    for n in range(1, 5):
        chars = all_characters(n)
        assert len(chars) == 2 ** n
        images = {
            tuple(h.apply(MulticomplexValue.generator(n, k)) for k in range(1, n + 1))
            for h in chars
        }
        assert len(images) == 2 ** n


def test_characters_are_homomorphisms():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3):
        x = mc(n, rng.normal(size=1 << n))
        y = mc(n, rng.normal(size=1 << n))
        for h in all_characters(n):
            assert abs(h.apply(x * y) - h.apply(x) * h.apply(y)) < 1e-9


def test_character_on_reals_is_identity():
    for h in all_characters(3):
        assert h.apply(MulticomplexValue.from_real(3, 7.0)) == 7.0


def test_character_averaging_is_real_part():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            x = mc(n, rng.normal(size=1 << n))
            avg = sum(h.apply(x) for h in all_characters(n)) / 2 ** n
            assert abs(avg - x.real) < 1e-12


def test_character_inversion_round_trip():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        x = mc(n, rng.normal(size=1 << n))
        images = [h.apply(x) for h in all_characters(n)]
        assert value_from_character_images(images, n).is_close(x, atol=1e-10)
    with pytest.raises(ValueError, match="inconsistent"):
        value_from_character_images([1j, 1j], 1)


def test_even_subalgebra_basic():
    # i1 * i2 -> e1
    x = MulticomplexValue.monomial(3, 0b011)
    assert np.allclose(even_subalgebra_embed(x).coeffs, [0, 1, 0, 0])


def test_even_subalgebra_identity_with_sign():
    # i2 * i3 = -(i1 i2)(i1 i3) = -e1 e2
    x = MulticomplexValue.monomial(3, 0b110)
    assert np.allclose(even_subalgebra_embed(x).coeffs, [0, 0, 0, -1])


def test_even_subalgebra_rejects_odd():
    with pytest.raises(ValueError, match="even subalgebra"):
        even_subalgebra_embed(MulticomplexValue.generator(2, 1))


def test_even_subalgebra_round_trip_and_squares():
    rng = np.random.default_rng(3)
    n = 3
    coeffs = np.zeros(1 << n)
    for mask in range(1 << n):
        if bin(mask).count("1") % 2 == 0:
            coeffs[mask] = rng.normal()
    x = mc(n, coeffs)
    emb = even_subalgebra_embed(x)
    assert even_subalgebra_lift(emb).is_close(x, atol=1e-12)
    # e_k squares to one
    e1 = even_subalgebra_embed(MulticomplexValue.monomial(n, 0b011))
    sq = even_subalgebra_lift(e1) * even_subalgebra_lift(e1)
    assert sq.is_close(MulticomplexValue.from_real(n, 1.0))


def test_real_characters_multiplicative():
    rng = np.random.default_rng(4)
    n = 3
    def random_even():
        coeffs = np.zeros(1 << n)
        for mask in range(1 << n):
            if bin(mask).count("1") % 2 == 0:
                coeffs[mask] = rng.normal()
        return mc(n, coeffs)
    x, y = random_even(), random_even()
    for bits in range(1 << (n - 1)):
        signs = tuple(1 if bits >> j & 1 == 0 else -1 for j in range(n - 1))
        hx = even_subalgebra_embed(x).real_character(signs)
        hy = even_subalgebra_embed(y).real_character(signs)
        hxy = even_subalgebra_embed(x * y).real_character(signs)
        assert abs(hxy - hx * hy) < 1e-9


def test_character_map_validation():
    with pytest.raises(ValueError):
        CharacterMap((1, 0))
