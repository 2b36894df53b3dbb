"""Unit tests for the tag bitset helpers."""

import pytest

from repro.blocks.tags import (
    blocks_in as bits_of,
    dot as dot_product,
    hamming as hamming_distance,
    ones as bit_count,
    render as to_bitstring,
    tag_from_blocks as from_indices,
)


class TestBitset:
    def test_from_indices(self):
        assert from_indices([0, 3]) == 0b1001

    def test_from_indices_duplicates(self):
        assert from_indices([1, 1, 1]) == 0b10

    def test_from_indices_negative(self):
        with pytest.raises(ValueError):
            from_indices([-1])

    def test_bits_of(self):
        assert list(bits_of(0b1010)) == [1, 3]

    def test_bits_of_zero(self):
        assert list(bits_of(0)) == []

    def test_bits_of_negative(self):
        with pytest.raises(ValueError):
            list(bits_of(-1))

    def test_bit_count(self):
        assert bit_count(0b1011) == 3

    def test_bit_count_negative(self):
        with pytest.raises(ValueError):
            bit_count(-2)

    def test_dot_product(self):
        assert dot_product(0b110, 0b011) == 1

    def test_hamming(self):
        assert hamming_distance(0b110, 0b011) == 2

    def test_to_bitstring_d0_first(self):
        assert to_bitstring(0b1, 4) == "1000"

    def test_to_bitstring_width_too_small(self):
        with pytest.raises(ValueError):
            to_bitstring(0b10000, 4)
