"""Syndrome computation tests."""

import pytest

from repro.bch.decoder import BCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.bch.params import design_code
from repro.bch.reference import naive_syndromes
from repro.bch.syndrome import SyndromeCalculator, reduce_codeword
from repro.gf.poly2 import poly2_mod
from tests.conftest import flip_bits


class TestReduceCodeword:
    def test_matches_direct_mod(self, rng):
        minpoly = 0b10011  # degree 4 -> bit-serial fallback
        data = rng.bytes(16)
        value = int.from_bytes(data, "big")
        assert reduce_codeword(data, minpoly) == poly2_mod(value << 4, minpoly)

    def test_table_path_matches_direct_mod(self, rng):
        minpoly = 0b10001000000001011  # degree 16 -> table path
        data = rng.bytes(64)
        value = int.from_bytes(data, "big")
        assert reduce_codeword(data, minpoly) == poly2_mod(value << 16, minpoly)


class TestSyndromes:
    def test_clean_codeword_all_zero(self, small_spec, rng):
        calc = SyndromeCalculator(small_spec)
        encoder = BCHEncoder(small_spec)
        codeword = encoder.encode_codeword(rng.bytes(small_spec.k // 8))
        syndromes = calc.syndromes(codeword)
        assert calc.all_zero(syndromes)

    def test_matches_naive_horner(self, small_spec, rng):
        calc = SyndromeCalculator(small_spec)
        encoder = BCHEncoder(small_spec)
        codeword = encoder.encode_codeword(rng.bytes(small_spec.k // 8))
        corrupted = flip_bits(codeword, [5, 17, 40])
        assert calc.syndromes(corrupted) == naive_syndromes(small_spec, corrupted)

    def test_matches_naive_medium(self, medium_spec, rng):
        calc = SyndromeCalculator(medium_spec)
        encoder = BCHEncoder(medium_spec)
        codeword = encoder.encode_codeword(rng.bytes(medium_spec.k // 8))
        corrupted = flip_bits(codeword, [0, 300, 999])
        assert calc.syndromes(corrupted) == naive_syndromes(medium_spec, corrupted)

    def test_even_syndromes_are_squares(self, medium_spec, rng):
        calc = SyndromeCalculator(medium_spec)
        encoder = BCHEncoder(medium_spec)
        codeword = flip_bits(
            encoder.encode_codeword(rng.bytes(medium_spec.k // 8)), [3, 77]
        )
        syndromes = calc.syndromes(codeword)
        field = medium_spec.field()
        for i in range(2, 2 * medium_spec.t + 1, 2):
            assert syndromes[i - 1] == field.mul(
                syndromes[i // 2 - 1], syndromes[i // 2 - 1]
            )

    def test_syndromes_depend_only_on_error_pattern(self, small_spec, rng):
        calc = SyndromeCalculator(small_spec)
        encoder = BCHEncoder(small_spec)
        positions = [2, 33, 64]
        words = [
            flip_bits(encoder.encode_codeword(rng.bytes(small_spec.k // 8)), positions)
            for _ in range(2)
        ]
        assert calc.syndromes(words[0]) == calc.syndromes(words[1])
        assert calc.syndromes(words[0]) == calc.syndromes_of_error_positions(positions)

    def test_single_bit_error_syndrome_structure(self, small_spec):
        calc = SyndromeCalculator(small_spec)
        field = small_spec.field()
        pos = 10
        exponent = small_spec.n_stored - 1 - pos
        syndromes = calc.syndromes_of_error_positions([pos])
        for i in range(1, 2 * small_spec.t + 1):
            assert syndromes[i - 1] == field.alpha_pow(i * exponent)


class TestBatchSyndromes:
    def test_generator_multiple_in_parity_tail_is_clean(self):
        """A parity difference D = g(x) * x^j (j < pad) is nonzero yet
        every syndrome vanishes: the batch path must report all zeros,
        like the byte-serial reference, not just ``D != 0``."""
        spec = design_code(1000, 1)
        assert spec.pad_bits > 0
        codeword = BCHEncoder(spec).encode_codeword(bytes(spec.k // 8))
        tail_end = spec.n_stored - 1  # stream bit of x^0
        positions = [
            tail_end - e for e in range(spec.r + 1) if spec.generator >> e & 1
        ]
        word = flip_bits(codeword, positions)
        assert word != codeword
        calc = SyndromeCalculator(spec)
        assert calc.syndromes(word) == [0] * (2 * spec.t)
        assert calc.syndromes_batch([word, codeword]).tolist() == [
            [0] * (2 * spec.t)
        ] * 2
        result = BCHDecoder(spec).decode(word)
        assert result.early_exit and result.data == word[: spec.k // 8]

    def test_short_parity_codes_take_the_byte_serial_path(self, rng):
        spec = design_code(8, 1)
        assert spec.r < 8
        calc = SyndromeCalculator(spec)
        words = [rng.bytes(spec.k // 8 + spec.parity_bytes) for _ in range(4)]
        assert calc.syndromes_batch(words).tolist() == [
            calc.syndromes(word) for word in words
        ]
