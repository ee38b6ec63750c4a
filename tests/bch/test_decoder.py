"""Full decoder pipeline tests."""

from math import gcd

import pytest

from repro.bch.decoder import BCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.errors import DecodingFailure
from tests.conftest import flip_bits


class TestDecoder:
    def test_clean_word_early_exit(self, small_spec, rng):
        encoder, decoder = BCHEncoder(small_spec), BCHDecoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        result = decoder.decode(encoder.encode_codeword(message))
        assert result.early_exit
        assert result.corrected_bits == 0
        assert result.data == message

    @pytest.mark.parametrize("n_errors", [1, 2, 3])
    def test_corrects_up_to_t(self, small_spec, rng, n_errors):
        encoder, decoder = BCHEncoder(small_spec), BCHDecoder(small_spec)
        for _ in range(5):
            message = rng.bytes(small_spec.k // 8)
            codeword = encoder.encode_codeword(message)
            positions = sorted(
                rng.choice(small_spec.n_stored, n_errors, replace=False).tolist()
            )
            result = decoder.decode(flip_bits(codeword, positions))
            assert result.data == message
            assert result.corrected_bits == n_errors
            assert list(result.error_positions) == positions

    def test_errors_in_parity_only(self, small_spec, rng):
        encoder, decoder = BCHEncoder(small_spec), BCHDecoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        codeword = encoder.encode_codeword(message)
        parity_positions = [small_spec.k + 1, small_spec.k + 9]
        result = decoder.decode(flip_bits(codeword, parity_positions))
        assert result.data == message
        assert result.corrected_bits == 2

    def test_overload_raises_in_strict_mode(self, small_spec, rng):
        encoder, decoder = BCHEncoder(small_spec), BCHDecoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        codeword = encoder.encode_codeword(message)
        failures = 0
        for trial in range(8):
            positions = (
                rng.choice(small_spec.n_stored, small_spec.t + 2, replace=False)
                .tolist()
            )
            try:
                result = decoder.decode(flip_bits(codeword, positions))
            except DecodingFailure:
                failures += 1
            else:
                # Miscorrection is possible beyond t, but the corrected word
                # must then be a *different* valid codeword, not the original.
                assert result.data != message
        assert failures >= 1

    def test_permissive_mode_returns_failure(self, small_spec, rng):
        encoder, decoder = BCHEncoder(small_spec), BCHDecoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        codeword = encoder.encode_codeword(message)
        # Collect one genuine failure (retrying patterns until detection).
        for trial in range(20):
            positions = rng.choice(
                small_spec.n_stored, small_spec.t + 2, replace=False
            ).tolist()
            try:
                decoder.decode(flip_bits(codeword, positions))
            except DecodingFailure:
                result = decoder.decode(flip_bits(codeword, positions), strict=False)
                assert not result.success
                assert result.corrected_bits == 0
                return
        pytest.skip("no detectable overload pattern found (extremely unlikely)")

    def test_wrong_length_rejected(self, small_spec):
        decoder = BCHDecoder(small_spec)
        with pytest.raises(ValueError):
            decoder.decode(bytes(3))

    def test_stats_accumulate(self, small_spec, rng):
        encoder, decoder = BCHEncoder(small_spec), BCHDecoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        codeword = encoder.encode_codeword(message)
        decoder.decode(codeword)
        decoder.decode(flip_bits(codeword, [4, 40]))
        stats = decoder.stats
        assert stats.words_decoded == 2
        assert stats.words_clean == 1
        assert stats.bits_corrected == 2
        assert stats.max_errors_in_word == 2
        assert stats.observed_rber > 0

    def test_page_code_full_capability(self, rng):
        from repro.bch.params import design_code

        spec = design_code(32768, 12)
        encoder, decoder = BCHEncoder(spec), BCHDecoder(spec)
        message = rng.bytes(4096)
        codeword = encoder.encode_codeword(message)
        positions = rng.choice(spec.n_stored, 12, replace=False).tolist()
        result = decoder.decode(flip_bits(codeword, positions))
        assert result.data == message
        assert result.corrected_bits == 12


class TestSharedTables:
    def test_decoders_share_tables_until_cache_clear(self, page_spec, rng):
        from repro.bch import chien, syndrome

        codeword = BCHEncoder(page_spec).encode_codeword(rng.bytes(4096))
        word = flip_bits(codeword, [3, 5000, 32800])
        first, second = BCHDecoder(page_spec), BCHDecoder(page_spec)
        assert first.decode(word).error_positions == (3, 5000, 32800)
        field = page_spec.field()
        tables = [chien._decimated_low_bytes(field, i) for i in (1, 2, 3)]
        tail = syndrome._tail_powers(page_spec)
        misses = (chien._decimated_low_bytes.cache_info().misses,
                  syndrome._tail_powers.cache_info().misses)
        assert second.decode(word).error_positions == (3, 5000, 32800)
        assert (chien._decimated_low_bytes.cache_info().misses,
                syndrome._tail_powers.cache_info().misses) == misses
        order = field.order  # 2^16 - 1 = 3 * 5 * 17 * 257: degree 3 has g = 3
        for degree, table in enumerate(tables, 1):
            g = gcd(degree, order)
            assert table.shape == (g, order // g)
            assert not table.flags.writeable
        assert tail.shape == (8 * page_spec.parity_bytes, page_spec.t)
        assert not tail.flags.writeable

        chien._decimated_low_bytes.cache_clear()
        syndrome._tail_powers.cache_clear()
        assert chien._decimated_low_bytes.cache_info().currsize == 0
        assert syndrome._tail_powers.cache_info().currsize == 0
        assert second.decode(word).error_positions == (3, 5000, 32800)
        assert chien._decimated_low_bytes(field, 3) is not tables[2]
        assert syndrome._tail_powers(page_spec) is not tail
