"""Systematic BCH encoder tests."""

import pytest

from repro.bch.encoder import BCHEncoder
from repro.bch.params import design_code
from repro.bch.reference import BitSerialLFSREncoder
from repro.gf.poly2 import poly2_mod


class TestEncoder:
    def test_matches_bit_serial_reference(self, small_spec, rng):
        fast = BCHEncoder(small_spec)
        reference = BitSerialLFSREncoder(small_spec)
        for _ in range(10):
            message = rng.bytes(small_spec.k // 8)
            assert fast.encode_codeword(message) == reference.encode_codeword(message)

    def test_matches_reference_medium(self, medium_spec, rng):
        fast = BCHEncoder(medium_spec)
        reference = BitSerialLFSREncoder(medium_spec)
        message = rng.bytes(medium_spec.k // 8)
        assert fast.encode_codeword(message) == reference.encode_codeword(message)

    def test_codeword_is_multiple_of_generator(self, medium_spec, rng):
        encoder = BCHEncoder(medium_spec)
        message = rng.bytes(medium_spec.k // 8)
        codeword_int = int.from_bytes(encoder.encode_codeword(message), "big")
        # Stored stream = codeword * x^pad; divisibility by g is preserved.
        assert poly2_mod(codeword_int, medium_spec.generator) == 0

    def test_systematic_prefix(self, small_spec, rng):
        encoder = BCHEncoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        assert encoder.encode_codeword(message)[: len(message)] == message

    def test_zero_message_zero_parity(self, small_spec):
        encoder = BCHEncoder(small_spec)
        message = bytes(small_spec.k // 8)
        assert encoder.encode(message) == bytes(small_spec.parity_bytes)

    def test_linearity(self, small_spec, rng):
        encoder = BCHEncoder(small_spec)
        a = rng.bytes(small_spec.k // 8)
        b = rng.bytes(small_spec.k // 8)
        xor = bytes(x ^ y for x, y in zip(a, b))
        parity_xor = bytes(
            x ^ y for x, y in zip(encoder.encode(a), encoder.encode(b))
        )
        assert encoder.encode(xor) == parity_xor

    def test_is_codeword(self, small_spec, rng):
        encoder = BCHEncoder(small_spec)
        message = rng.bytes(small_spec.k // 8)
        codeword = bytearray(encoder.encode_codeword(message))
        assert encoder.is_codeword(bytes(codeword))
        codeword[0] ^= 0x01
        assert not encoder.is_codeword(bytes(codeword))

    def test_wrong_length_rejected(self, small_spec):
        encoder = BCHEncoder(small_spec)
        with pytest.raises(ValueError):
            encoder.encode(bytes(3))
        with pytest.raises(ValueError):
            encoder.is_codeword(bytes(5))

    def test_page_sized_encode(self, page_spec, rng):
        encoder = BCHEncoder(page_spec)
        message = rng.bytes(4096)
        codeword = encoder.encode_codeword(message)
        assert len(codeword) == 4096 + page_spec.parity_bytes
        assert encoder.is_codeword(codeword)


class TestSliceWidths:
    """Lane kernel shapes (slice width, lane count) vs the scalar path."""

    def test_slice_and_lane_derivation(self):
        from repro.bch import encoder as module
        from repro.bch.params import design_code

        assert module._slice_bytes(design_code(32768, 3)) == 8     # r = 48
        assert module._slice_bytes(design_code(32768, 6)) == 16    # r = 96
        narrow = BCHEncoder(design_code(32768, 6))
        assert [narrow._lanes(b) for b in (1, 16, 64, 1024)] == [64, 64, 16, 1]
        wide = BCHEncoder(design_code(32768, 65))    # r = 1040
        assert [wide._lanes(b) for b in (1, 16, 64)] == [16, 4, 1]
        # A 128-byte message cannot hold two lanes as long as its
        # 86-byte remainder: folding would cost more than splitting saves.
        assert BCHEncoder(design_code(1024, 65))._lanes(1) == 1

    @pytest.mark.parametrize(
        "k,t",
        [
            (32768, 8),    # r = 128: smallest wide-slice code
            (32768, 14),   # r = 224: the paper's ISPP-DV end-of-life point
            (1024, 8),     # r = 88: narrow 8-byte slicing retained
        ],
    )
    def test_batch_matches_scalar(self, k, t, rng):
        from repro.bch.params import design_code

        encoder = BCHEncoder(design_code(k, t))
        messages = [rng.bytes(k // 8) for _ in range(5)]
        assert encoder.encode_batch(messages) == [
            encoder.encode(message) for message in messages
        ]


class TestSharedTables:
    def test_codecs_share_tables_until_cache_clear(self):
        from repro.bch import encoder as module
        from repro.bch.codec import AdaptiveBCHCodec

        messages = [bytes(4096), bytes(range(256)) * 16]
        first, second = AdaptiveBCHCodec(), AdaptiveBCHCodec()
        first.encode_batch(messages, t=8)
        spec = first.spec_for(8)
        tables = module._slice_tables(spec)
        misses = module._slice_tables.cache_info().misses
        second.encode_batch(messages, t=8)
        assert module._slice_tables.cache_info().misses == misses
        assert module._slice_tables(spec) is tables
        assert first._encoder(8)._table is second._encoder(8)._table
        assert not tables.flags.writeable

        module._slice_tables.cache_clear()
        assert module._slice_tables.cache_info().currsize == 0
        assert module._slice_tables(spec) is not tables
