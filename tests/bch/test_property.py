"""Property-based BCH round-trip tests (hypothesis)."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks._legacy_bm_chien import (
    LegacyChienSearch,
    legacy_berlekamp_massey,
)
from repro.bch import decoder as decoder_module
from repro.bch.berlekamp import berlekamp_massey
from repro.bch.decoder import BCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.bch.params import design_code
from tests.conftest import flip_bits

#: Shared small code: k = 64 bits, t = 3 (m = 7).
_SPEC = design_code(64, 3)
_ENCODER = BCHEncoder(_SPEC)
_DECODER = BCHDecoder(_SPEC)

messages = st.binary(min_size=8, max_size=8)
position_sets = st.sets(
    st.integers(min_value=0, max_value=_SPEC.n_stored - 1),
    min_size=0, max_size=_SPEC.t,
)


class TestRoundTripProperties:
    @given(message=messages, positions=position_sets)
    @settings(max_examples=250, deadline=None)
    def test_any_message_any_error_pattern_round_trips(self, message, positions):
        codeword = _ENCODER.encode_codeword(message)
        corrupted = flip_bits(codeword, sorted(positions))
        result = _DECODER.decode(corrupted)
        assert result.data == message
        assert result.corrected_bits == len(positions)
        assert set(result.error_positions) == positions

    @given(message=messages)
    @settings(max_examples=100, deadline=None)
    def test_every_codeword_is_valid(self, message):
        assert _ENCODER.is_codeword(_ENCODER.encode_codeword(message))

    @given(a=messages, b=messages)
    @settings(max_examples=100, deadline=None)
    def test_code_linearity(self, a, b):
        xor = bytes(x ^ y for x, y in zip(a, b))
        pa = _ENCODER.parity_int(a)
        pb = _ENCODER.parity_int(b)
        assert _ENCODER.parity_int(xor) == pa ^ pb

    @given(
        message=messages,
        position=st.integers(min_value=0, max_value=_SPEC.n_stored - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_error_never_escapes(self, message, position):
        codeword = _ENCODER.encode_codeword(message)
        corrupted = flip_bits(codeword, [position])
        assert not _ENCODER.is_codeword(corrupted)
        result = _DECODER.decode(corrupted)
        assert result.data == message


class TestMinimumDistanceProperty:
    @given(message=messages, positions=position_sets)
    @settings(max_examples=150, deadline=None)
    def test_corrupted_word_within_t_is_never_a_codeword(self, message, positions):
        if not positions:
            return
        codeword = _ENCODER.encode_codeword(message)
        corrupted = flip_bits(codeword, sorted(positions))
        # d_min >= 2t+1 > t, so no pattern of weight <= t maps a codeword
        # onto another codeword.
        assert not _ENCODER.is_codeword(corrupted)


class TestBatchEncodeProperty:
    """The lane-parallel batch encoder equals the scalar LFSR for every
    code shape: narrow (r < 64) and wide states, every lane count the
    batch size can derive, and message lengths that need front padding
    (k = 1000 bits is 125 bytes, not a multiple of any slice)."""

    @given(
        k=st.sampled_from([32768, 1024, 1000]),
        t=st.integers(min_value=1, max_value=65),
        batch=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_encode_batch_equals_scalar_encode(self, k, t, batch, seed):
        encoder = BCHEncoder(design_code(k, t))
        rng = np.random.default_rng(seed)
        messages = [rng.bytes(k // 8) for _ in range(batch)]
        assert encoder.encode_batch(messages) == [
            encoder.encode(message) for message in messages
        ]


class TestBatchSyndromeProperty:
    """The remainder-first batch syndromes equal the byte-serial reference
    row for row, for every code shape and error pattern: flips anywhere
    in the stored stream or only in the parity tail (m = 11 codes at
    k = 1000 and 1024 carry pad bits), weights 0..t+3, so words past the
    correction capability are covered too."""

    @given(
        k=st.sampled_from([32768, 1024, 1000]),
        t=st.integers(min_value=1, max_value=65),
        batch=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_syndromes_batch_equals_byte_serial(self, k, t, batch, seed):
        spec = design_code(k, t)
        encoder = BCHEncoder(spec)
        calc = BCHDecoder(spec).syndrome_calculator
        rng = np.random.default_rng(seed)
        words = []
        for message in (rng.bytes(k // 8) for _ in range(batch)):
            low = int(rng.choice([0, spec.k]))  # whole stream or parity tail
            weight = int(rng.integers(0, t + 4))
            positions = low + rng.choice(
                spec.n_stored - low, size=min(weight, spec.n_stored - low),
                replace=False,
            )
            words.append(
                flip_bits(encoder.encode_codeword(message), positions.tolist())
            )
        assert calc.syndromes_batch(words).tolist() == [
            calc.syndromes(word) for word in words
        ]


class TestDecodeBackEndProperty:
    """The t-step Berlekamp-Massey and the strided Chien screen decode
    exactly like the frozen 2t-step iBM and gather screen
    (``benchmarks/_legacy_bm_chien.py``) for every code shape and error
    weights 0..t+3, so overloaded words and their failure verdicts are
    covered too: same results and stats, the same locator once both are
    normalised to lambda(0) = 1, and the injected positions whenever the
    weight is within t."""

    @given(
        k=st.sampled_from([32768, 1024, 1000]),
        t=st.integers(min_value=1, max_value=65),
        batch=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_decode_matches_frozen_back_end(self, k, t, batch, seed):
        spec = design_code(k, t)
        encoder = BCHEncoder(spec)
        rng = np.random.default_rng(seed)
        injected, words = [], []
        for message in (rng.bytes(k // 8) for _ in range(batch)):
            weight = int(rng.integers(0, t + 4))
            positions = sorted(
                rng.choice(spec.n_stored, size=weight, replace=False).tolist()
            )
            injected.append(positions)
            words.append(flip_bits(encoder.encode_codeword(message), positions))

        live = BCHDecoder(spec)
        frozen = BCHDecoder(spec)
        frozen.chien = LegacyChienSearch(spec)
        with mock.patch.object(
            decoder_module, "berlekamp_massey", legacy_berlekamp_massey
        ):
            expected = frozen.decode_batch(words, strict=False)
        results = live.decode_batch(words, strict=False)
        assert results == expected
        assert live.stats == frozen.stats
        for positions, result in zip(injected, results):
            if len(positions) <= t:
                assert result.success
                assert result.error_positions == tuple(positions)

        field = spec.field()
        for row in live.syndrome_calculator.syndromes_batch(words).tolist():
            locator = berlekamp_massey(field, row).error_locator
            old = legacy_berlekamp_massey(field, row).error_locator
            scale = field.inv(old.coeff(0))
            assert locator.coeffs == [field.mul(c, scale) for c in old.coeffs]
            # Every root in range, so failure messages keep their count.
            assert (live.chien.error_positions(locator)
                    == frozen.chien.error_positions(old))
