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
from repro.bch.chien import ChienSearch
from repro.bch.decoder import BCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.bch.params import design_code
from repro.bch.syndrome import SyndromeCalculator
from repro.gf.polygf import GFPoly
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
    """The t-step Berlekamp-Massey and the decimated Chien screen decode
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


#: Message sizes whose designed fields have orders with small factors,
#: so gcd(degree, order) > 1 and the screen's rows wrap: k = 32 gives
#: m = 6 (63 = 3^2 * 7) at t <= 4, k = 128 gives m = 8 (255 = 3 * 5 * 17),
#: k = 1024 gives m = 11 (2047 = 23 * 89), k = 2048 gives m = 12
#: (4095 = 3^2 * 5 * 7 * 13) and k = 32768 gives m = 16 (3 * 5 * 17 * 257).
_SMALL_FACTOR_KS = [32, 128, 1024, 2048, 32768]


def _normalised(field, locator):
    """The frozen iBM's locator divided by its lambda(0)."""
    scale = field.inv(locator.coeff(0))
    return [field.mul(c, scale) for c in locator.coeffs]


class TestDecimatedChienProperty:
    """The contiguous screen over per-degree decimated tables finds the
    same roots as the frozen gather screen for locator degrees 1..t+3
    (failing words included): a locator with exactly that many roots at
    stored positions, where both find every one, and a locator with
    random coefficients."""

    @given(
        k=st.sampled_from(_SMALL_FACTOR_KS),
        t=st.integers(min_value=1, max_value=65),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_positions_match_frozen_screen(self, k, t, seed):
        spec = design_code(k, t)
        field = spec.field()
        n = spec.n_stored
        live, frozen = ChienSearch(spec), LegacyChienSearch(spec)
        rng = np.random.default_rng(seed)
        for degree in rng.choice(range(1, t + 4), size=min(4, t + 3),
                                 replace=False).tolist():
            positions = sorted(
                rng.choice(n, size=degree, replace=False).tolist()
            )
            rooted = GFPoly.from_roots(
                field, [field.alpha_pow(p + 1 - n) for p in positions]
            )
            assert live.error_positions(rooted) == positions
            assert frozen.error_positions(rooted) == positions
            coeffs = rng.integers(0, field.q, degree + 1).tolist()
            coeffs[-1] = int(rng.integers(1, field.q))
            scrambled = GFPoly(field, coeffs)
            assert (live.error_positions(scrambled)
                    == frozen.error_positions(scrambled))


class TestBerlekampSmallFieldProperty:
    """berlekamp_massey equals the frozen 2t-step iBM once both locators
    are normalised to lambda(0) = 1, for error weights 0..t+3.  At small
    m, zero discrepancies before the locator is final are common, so the
    recursion's pending x^2 shifts of b(x) are exercised."""

    @given(
        k=st.sampled_from(_SMALL_FACTOR_KS),
        t=st.integers(min_value=1, max_value=65),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_locator_matches_frozen_ibm(self, k, t, seed):
        spec = design_code(k, t)
        field = spec.field()
        calc = SyndromeCalculator(spec)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            weight = int(rng.integers(0, t + 4))
            row = calc.syndromes_of_error_positions(
                rng.choice(spec.n_stored, size=weight, replace=False).tolist()
            )
            expected = _normalised(
                field, legacy_berlekamp_massey(field, row).error_locator
            )
            result = berlekamp_massey(field, row)
            assert result.error_locator.coeffs == expected
            assert result.degree == len(expected) - 1
            assert result.iterations == t

    def test_zero_discrepancies_then_nonzero_give_frozen_locator(self):
        # Five errors with S_1 = X1 + ... + X5 = 0 and S_3 = sum X^3 = 0:
        # pick X1..X3, then X4 + X5 = sigma and X4 X5 = pi solve both, with
        # sigma = X1 + X2 + X3 and pi = (X1^3 + X2^3 + X3^3 + sigma^3) / sigma.
        # Steps 0 and 2 then have zero discrepancy and step 4 has S_5.
        spec = design_code(1024, 8)
        field = spec.field()
        n = spec.n_stored
        for a in range(1, n):
            xs = [field.alpha_pow(j) for j in (0, a, 2 * a)]
            sigma = xs[0] ^ xs[1] ^ xs[2]
            cubes = [field.pow(x, 3) for x in xs] + [field.pow(sigma, 3)]
            pi = field.div(cubes[0] ^ cubes[1] ^ cubes[2] ^ cubes[3], sigma)
            roots = [z for z in range(1, field.q)
                     if field.mul(z, z) ^ field.mul(sigma, z) == pi]
            xs += roots
            logs = {int(field.log[x]) for x in xs}
            if len(logs) == 5 and max(logs) < n:
                break
        positions = sorted(n - 1 - j for j in logs)
        row = SyndromeCalculator(spec).syndromes_of_error_positions(positions)
        assert row[0] == row[2] == 0 and row[4] != 0

        # b(x) carries x^4 (two vanished steps) into step 4's update.
        result = berlekamp_massey(field, row)
        frozen = legacy_berlekamp_massey(field, row).error_locator
        assert result.error_locator.coeffs == _normalised(field, frozen)
        assert result.degree == 5 and result.iterations == spec.t
        assert (ChienSearch(spec).error_positions(result.error_locator)
                == positions)
