"""Systematic BCH encoder.

Computes the r parity bits as ``m(x) * x^r mod g(x)`` — exactly what the
paper's r-bit LFSR does.  Two datapaths share the same math:

* **Scalar** (:meth:`BCHEncoder.parity_int` / :meth:`encode`): a
  byte-at-a-time precomputed reduction table over a big-int LFSR state,
  kept as the cross-checked reference.
* **Lane-parallel word-sliced LFSR** (:meth:`BCHEncoder.encode_batch`):
  each message is split into ``L`` equal segments (*lanes*), and all
  ``B * L`` lanes of a batch advance in lockstep through a word-sliced
  LFSR.  The r-bit state of every lane lives in one ``(B*L, ceil(r/64))``
  uint64 array; each step absorbs a slice of S message bytes by folding
  the state's top S/8 words with the next message words and XOR-ing S
  256-entry reduction tables ``T_p[v] = v(x) * x^(r + 8*(S-1-p)) mod g``
  (S = 16 once the state spans two words, else 8).  The lane remainders
  are then combined pairwise in a log2(L) tree: by GF(2) linearity the
  remainder of ``hi || lo`` is ``rem(hi) * x^(8*len(lo)) + rem(lo)``
  (mod g), the remainder-combine step of zlib's ``crc32_combine``, and
  the multiply runs through one 16-entry table per remainder nibble.  A
  message whose length is not a multiple of ``L * S`` bytes is
  front-padded with zero bytes, which leave the remainder unchanged.

``L`` is derived from the batch size and the code: enough lanes to
amortise numpy's per-call cost, few enough that each step's table
gather stays cache-resident and the fold never outweighs the lane loop
(wide codes carry long remainders, so they take fewer lanes).  For
a 4 KiB page the kernel beats the scalar loop even for one message at
every t up to 65, so every batch, single pages included, runs it.

The reduction and fold tables depend only on the code, so they are
memoised per :class:`BCHCodeSpec` at module level and shared by every
encoder (every die's codec) in the process.  Each table is built by XOR
from its basis rows ``x^e mod g`` (8 per byte table, 4 per nibble
table), which come from one square-and-multiply exponentiation and then
shift-and-reduce steps.

Bit convention: the MSB of the first message byte is the highest-degree
coefficient; the codeword is ``message || parity``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.bch.params import BCHCodeSpec
from repro.errors import CodeDesignError
from repro.gf.poly2 import poly2_mod

#: uint64 words one lane step gathers from its tables (rows x slice
#: bytes x state words): 256 KiB, small enough to stay cache-resident,
#: large enough to amortise numpy's per-call cost.
_GATHER_WORDS = 1 << 15
#: Lane cap: beyond 64 lanes the extra fold levels cost more than the
#: shorter lane loop saves, at every r.
_MAX_LANES = 64


def _x_pow_mod(e: int, g: int) -> int:
    """``x^e mod g`` by left-to-right square-and-multiply.

    Squaring over GF(2) only spreads the coefficients (bit i -> bit 2i),
    so each square is a string interleave plus one reduction of a
    2r-bit polynomial; never a reduction of the e-bit ``x^e`` itself.
    """
    r = g.bit_length() - 1
    result = 1
    for bit in bin(e)[2:]:
        result = poly2_mod(int("0".join(bin(result)[2:]), 2), g)
        if bit == "1":
            result <<= 1
            if result >> r:
                result ^= g
    return result


def _shift_tables(
    spec: BCHCodeSpec, top: int, count: int, bits: int
) -> np.ndarray:
    """Reduction tables ``T_i[v] = v(x) * x^(top - bits*i) mod g``, v < 2^bits.

    Returns the ``count`` tables stacked as one read-only ``(count <<
    bits, ceil(r/64))`` uint64 array (row ``(i << bits) + v``).  Rows are
    left-aligned into the state words, word 0 holding the top 64 bits as
    a native integer.  Table i is linear in v, so it is the XOR-span of
    its basis rows ``x^(top - bits*i + b) mod g`` (b < bits); those
    ``bits * count`` rows are consecutive powers of x, each one
    shift-and-reduce from the last.
    """
    r, g = spec.r, spec.generator
    state_words = (r + 63) // 64
    align = 64 * state_words - r
    power = _x_pow_mod(top - bits * (count - 1), g)
    rows = []
    for _ in range(bits * count):
        rows.append((power << align).to_bytes(8 * state_words, "big"))
        power <<= 1
        if power >> r:
            power ^= g
    basis = (
        np.frombuffer(b"".join(rows), dtype=np.dtype(">u8"))
        .astype(np.uint64)
        .reshape(count, bits, state_words)[::-1]
    )
    tables = np.zeros((count, 1 << bits, state_words), dtype=np.uint64)
    for b in range(bits):
        np.bitwise_xor(
            tables[:, : 1 << b], basis[:, b, None], out=tables[:, 1 << b: 2 << b]
        )
    tables = tables.reshape(count << bits, state_words)
    tables.flags.writeable = False
    return tables


def _slice_bytes(spec: BCHCodeSpec) -> int:
    """Message bytes absorbed per lane step: a whole state word, or two
    once the state spans at least two words."""
    return 16 if spec.r > 64 else 8


@lru_cache(maxsize=None)
def _scalar_table(spec: BCHCodeSpec) -> tuple[int, ...]:
    """``table[v] = v(x) * x^r mod g`` for the scalar byte LFSR."""
    r, g = spec.r, spec.generator
    table = [0]
    power = g ^ (1 << r)  # x^r mod g
    for _ in range(8):
        table += [row ^ power for row in table]
        power <<= 1
        if power >> r:
            power ^= g
    return tuple(table)


@lru_cache(maxsize=None)
def _slice_tables(spec: BCHCodeSpec) -> np.ndarray:
    """Lane-step tables ``T_p[v] = v * x^(r + 8*(S-1-p)) mod g``."""
    slice_bytes = _slice_bytes(spec)
    return _shift_tables(spec, spec.r + 8 * (slice_bytes - 1), slice_bytes, 8)


@lru_cache(maxsize=None)
def _fold_tables(spec: BCHCodeSpec, span_bytes: int) -> np.ndarray:
    """Tables multiplying a left-aligned remainder by ``x^(8*span)``.

    One 16-entry table per remainder nibble: 256-entry byte tables would
    hold about ``4 r^2`` bytes per fold level (4.5 MB at t = 65), nibble
    tables a sixteenth of that for twice the gathers.  Nibble j of the
    left-aligned state holds the coefficients of ``x^(r-4-4j) ..
    x^(r-1-4j)``, so its table shifts by ``8*span + r - 4 - 4j``.
    """
    return _shift_tables(
        spec, 8 * span_bytes + spec.r - 4, 2 * spec.parity_bytes, 4
    )


class BCHEncoder:
    """Table-driven systematic encoder for one :class:`BCHCodeSpec`."""

    def __init__(self, spec: BCHCodeSpec):
        if spec.r < 8:
            raise CodeDesignError(
                "byte-parallel encoder requires r >= 8 parity bits"
            )
        self.spec = spec
        self._mask = (1 << spec.r) - 1
        self._shift = spec.r - 8
        self._table = _scalar_table(spec)

    def parity_int(self, message: bytes) -> int:
        """Parity bits as an integer polynomial (bit i = coeff of x^i)."""
        if len(message) * 8 != self.spec.k:
            raise ValueError(
                f"message must be exactly {self.spec.k // 8} bytes, "
                f"got {len(message)}"
            )
        state = 0
        table = self._table
        shift = self._shift
        mask = self._mask
        for byte in message:
            idx = ((state >> shift) ^ byte) & 0xFF
            state = ((state << 8) & mask) ^ table[idx]
        return state

    def encode(self, message: bytes) -> bytes:
        """Parity bytes for ``message`` (big-endian bit order, MSB first).

        The r parity bits are stored left-aligned: when r is not a multiple
        of 8 the stored stream is ``codeword(x) * x^pad`` with ``pad`` zero
        bits at the tail, keeping the byte stream a valid polynomial (see
        :attr:`BCHCodeSpec.pad_bits`).
        """
        parity = self.parity_int(message) << self.spec.pad_bits
        return parity.to_bytes(self.spec.parity_bytes, "big")

    def encode_codeword(self, message: bytes) -> bytes:
        """Full systematic codeword ``message || parity``."""
        return bytes(message) + self.encode(message)

    def is_codeword(self, codeword: bytes) -> bool:
        """Check divisibility by the generator (true for clean codewords)."""
        expected = self.spec.k // 8 + self.spec.parity_bytes
        if len(codeword) != expected:
            raise ValueError(f"codeword must be {expected} bytes, got {len(codeword)}")
        message = codeword[: self.spec.k // 8]
        parity = int.from_bytes(codeword[self.spec.k // 8:], "big")
        return (self.parity_int(message) << self.spec.pad_bits) == parity

    # -- lane-parallel datapath ------------------------------------------------

    def _lanes(self, batch: int) -> int:
        """Segments per message: the largest power of two within the
        gather budget and the lane cap that leaves every lane at least
        one slice long and no shorter than the remainder it folds (so
        the fold never outweighs the lane loop)."""
        spec = self.spec
        slice_bytes = _slice_bytes(spec)
        state_words = (spec.r + 63) // 64
        cap = min(
            _MAX_LANES,
            _GATHER_WORDS // (batch * slice_bytes * state_words),
            spec.k // 8 // max(slice_bytes, spec.parity_bytes),
        )
        lanes = 1
        while 2 * lanes <= cap:
            lanes *= 2
        return lanes

    def _parity_lanes(self, messages: Sequence[bytes]) -> list[bytes]:
        """Lane-parallel LFSR plus remainder fold; stored parity bytes."""
        spec = self.spec
        batch = len(messages)
        lanes = self._lanes(batch)
        slice_bytes = _slice_bytes(spec)
        slice_words = slice_bytes // 8
        tables = _slice_tables(spec)
        state_words = (spec.r + 63) // 64
        message_bytes = spec.k // 8
        lane_bytes = -(-message_bytes // (lanes * slice_bytes)) * slice_bytes
        padded = np.zeros((batch, lanes * lane_bytes), dtype=np.uint8)
        padded[:, lanes * lane_bytes - message_bytes:] = np.frombuffer(
            b"".join(messages), dtype=np.uint8
        ).reshape(batch, message_bytes)
        # Row b*L + l is lane l (l = 0 most significant) of message b.
        chunks = (
            padded.reshape(batch * lanes, lane_bytes)
            .view(np.dtype(">u8"))
            .astype(np.uint64)
        )
        slice_rows = 256 * np.arange(slice_bytes, dtype=np.intp)[:, None]
        state = np.zeros((batch * lanes, state_words), dtype=np.uint64)
        for i in range(0, lane_bytes // 8, slice_words):
            # Fold the state's top words with the next S message bytes,
            # reduce the S folded bytes through their tables, and add
            # the rest of the state shifted left by the slice.
            folded = state[:, :slice_words] ^ chunks[:, i:i + slice_words]
            index = folded.astype(np.dtype(">u8")).view(np.uint8).T + slice_rows
            reduced = np.bitwise_xor.reduce(np.take(tables, index, axis=0), axis=0)
            reduced[:, :-slice_words] ^= state[:, slice_words:]
            state = reduced
        # Tree-combine adjacent lanes: rem(hi || lo) = rem(hi) * x^(8*span)
        # + rem(lo), where span is the byte length of lo.
        parity_bytes = spec.parity_bytes
        nibble_rows = 16 * np.arange(2 * parity_bytes, dtype=np.intp)[:, None]
        span = lane_bytes
        while state.shape[0] > batch:
            pairs = state.reshape(-1, 2, state_words)
            hi = pairs[:, 0].astype(np.dtype(">u8")).view(np.uint8)
            # High then low nibble of each remainder byte, MSB first.
            hi = hi[:, :parity_bytes, None] >> np.array([4, 0], np.uint8)
            index = (hi & 0xF).reshape(len(hi), -1).T + nibble_rows
            state = np.bitwise_xor.reduce(
                np.take(_fold_tables(spec, span), index, axis=0), axis=0
            )
            state ^= pairs[:, 1]
            span *= 2
        # Left-aligned state words == parity << pad_bits within the first
        # parity_bytes of the big-endian byte stream.
        stream = state.astype(np.dtype(">u8")).view(np.uint8)
        return [stream[b, :parity_bytes].tobytes() for b in range(batch)]

    def encode_batch(self, messages: Sequence[bytes]) -> list[bytes]:
        """Stored parity bytes for every message (batch analogue of
        :meth:`encode`; bit-exact against the scalar path).
        """
        expected = self.spec.k // 8
        for message in messages:
            if len(message) != expected:
                raise ValueError(
                    f"message must be exactly {expected} bytes, "
                    f"got {len(message)}"
                )
        if not messages:
            return []
        return self._parity_lanes(messages)

    def encode_codeword_batch(self, messages: Sequence[bytes]) -> list[bytes]:
        """Full systematic codewords for every message."""
        parities = self.encode_batch(messages)
        return [bytes(m) + p for m, p in zip(messages, parities)]
