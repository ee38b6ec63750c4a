"""Syndrome computation (first decoding stage of Fig. 2).

S_i = s(alpha^i) for i = 1..2t, where s(x) is the stored byte stream
read as a polynomial (byte 0 bit 7 is the coefficient of x^(n_stored-1)).
Two implementations coexist:

* **Byte-serial reference** (:meth:`SyndromeCalculator.syndromes`): as in
  the paper's hardware, each odd syndrome is produced by reducing the
  codeword modulo the corresponding minimal polynomial (a small LFSR) and
  evaluating the 16-bit remainder at alpha^i; even syndromes come for free
  over GF(2) since S_{2i} = S_i^2.  Reduction is table-driven
  byte-at-a-time per minimal polynomial.

* **Remainder-first batch path** (:meth:`SyndromeCalculator.syndromes_batch`,
  behind both ``BCHDecoder.decode`` and ``decode_batch``): the received
  message part is re-encoded through the lane-parallel
  :meth:`BCHEncoder.encode_batch` and XOR-ed with the received parity
  field, giving ``D``.  The stream is ``s(x) = m(x) x^(8 pb) + P_recv(x)``
  and the re-encoded parity is ``P(x) = (m x^r mod g) x^pad``, so
  ``s - D`` is a multiple of g(x) and, since ``g(alpha^i) = 0`` for
  i <= 2t, ``S_i = D(alpha^i)`` exactly (flipped pad bits included).  A
  word with ``D = 0`` is a codeword and skips the rest.  For the others,
  every odd syndrome is one gather from the per-code tail power table
  ``alpha^(i * (8 pb - 1 - p))`` at the set bits of ``D`` (at most
  ``8 pb`` rows, 1040 at t = 65, instead of every set bit of the page),
  XOR-reduced per word, and the even syndromes follow in one log-domain
  gather from ``S_(2^a o) = S_o^(2^a)``.  This is the textbook remainder
  route (Lin & Costello, *Error Control Coding*, ch. 6), the software
  analogue of the hardware folding each codeword through small LFSRs.
  Codes with r < 8, which :class:`BCHEncoder` rejects, take the
  byte-serial path.

Implementation note: the byte-serial reduction loop computes
``c(x) * x^d mod m_i(x)`` (d = deg m_i), so the evaluated remainder carries
an extra factor ``alpha^(i*d)`` which is cancelled by a precomputed
per-syndrome compensation constant.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.bch.encoder import BCHEncoder
from repro.bch.params import BCHCodeSpec
from repro.gf.field import GF2m
from repro.gf.minpoly import minimal_polynomial
from repro.gf.poly2 import poly2_deg, poly2_eval_in_field, poly2_mod


@lru_cache(maxsize=None)
def _reduction_table(minpoly: int) -> tuple[int, ...]:
    """256-entry table: (v(x) << deg) mod minpoly for byte-serial reduction."""
    deg = poly2_deg(minpoly)
    return tuple(poly2_mod(v << deg, minpoly) for v in range(256))


@lru_cache(maxsize=None)
def _tail_powers(spec: BCHCodeSpec) -> np.ndarray:
    """Read-only ``(8 * parity_bytes, t)`` uint16 table of the parity
    field's odd-syndrome terms: entry ``[p, row]`` is
    ``alpha^(i * (8 pb - 1 - p))`` for ``i = 2 row + 1``, p counted from
    the MSB of the first parity byte."""
    field = spec.field()
    width = 8 * spec.parity_bytes
    powers = np.arange(width - 1, -1, -1, dtype=np.int64)[:, None]
    odd = np.arange(1, 2 * spec.t, 2, dtype=np.int64)
    table = field.exp[powers * odd % field.order].astype(np.uint16)
    table.flags.writeable = False
    return table


def reduce_codeword(data: bytes, minpoly: int) -> int:
    """Return ``data(x) * x^deg(minpoly) mod minpoly`` (byte-serial LFSR).

    The uniform ``x^deg`` factor keeps the byte-parallel path and the
    bit-serial fallback (for polynomials of degree < 8) consistent; callers
    compensate at evaluation time.
    """
    deg = poly2_deg(minpoly)
    if deg >= 8:
        table = _reduction_table(minpoly)
        mask = (1 << deg) - 1
        shift = deg - 8
        state = 0
        for byte in data:
            idx = ((state >> shift) ^ byte) & 0xFF
            state = ((state << 8) & mask) ^ table[idx]
        return state
    value = int.from_bytes(data, "big")
    return poly2_mod(value << deg, minpoly)


class SyndromeCalculator:
    """Computes the 2t syndromes of a received word for a given code."""

    def __init__(self, spec: BCHCodeSpec):
        self.spec = spec
        self.field: GF2m = spec.field()
        # Distinct odd-index minimal polynomials cover indices 1..2t.
        self._odd_minpolys: dict[int, int] = {}
        self._compensation: dict[int, int] = {}
        order = self.field.order
        for i in range(1, 2 * spec.t + 1, 2):
            minpoly = minimal_polynomial(self.field, i)
            self._odd_minpolys[i] = minpoly
            deg = poly2_deg(minpoly)
            self._compensation[i] = self.field.alpha_pow((-i * deg) % order)
        # S_i = S_o^(2^a) for i = 2^a * o, o odd: odd-column source and
        # log multiplier of every index.
        index = np.arange(1, 2 * spec.t + 1, dtype=np.int64)
        square = index & -index
        self._odd_column = (index // square - 1) // 2
        self._log_multiplier = square
        self._encoder = BCHEncoder(spec) if spec.r >= 8 else None

    def syndromes(self, codeword: bytes) -> list[int]:
        """Return [S_1, ..., S_2t]; all zero iff the word is a codeword.

        Codeword bytes are MSB-first: byte 0 bit 7 is the coefficient of
        x^(n-1).
        """
        spec = self.spec
        field = self.field
        out = [0] * (2 * spec.t)
        for i, minpoly in self._odd_minpolys.items():
            remainder = reduce_codeword(codeword, minpoly)
            if remainder:
                value = poly2_eval_in_field(remainder, field.alpha_pow(i), field)
                out[i - 1] = field.mul(value, self._compensation[i])
        # Even syndromes: S_{2j} = S_j^2 (binary-code conjugacy).
        for i in range(2, 2 * spec.t + 1, 2):
            half = out[i // 2 - 1]
            out[i - 1] = field.mul(half, half)
        return out

    # -- remainder-first batch path --------------------------------------------

    def syndromes_batch(self, codewords: Sequence[bytes]) -> np.ndarray:
        """Syndromes of a batch of equal-length codewords.

        Returns an int64 array of shape ``(len(codewords), 2t)``; row b is
        identical to ``syndromes(codewords[b])``.
        """
        spec = self.spec
        if len(codewords) == 0 or self._encoder is None:
            return np.array(
                [self.syndromes(w) for w in codewords], dtype=np.int64
            ).reshape(len(codewords), 2 * spec.t)
        message_bytes = spec.k // 8
        received = np.frombuffer(b"".join(codewords), dtype=np.uint8)
        received = received.reshape(len(codewords), -1)[:, message_bytes:]
        parities = self._encoder.encode_batch(
            [w[:message_bytes] for w in codewords]
        )
        diff = np.frombuffer(b"".join(parities), dtype=np.uint8)
        diff = diff.reshape(received.shape) ^ received
        out = np.zeros((len(codewords), 2 * spec.t), dtype=np.int64)
        dirty = np.flatnonzero(diff.any(axis=1))
        if dirty.size:
            out[dirty] = self._from_remainders(diff[dirty])
        return out

    def _from_remainders(self, diff: np.ndarray) -> np.ndarray:
        """All 2t syndromes of nonzero parity differences ``D`` (one row
        of parity bytes each): odd ones gathered from the tail table at
        the set bits of every row, even ones by log-domain squaring."""
        rows, bits = np.nonzero(np.unpackbits(diff, axis=1))
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        odd = np.bitwise_xor.reduceat(_tail_powers(self.spec)[bits], starts)
        field = self.field
        logs = field.log[odd[:, self._odd_column]]
        out = field.exp[logs * self._log_multiplier % field.order]
        out[logs < 0] = 0
        return out

    @staticmethod
    def all_zero(syndromes: list[int]) -> bool:
        """Error-free shortcut used by the hardware (Fig. 2 exit arc)."""
        return not any(syndromes)

    def syndromes_of_error_positions(self, positions: list[int]) -> list[int]:
        """Syndromes of a pure error pattern (for tests / fault injection).

        ``positions`` are codeword bit indices counted from the start of the
        byte stream (0 = MSB of byte 0), matching the decoder's reporting.
        """
        spec = self.spec
        field = self.field
        n = spec.n_stored
        out = [0] * (2 * spec.t)
        for i in range(1, 2 * spec.t + 1):
            acc = 0
            for pos in positions:
                exponent = n - 1 - pos  # power of x at this bit
                acc ^= field.alpha_pow(i * exponent)
            out[i - 1] = acc
        return out
