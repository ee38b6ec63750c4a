"""Frozen replica of the pre-remainder BCH syndrome calculator.

A verbatim copy of ``repro.bch.syndrome`` as it stood before syndromes
were computed from the parity remainder, kept so
``bench_ecc_throughput.py`` can gate the new front end's speed against
the bit-unpack gather it replaced, in the same process.  The same
pattern as ``_legacy_encoder.py``: never edit this file to track the
live calculator; it exists precisely to stay behind.  Only the class
name changed (``SyndromeCalculator`` -> ``LegacySyndromeCalculator``).

The original module docstring follows.

----

Syndrome computation (first decoding stage of Fig. 2).

S_i = c(alpha^i) for i = 1..2t.  Two implementations coexist:

* **Byte-serial reference** (:meth:`SyndromeCalculator.syndromes`): as in
  the paper's hardware, each odd syndrome is produced by reducing the
  codeword modulo the corresponding minimal polynomial (a small LFSR) and
  evaluating the 16-bit remainder at alpha^i; even syndromes come for free
  over GF(2) since S_{2i} = S_i^2.  Reduction is table-driven
  byte-at-a-time per minimal polynomial.

* **Vectorized fast path** (:meth:`SyndromeCalculator.syndromes_vectorized`
  / :meth:`syndromes_batch`): the codeword (or a whole batch of codewords)
  is bit-unpacked with ``np.unpackbits``; for the set-bit positions ``j``
  every odd syndrome is one uint16 gather from a precomputed power table
  ``alpha^(i * (n - 1 - j))`` followed by ``np.bitwise_xor.reduce``, so
  the 2t Python LFSR passes collapse into a handful of array ops (~30x
  on a 4 KiB page at t = 65).  The table is built lazily per calculator
  (the software analogue of the hardware's parallel syndrome datapath)
  and the byte-serial path stays as the cross-checked reference.

Implementation note: the byte-serial reduction loop computes
``c(x) * x^d mod m_i(x)`` (d = deg m_i), so the evaluated remainder carries
an extra factor ``alpha^(i*d)`` which is cancelled by a precomputed
per-syndrome compensation constant.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.bch.params import BCHCodeSpec
from repro.gf.field import GF2m
from repro.gf.minpoly import minimal_polynomial
from repro.gf.poly2 import poly2_deg, poly2_eval_in_field, poly2_mod


@lru_cache(maxsize=None)
def _reduction_table(minpoly: int) -> tuple[int, ...]:
    """256-entry table: (v(x) << deg) mod minpoly for byte-serial reduction."""
    deg = poly2_deg(minpoly)
    return tuple(poly2_mod(v << deg, minpoly) for v in range(256))


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


class LegacySyndromeCalculator:
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
        self._power_table: np.ndarray | None = None

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

    # -- vectorized fast path -------------------------------------------------

    def _bit_power_table(self) -> np.ndarray:
        """Lazy (n_stored, t) uint16 table: entry [j, row] = alpha^(i*(n-1-j))
        for the column's odd syndrome index i = 2*row + 1.

        Column i+2 is derived from column i by adding 2*(n-1-j) to the
        exponents (one vector add plus conditional subtracts), avoiding a
        full 64-bit modulo over the whole table.  The position-major
        layout makes the per-word gather a contiguous row fetch.
        """
        if self._power_table is None:
            n = self.spec.n_stored
            order = np.int32(self.field.order)
            exp_u16 = self.field.exp.astype(np.uint16)
            pos_exp = ((n - 1 - np.arange(n, dtype=np.int64))
                       % self.field.order).astype(np.int32)
            step = pos_exp + pos_exp
            np.subtract(step, order, out=step, where=step >= order)
            rows = np.empty((self.spec.t, n), dtype=np.uint16)
            exps = pos_exp.copy()
            rows[0] = exp_u16[exps]
            for row in range(1, self.spec.t):
                exps += step
                np.subtract(exps, order, out=exps, where=exps >= order)
                rows[row] = exp_u16[exps]
            self._power_table = np.ascontiguousarray(rows.T)
        return self._power_table

    def _odd_syndromes_of_bits(self, bits: np.ndarray) -> np.ndarray:
        """Odd syndromes [S_1, S_3, ...] of one unpacked bit vector.

        The gathered (positions, t) block is XOR-folded in halves: each
        fold is one large contiguous vector op, so the whole reduction
        costs ~2 passes over the gathered data instead of a strided
        reduce.
        """
        positions = np.flatnonzero(bits)
        if positions.size == 0:
            return np.zeros(self.spec.t, dtype=np.int64)
        gathered = self._bit_power_table()[positions]
        count = gathered.shape[0]
        while count > 1:
            half = count >> 1
            keep = count - half
            gathered[:half] ^= gathered[keep:count]
            count = keep
        return gathered[0].astype(np.int64)

    def _fill_even_syndromes(self, out: np.ndarray) -> None:
        """Complete even columns of ``out[..., 2t]`` via S_{2i} = S_i^2."""
        field = self.field
        for i in range(2, 2 * self.spec.t + 1, 2):
            out[..., i - 1] = field.square_vec(out[..., i // 2 - 1])

    def syndromes_vectorized(self, codeword: bytes) -> list[int]:
        """Fast-path equivalent of :meth:`syndromes` (same return value)."""
        bits = np.unpackbits(np.frombuffer(codeword, dtype=np.uint8))
        out = np.zeros(2 * self.spec.t, dtype=np.int64)
        out[0::2] = self._odd_syndromes_of_bits(bits)
        self._fill_even_syndromes(out)
        return out.tolist()

    def syndromes_batch(self, codewords: Sequence[bytes]) -> np.ndarray:
        """Syndromes of a batch of equal-length codewords.

        Returns an int64 array of shape ``(len(codewords), 2t)``; row b is
        identical to ``syndromes(codewords[b])``.
        """
        if len(codewords) == 0:
            return np.zeros((0, 2 * self.spec.t), dtype=np.int64)
        raw = np.frombuffer(b"".join(codewords), dtype=np.uint8)
        bits = np.unpackbits(raw.reshape(len(codewords), -1), axis=1)
        out = np.zeros((len(codewords), 2 * self.spec.t), dtype=np.int64)
        for b in range(len(codewords)):
            out[b, 0::2] = self._odd_syndromes_of_bits(bits[b])
        self._fill_even_syndromes(out)
        return out

    @staticmethod
    def all_zero(syndromes: list[int]) -> bool:
        """Error-free shortcut used by the hardware (Fig. 2 exit arc)."""
        return not any(syndromes)

    @staticmethod
    def all_zero_batch(syndromes: np.ndarray) -> np.ndarray:
        """Per-row error-free flags for a :meth:`syndromes_batch` result."""
        return ~syndromes.any(axis=1)

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
