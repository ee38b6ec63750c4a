"""Chien search — third decoding stage of Fig. 2.

Finds the roots of the error-locator polynomial by evaluating it at the
field elements corresponding to valid codeword positions.  For a shortened
code only n of the 2^m - 1 elements are candidates — the paper's hardware
keeps "the first element of GF(2^m) from which the Chien search must
initiate" in a small ROM per correction capability; here the candidate set
is derived from n directly.

The software implementation is numpy-vectorized over all candidate
positions (equivalent to an h = n fully-parallel evaluator) and runs in
two passes.  A uint8 strided screen XOR-accumulates only the *low byte*
of every locator term (a zero value implies a zero low byte, so no root
is missed); then the few surviving candidates (~n/256 plus the real
roots) are evaluated exactly.  At bit position p the term
``c_i * x^i`` has exponent ``(log c_i - i*(n-1) + i*p) mod order``, an
arithmetic progression in p, so over a low-byte antilog table tiled
long enough (one per code, shared by every decoder in the process) each
term of the screen is one stride-i slice *view* XOR-ed into the
accumulator: no index array and no gather.  The hardware latency model
in :mod:`repro.bch.hardware` accounts for the real h-way datapath.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.bch.params import BCHCodeSpec
from repro.gf.field import GF2m
from repro.gf.polygf import GFPoly


@lru_cache(maxsize=None)
def _low_byte_tiles(spec: BCHCodeSpec) -> np.ndarray:
    """Read-only low bytes of ``alpha^k`` for k = 0 .. order + t*(n_stored-1)
    - 1: long enough that a term of degree i <= t covers every position
    in one stride-i slice (~2.2 MiB at t = 65 on a 4 KiB page)."""
    field = spec.field()
    low_bytes = (field.exp & 0xFF).astype(np.uint8)
    tiles = np.resize(low_bytes, field.order + spec.t * (spec.n_stored - 1))
    tiles.flags.writeable = False
    return tiles


class ChienSearch:
    """Root search over the valid positions of a (shortened) BCH code."""

    def __init__(self, spec: BCHCodeSpec):
        self.spec = spec
        self.field: GF2m = spec.field()

    def error_positions(self, locator: GFPoly) -> list[int]:
        """Bit positions (0 = MSB of byte 0) whose locator inverse is a root.

        Returns positions sorted ascending; the caller cross-checks the
        count against the locator degree to detect decoding failure.
        """
        if locator.field != self.field:
            raise ValueError("locator polynomial is over a different field")
        if locator.degree <= 0:
            return []
        order = self.field.order
        n = self.spec.n_stored
        log = self.field.log_list
        degrees = [i for i, c in enumerate(locator.coeffs) if c]
        starts = [
            (log[locator.coeffs[i]] - i * (n - 1)) % order for i in degrees
        ]
        # Pass 1: low-byte screen, one strided slice per term.  Degrees
        # above t (only locators that will fail) need a few slices each.
        tiles = _low_byte_tiles(self.spec)
        reach = tiles.size - order
        acc = np.zeros(n, dtype=np.uint8)
        for i, start in zip(degrees, starts):
            if i == 0:
                acc ^= tiles[start]
                continue
            span = reach // i + 1
            for first in range(0, n, span):
                stop = min(first + span, n)
                lo = (start + i * first) % order
                hi = lo + i * (stop - first - 1) + 1
                acc[first:stop] ^= tiles[lo:hi:i]
        candidates = np.flatnonzero(acc == 0)
        if candidates.size == 0:
            return []
        # Pass 2: exact evaluation at the surviving candidates only.
        exponents = (
            np.array(starts)[:, None] + np.array(degrees)[:, None] * candidates
        ) % order
        values = np.bitwise_xor.reduce(self.field.exp2_u16[exponents], axis=0)
        return candidates[values == 0].tolist()

    def root_count_in_field(self, locator: GFPoly) -> int:
        """Number of roots over the *whole* field (diagnostic for failures)."""
        if locator.degree <= 0:
            return 0
        all_logs = np.arange(self.field.order, dtype=np.int64)
        values = self.field.eval_poly_vec(
            np.asarray(locator.coeffs, dtype=np.int64), all_logs
        )
        return int(np.count_nonzero(values == 0))
