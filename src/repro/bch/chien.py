"""Chien search — third decoding stage of Fig. 2.

Finds the roots of the error-locator polynomial by evaluating it at the
field elements corresponding to valid codeword positions.  For a shortened
code only n of the 2^m - 1 elements are candidates — the paper's hardware
keeps "the first element of GF(2^m) from which the Chien search must
initiate" in a small ROM per correction capability; here the candidate set
is derived from n directly.

The software implementation is numpy-vectorized over all candidate
positions (equivalent to an h = n fully-parallel evaluator) and runs in
two passes.  A uint8 screen XOR-accumulates only the *low byte* of
every locator term (a zero value implies a zero low byte, so no root is
missed); then the few surviving candidates (~n/256 plus the real roots)
are evaluated exactly.  At bit position p the term ``c_i * x^i`` has
exponent ``start_i + i*p (mod order)`` with
``start_i = log c_i - i*(n-1)``.  The screen reads it from per-degree
decimated low-byte tables: with g = gcd(i, order), the table for degree
i has row c, column q holding the low byte of ``alpha^(c + i*q)``, so
the term is row ``start_i mod g`` read *contiguously* from column
``(start_i // g) * (i/g)^-1 mod (order/g)``, wrapping at the row's end
(a head slice, whole rows as one 2-D view, a tail slice).  No stride, no
index array and no gather: each term streams one cache-friendly run of
bytes.  Each table is a permutation of the field's low bytes (64 KiB at
m = 16, 4 MiB for the 65 degrees of t = 65), built on the first use of
its degree and shared by every decoder of the field in the process.
The hardware latency model in :mod:`repro.bch.hardware` accounts for
the real h-way datapath.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from repro.bch.params import BCHCodeSpec
from repro.gf.field import GF2m
from repro.gf.polygf import GFPoly


@lru_cache(maxsize=None)
def _decimated_low_bytes(field: GF2m, degree: int) -> np.ndarray:
    """Read-only low bytes of ``alpha^(c + degree*q)``, row c, column q.

    With g = gcd(degree, order) the table has shape ``(g, order // g)``:
    the sequence start + degree*p (mod order) stays in the residue class
    of ``start mod g`` and, because ``order // g`` is coprime to
    ``degree // g``, walks that row one column per step.  Each table is
    a permutation of the field's low bytes (64 KiB at m = 16), built on
    the first use of its degree and shared by every decoder of the field.
    """
    order = field.order
    g = gcd(degree, order)
    # int32 holds degree * order (< 2^31 while degree < 2^15) and halves
    # the build's memory traffic against int64.
    columns = degree * np.arange(order // g, dtype=np.int32)
    exponents = np.arange(g, dtype=np.int32)[:, None] + columns
    # order = 2^m - 1, so one fold of the high bits onto the low ones
    # reduces below 2 * order, in range of the doubled antilog table.
    exponents = (exponents & order) + (exponents >> field.m)
    table = (field.exp2_u16[exponents] & 0xFF).astype(np.uint8)
    table.flags.writeable = False
    return table


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
        # Pass 1: low-byte screen.  Term i reads row ``start mod g`` of
        # its decimated table contiguously from one column on, wrapping
        # at the row's end: a head slice, whole rows (one broadcast XOR
        # over a 2-D view) and a tail slice.  No stride, no gather.
        acc = np.zeros(n, dtype=np.uint8)
        for i, start in zip(degrees, starts):
            if i == 0:
                acc ^= int(self.field.exp[start]) & 0xFF
                continue
            table = _decimated_low_bytes(self.field, i)
            g, width = table.shape
            row = table[start % g]
            column = (start // g) * pow(i // g, -1, width) % width
            head = min(width - column, n)
            acc[:head] ^= row[column:column + head]
            rows, tail = divmod(n - head, width)
            if rows:
                body = acc[head:head + rows * width].reshape(rows, width)
                np.bitwise_xor(body, row, out=body)
            if tail:
                acc[n - tail:] ^= row[:tail]
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
