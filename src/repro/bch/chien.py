"""Chien search — third decoding stage of Fig. 2.

Finds the roots of the error-locator polynomial by evaluating it at the
field elements corresponding to valid codeword positions.  For a shortened
code only n of the 2^m - 1 elements are candidates — the paper's hardware
keeps "the first element of GF(2^m) from which the Chien search must
initiate" in a small ROM per correction capability; here the candidate set
is derived from n directly.

The software implementation is numpy-vectorized over all candidate
positions (equivalent to an h = n fully-parallel evaluator) and runs in
two passes: a uint8 screen XOR-accumulates only the *low byte* of every
``coeff * alpha^(-j*i)`` term (half the gather traffic of a full
evaluation; a zero value implies a zero low byte, so no root is missed),
then the few surviving candidates (~n/256 plus the real roots) are
evaluated exactly.  Per-degree position exponents ``(i * -j) mod order``
come from one table per code, built to degree t on first use and shared
by every decoder (every die) in the process, so the screen loop is one
add, one gather and one XOR per locator coefficient.  The hardware
latency model in :mod:`repro.bch.hardware` accounts for the real h-way
datapath.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.bch.params import BCHCodeSpec
from repro.gf.field import GF2m
from repro.gf.polygf import GFPoly


@lru_cache(maxsize=None)
def _degree_exponents(spec: BCHCodeSpec) -> np.ndarray:
    """Read-only rows 0..t of ``(i * e_j) mod order``, j = 0..n_stored-1.

    Position j (power of x in the stream polynomial, ``codeword * x^pad``)
    has locator X = alpha^j; lambda's roots are X^{-1} = alpha^{-j}, so
    lambda is evaluated at alpha^(e_j) with e_j = (-j) mod order.  Stored
    as intp: numpy re-casts any other index dtype to intp on every
    fancy-indexing gather, which would cost a full extra pass per
    locator coefficient.
    """
    order = spec.field().order
    base = (-np.arange(spec.n_stored, dtype=np.intp)) % order
    rows = np.empty((spec.t + 1, base.size), dtype=np.intp)
    rows[0] = 0
    for i in range(1, spec.t + 1):
        np.add(rows[i - 1], base, out=rows[i])
        np.subtract(rows[i], order, out=rows[i], where=rows[i] >= order)
    rows.flags.writeable = False
    return rows


class ChienSearch:
    """Root search over the valid positions of a (shortened) BCH code."""

    def __init__(self, spec: BCHCodeSpec):
        self.spec = spec
        self.field: GF2m = spec.field()
        self._exp2_lo: np.ndarray | None = None
        self._acc8: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def error_positions(self, locator: GFPoly) -> list[int]:
        """Bit positions (0 = MSB of byte 0) whose locator inverse is a root.

        Returns positions sorted ascending; the caller cross-checks the
        count against the locator degree to detect decoding failure.
        """
        if locator.field != self.field:
            raise ValueError("locator polynomial is over a different field")
        if locator.degree <= 0:
            return []
        coeffs = np.asarray(locator.coeffs, dtype=np.int64)
        nz = np.flatnonzero(coeffs)
        coeff_logs = self.field.log[coeffs[nz]].astype(np.intp)
        # Rows beyond t only occur for locators that will fail anyway.
        table = _degree_exponents(self.spec)
        ipl = [
            table[i] if i <= self.spec.t else i * table[1] % self.field.order
            for i in nz
        ]
        if self._exp2_lo is None:
            self._exp2_lo = (self.field.exp2_u16 & 0xFF).astype(np.uint8)
        n = self.spec.n_stored
        if self._acc8 is None or self._acc8.size != n:
            self._acc8 = np.empty(n, dtype=np.uint8)
            self._scratch = np.empty(n, dtype=np.intp)
        # Pass 1: XOR only the low byte of every term over all positions.
        acc8, scratch = self._acc8, self._scratch
        acc8[:] = 0
        exp2_lo = self._exp2_lo
        for exps, log_c in zip(ipl, coeff_logs):
            np.add(exps, log_c, out=scratch)
            acc8 ^= exp2_lo[scratch]
        candidates = np.flatnonzero(acc8 == 0)
        if candidates.size == 0:
            return []
        # Pass 2: exact evaluation at the surviving candidates only.
        exp2 = self.field.exp2_u16
        values = np.zeros(candidates.size, dtype=np.uint16)
        for exps, log_c in zip(ipl, coeff_logs):
            values ^= exp2[exps[candidates] + log_c]
        exponents_j = candidates[values == 0]  # j = power of x
        positions = sorted(int(n - 1 - j) for j in exponents_j)
        return positions

    def root_count_in_field(self, locator: GFPoly) -> int:
        """Number of roots over the *whole* field (diagnostic for failures)."""
        if locator.degree <= 0:
            return 0
        all_logs = np.arange(self.field.order, dtype=np.int64)
        values = self.field.eval_poly_vec(
            np.asarray(locator.coeffs, dtype=np.int64), all_logs
        )
        return int(np.count_nonzero(values == 0))
