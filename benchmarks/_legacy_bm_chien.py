"""Frozen replica of the 2t-step Berlekamp-Massey and two-pass Chien search.

Verbatim copies of ``repro.bch.berlekamp`` and ``repro.bch.chien`` as
they stood before the decode back end moved to the t-step binary
Berlekamp-Massey and the strided Chien screen, kept so
``bench_ecc_throughput.py`` can gate the live stages' speed against the
kernels they replaced, in the same process, and so
``tests/bch/test_property.py`` can check the live back end against them.
The same pattern as ``_legacy_syndrome.py``: never edit this file to
track the live decoder; it exists precisely to stay behind.  Only the
names changed (``berlekamp_massey`` -> ``legacy_berlekamp_massey``,
``BerlekampResult`` -> ``LegacyBerlekampResult``, ``ChienSearch`` ->
``LegacyChienSearch``), the two modules are concatenated and the
renamed ``berlekamp_massey`` signature is wrapped to fit the line.

The original module docstrings follow.

----

Inversionless Berlekamp-Massey (iBM) — second decoding stage of Fig. 2.

Iteratively builds the error-locator polynomial lambda(x) whose roots are
the inverses of the error locations.  The inversionless formulation (no
Galois division, as in Micheloni et al. ch. 8, the implementation the paper
adopts) runs exactly 2t iterations; the hardware model charges
``bm_cycles_per_iteration`` clocks per iteration.

----

Chien search — third decoding stage of Fig. 2.

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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.bch.params import BCHCodeSpec
from repro.gf.field import GF2m
from repro.gf.polygf import GFPoly


@dataclass(frozen=True)
class LegacyBerlekampResult:
    """Outcome of the iBM recursion.

    Attributes
    ----------
    error_locator:
        lambda(x), low-order-first coefficients, lambda(0) != 0.
    degree:
        Claimed number of errors nu = deg(lambda) when consistent.
    iterations:
        Number of update iterations executed (always 2t).
    """

    error_locator: GFPoly
    degree: int
    iterations: int


def legacy_berlekamp_massey(
    field: GF2m, syndromes: list[int]
) -> LegacyBerlekampResult:
    """Run inversionless BM on ``[S_1 .. S_2t]``.

    Returns the error-locator polynomial; the caller (decoder) validates it
    by Chien search (root count must equal the claimed degree).

    The inner loops index the field's plain-list log/antilog tables
    directly instead of calling :meth:`GF2m.mul` — the recursion is
    O(t^2) scalar multiplications and the per-call numpy scalar indexing
    dominated its runtime (~4x at t = 65).
    """
    two_t = len(syndromes)
    exp2 = field.exp2_list
    log = field.log_list
    syndromes = [int(s) for s in syndromes]
    # lam: current locator estimate; b: previous (shifted) estimate.  Both
    # carry an explicit degree bound so the update loops only touch the
    # live prefix (deg lam <= L <= t, not 2t + 1 entries every round).
    lam = [1] + [0] * two_t
    b = [1] + [0] * two_t
    deg_lam = 0
    deg_b = 0
    gamma = 1  # previous nonzero discrepancy (inversionless scaling)
    log_gamma = 0
    length = 0  # current LFSR length L

    for r in range(two_t):
        # Discrepancy: delta = sum_{i=0..L} lam_i * S_{r+1-i}.
        delta = 0
        for i in range(min(length, r) + 1):
            li = lam[i]
            s = syndromes[r - i]  # S_{r+1-i} stored at syndromes[r-i]
            if li and s:
                delta ^= exp2[log[li] + log[s]]

        # T(x) = gamma*lam(x) + delta*x*b(x)  (characteristic 2).
        if log_gamma:
            new_lam = [
                exp2[log[v] + log_gamma] if v else 0
                for v in lam[: deg_lam + 1]
            ]
        else:
            new_lam = lam[: deg_lam + 1]
        new_deg = deg_lam
        if delta:
            shifted_deg = min(deg_b + 1, two_t)
            if shifted_deg > new_deg:
                new_lam.extend([0] * (shifted_deg - new_deg))
                new_deg = shifted_deg
            log_delta = log[delta]
            for i in range(1, shifted_deg + 1):
                bv = b[i - 1]
                if bv:
                    new_lam[i] ^= exp2[log_delta + log[bv]]
        new_lam.extend([0] * (two_t + 1 - len(new_lam)))

        if delta and 2 * length <= r:
            b = lam
            deg_b = deg_lam
            gamma = delta
            log_gamma = log[gamma]
            length = r + 1 - length
        else:
            b = [0] + b[:-1]  # b(x) <- x * b(x)
            deg_b = min(deg_b + 1, two_t)
        lam = new_lam
        deg_lam = new_deg

    locator = GFPoly(field, lam)
    return LegacyBerlekampResult(
        error_locator=locator, degree=locator.degree, iterations=two_t
    )


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


class LegacyChienSearch:
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
