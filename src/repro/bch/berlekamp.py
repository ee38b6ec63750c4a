"""Binary inversionless Berlekamp-Massey — second decoding stage of Fig. 2.

Iteratively builds the error-locator polynomial lambda(x) whose roots are
the inverses of the error locations.  The inversionless formulation (no
Galois division, as in Micheloni et al. ch. 8, the implementation the paper
adopts) is run in its binary form: the syndromes of a binary word satisfy
S_2i = S_i^2, so every odd-step discrepancy is zero (Berlekamp 1968) and
only the t even steps do any work; at each odd step b(x) just shifts by x.
The recursion therefore runs t iterations, which is what the hardware
model in :mod:`repro.bch.hardware` charges (``bm_cycles_per_iteration``
clocks each).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SyndromeError
from repro.gf.field import GF2m
from repro.gf.polygf import GFPoly


@dataclass(frozen=True)
class BerlekampResult:
    """Outcome of the iBM recursion.

    Attributes
    ----------
    error_locator:
        lambda(x), low-order-first coefficients, normalised to
        lambda(0) = 1 (the canonical locator of the syndromes).
    degree:
        Claimed number of errors nu = deg(lambda) when consistent.
    iterations:
        Number of update iterations executed (always t).
    """

    error_locator: GFPoly
    degree: int
    iterations: int


def _binary_syndrome_logs(field: GF2m, syndromes: list[int]) -> list[int]:
    """Logs of ``[S_1 .. S_2t]`` (-1 for a zero syndrome), after rejecting
    syndromes that cannot come from a binary word: the t-step recursion
    is only valid when S_2i = S_i^2, i.e. log S_2i = 2 log S_i, for every
    i <= t."""
    if len(syndromes) % 2:
        raise SyndromeError(
            f"expected 2t syndromes [S_1 .. S_2t], got {len(syndromes)}"
        )
    if syndromes and not 0 <= min(syndromes) <= max(syndromes) < field.q:
        raise SyndromeError(f"syndromes must be elements of GF(2^{field.m})")
    log = field.log_list
    logs = [log[s] for s in syndromes]
    order = field.order
    squares = [2 * s_log % order if s_log >= 0 else -1
               for s_log in logs[:len(logs) // 2]]
    if squares != logs[1::2]:
        i = next(i for i, (square, s_2i_log) in
                 enumerate(zip(squares, logs[1::2]), 1) if square != s_2i_log)
        raise SyndromeError(
            f"S_{2 * i} != S_{i}^2: not the syndromes of a binary word"
        )
    return logs


def berlekamp_massey(field: GF2m, syndromes: list[int]) -> BerlekampResult:
    """Run binary inversionless BM on ``[S_1 .. S_2t]``.

    Returns the error-locator polynomial; the caller (decoder) validates it
    by Chien search (root count must equal the claimed degree).  Raises
    :class:`repro.errors.SyndromeError` for an odd-length list or one that
    breaks S_2i = S_i^2.

    lambda is rescaled by the previous nonzero discrepancy gamma only when
    the current discrepancy is nonzero, and b(x) is kept as a coefficient
    log list plus a pending power of x, so a zero-discrepancy step costs
    one shift count.  The loops index the field's compact scalar tables
    (``array('H')``/``array('i')``, 256 KiB each at m = 16, so they stay
    cached beside the Chien screen's tables; ``log[0] = -1`` marks a zero
    coefficient).
    """
    syndromes = [int(s) for s in syndromes]
    syndrome_logs = _binary_syndrome_logs(field, syndromes)
    exp2 = field.exp2_list
    log = field.log_list
    lam_logs = [0]  # current locator estimate lambda(x) = 1
    b_logs = [0]  # previous estimate; b(x) stands for x^shift * b_logs(x)
    shift = 0
    log_gamma = 0  # previous nonzero discrepancy (inversionless scaling)
    length = 0  # current LFSR length L

    for r in range(0, len(syndromes), 2):
        # Discrepancy: delta = sum_i lam_i * S_{r+1-i} (S_k at index k-1).
        delta = 0
        for lam_log, s_log in zip(lam_logs, syndrome_logs[r::-1]):
            if lam_log >= 0 and s_log >= 0:
                delta ^= exp2[lam_log + s_log]
        if not delta:
            shift += 2  # b(x) <- x^2 * b(x) across this and the odd step
            continue

        # lam(x) <- gamma*lam(x) + delta*x*b(x)  (characteristic 2).
        log_delta = log[delta]
        new_lam = [exp2[v + log_gamma] if v >= 0 else 0 for v in lam_logs]
        first = shift + 1
        if first + len(b_logs) > len(new_lam):
            new_lam.extend([0] * (first + len(b_logs) - len(new_lam)))
        for i, b_log in enumerate(b_logs, first):
            if b_log >= 0:
                new_lam[i] ^= exp2[log_delta + b_log]

        if 2 * length <= r:
            b_logs = lam_logs
            shift = 1  # the odd step's x
            log_gamma = log_delta
            length = r + 1 - length
        else:
            shift += 2
        lam_logs = [log[v] for v in new_lam]

    # lambda(0) is gamma-scaled but never zero; divide it out.
    inverse = field.order - lam_logs[0]
    locator = GFPoly(
        field, [exp2[v + inverse] if v >= 0 else 0 for v in lam_logs]
    )
    return BerlekampResult(
        error_locator=locator, degree=locator.degree,
        iterations=len(syndromes) // 2,
    )
