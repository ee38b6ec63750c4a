"""Adaptive BCH error-correcting codec (paper section 4).

A working binary BCH codec over GF(2^m) with runtime-programmable
correction capability t, plus a cycle-accurate structural hardware model of
the Chen-style programmable-LFSR architecture the paper instantiates:

* :mod:`repro.bch.params` — code design (n, k, t, generator polynomial),
  memoized at module level;
* :mod:`repro.bch.encoder` — systematic encoder (table-driven LFSR) plus
  the lane-parallel kernel behind ``encode_batch``;
* :mod:`repro.bch.syndrome` / :mod:`berlekamp` / :mod:`chien` — the three
  decoding stages of Fig. 2;
* :mod:`repro.bch.codec` — the adaptive codec with its polynomial ROM;
* :mod:`repro.bch.uber` — Eq. (1) UBER model and required-t solver;
* :mod:`repro.bch.hardware` — encode/decode latency and area models.

Fast-path design (the vectorized batch datapath)
------------------------------------------------

The throughput-oriented datapath mirrors how real controllers push pages
through a wide ECC engine instead of streaming bits:

* **Syndromes**: remainder-first.  The received message part is
  re-encoded through the lane-parallel encoder and XOR-ed with the
  received parity; since g(alpha^i) = 0 for i <= 2t, the syndromes of
  the page are those of that short difference D.  A page with D = 0 is
  a codeword; otherwise each odd syndrome is one gather from a per-code
  tail power table at the set bits of D (at most 8 * parity_bytes rows)
  and the even ones follow by one log-domain gather (S_2i = S_i^2).
* **Encoder**: ``encode_batch`` splits every message into L segments
  and advances all ``B * L`` segments in lockstep through a word-sliced
  LFSR (one ``(B*L, ceil(r/64))`` uint64 state, 8 or 16 message bytes
  per step through 256-entry reduction tables), then folds the segment
  remainders in a log2(L) tree (zlib's ``crc32_combine`` step).  Its
  tables are memoised per code and shared by every codec.
* **Decoder**: ``decode`` is ``decode_batch`` of one word;
  ``decode_batch`` computes every syndrome in one remainder-first pass
  and takes the all-zero-syndrome early exit per word, so clean pages
  never reach Berlekamp-Massey; errored words run a degree-tracked
  inversionless BM and a two-pass Chien search (uint8 low-byte screen
  over all positions, exact evaluation at the ~n/256 surviving
  candidates).  The Chien exponent table and the syndrome tail table
  are memoised per code, like the encoder's, and shared by every die.

Batch API contract: ``encode_batch``/``decode_batch`` (on
:class:`BCHEncoder`, :class:`BCHDecoder` and :class:`AdaptiveBCHCodec`)
take a sequence of equal-length words at one capability and return
per-word results bit-identical to the scalar ``encode``/``decode``,
including permissive-mode failures and telemetry; the byte-serial scalar
path survives as the cross-checked reference
(``BCHDecoder(spec, vectorized=False)``).  Measured on 4 KiB pages at
t = 65, batch 64: clean-page decode ~280x, errored-page (t/2 errors)
~7x, encode ~7x over the scalar path
(``benchmarks/bench_ecc_throughput.py``).
"""

from repro.bch.params import BCHCodeSpec, design_code
from repro.bch.encoder import BCHEncoder
from repro.bch.decoder import BCHDecoder, DecodeResult
from repro.bch.codec import AdaptiveBCHCodec, CodecObservation
from repro.bch.uber import (
    log10_uber_eq1,
    required_t,
    uber_eq1,
    uber_exact,
)
from repro.bch.hardware import (
    DecodeLatencyBreakdown,
    EccLatencyModel,
    chien_parallelism,
)

__all__ = [
    "BCHCodeSpec",
    "design_code",
    "BCHEncoder",
    "BCHDecoder",
    "DecodeResult",
    "AdaptiveBCHCodec",
    "CodecObservation",
    "uber_eq1",
    "log10_uber_eq1",
    "uber_exact",
    "required_t",
    "EccLatencyModel",
    "DecodeLatencyBreakdown",
    "chien_parallelism",
]
