"""ECC datapath throughput: scalar reference vs vectorized batch kernels.

Measures encode and decode MB/s (4 KiB page payload) at the paper's
correction capabilities t in {3, 14, 65} for three page populations:

* ``clean``   — error-free pages (all-zero-syndrome early exit);
* ``errored`` — pages carrying t/2 bit errors, the end-of-life design
  point (RBER ~1e-3 over a 33.8 kbit codeword injects ~t/2 errors at
  t = 65);
* ``worst``   — pages carrying exactly t errors (full capability).

The scalar path is the byte-serial seed datapath
(``BCHDecoder(vectorized=False)`` / per-message ``encode``); the batch
path is ``encode_batch`` / ``decode_batch``.  Outputs are cross-checked
identical before timing.  Run standalone (``python
benchmarks/bench_ecc_throughput.py``) or through pytest; the full sweep
is marked ``slow`` and the ``--quick`` knob shrinks the batch.

A second set of gates pins each fast path against the frozen kernel it
replaced, same process, best of 5: the batch encoder against the
one-lane slicing kernel (``_legacy_encoder.py``) on a 16-page batch
(>= 5x at t = 6, no slower at t = 65), and the remainder-first syndrome
stage against the bit-unpack gather (``_legacy_syndrome.py``) on a
16-page clean batch at t = 6 (>= 4x) and on one page carrying t/2
errors at t = 65 (no slower).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bch.decoder import BCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.bch.params import design_code

sys.path.insert(0, str(Path(__file__).parent))
from _legacy_encoder import LegacyBCHEncoder  # noqa: E402  (path bootstrap above)
from _legacy_syndrome import LegacySyndromeCalculator  # noqa: E402

PAGE_BYTES = 4096
CAPABILITIES = (3, 14, 65)

#: Acceptance floors at t = 65 (vs the scalar seed path).
MIN_CLEAN_SPEEDUP = 10.0
MIN_ERRORED_SPEEDUP = 5.0

#: Floors vs the frozen kernels, keyed by (stage, t, pages, bit errors
#: per page).  16 pages is the size of a typical GC migration batch;
#: t/2 errors on one page is the end-of-life read.
MIN_VS_LEGACY = {
    ("encode", 6, 16, 0): 5.0,
    ("encode", 65, 16, 0): 1.0,
    ("syndromes", 6, 16, 0): 4.0,
    ("syndromes", 65, 1, 32): 1.0,
}


def _flip_random_bits(codeword: bytes, weight: int,
                      n_bits: int, rng: np.random.Generator) -> bytes:
    corrupted = bytearray(codeword)
    for pos in rng.choice(n_bits, size=weight, replace=False):
        corrupted[pos // 8] ^= 0x80 >> (pos % 8)
    return bytes(corrupted)


def _mb_s(pages: int, seconds: float) -> float:
    return pages * PAGE_BYTES / seconds / 1e6


def bench_capability(t: int, batch_pages: int, scalar_pages: int,
                     rng: np.random.Generator) -> dict:
    """Measure one capability; returns row dicts plus the speedup summary."""
    spec = design_code(PAGE_BYTES * 8, t)
    encoder = BCHEncoder(spec)
    batch_decoder = BCHDecoder(spec)
    scalar_decoder = BCHDecoder(spec, vectorized=False)

    messages = [rng.bytes(PAGE_BYTES) for _ in range(batch_pages)]

    # -- encode (cross-check, then time) -------------------------------------
    start = time.perf_counter()
    scalar_cw = [encoder.encode_codeword(m) for m in messages[:scalar_pages]]
    scalar_encode_s = time.perf_counter() - start
    encoder.encode_batch(messages[:2])  # build tables outside the timing
    start = time.perf_counter()
    codewords = encoder.encode_codeword_batch(messages)
    batch_encode_s = time.perf_counter() - start
    assert codewords[:scalar_pages] == scalar_cw, "encode mismatch"

    populations = {
        "clean": codewords,
        "errored": [
            _flip_random_bits(cw, max(1, t // 2), spec.n_stored, rng)
            for cw in codewords
        ],
        "worst": [
            _flip_random_bits(cw, t, spec.n_stored, rng) for cw in codewords
        ],
    }

    rows = []
    speedups = {}
    rows.append({
        "t": t, "population": "encode",
        "scalar_mb_s": _mb_s(scalar_pages, scalar_encode_s),
        "batch_mb_s": _mb_s(batch_pages, batch_encode_s),
    })
    speedups["encode"] = rows[-1]["batch_mb_s"] / rows[-1]["scalar_mb_s"]
    for name, words in populations.items():
        batch_decoder.decode_batch(words[:2])  # build tables / warm caches
        start = time.perf_counter()
        scalar_results = [
            scalar_decoder.decode(w) for w in words[:scalar_pages]
        ]
        scalar_s = time.perf_counter() - start
        start = time.perf_counter()
        batch_results = batch_decoder.decode_batch(words)
        batch_s = time.perf_counter() - start
        for scalar_result, batch_result in zip(scalar_results, batch_results):
            assert scalar_result.data == batch_result.data, "decode mismatch"
            assert (scalar_result.error_positions
                    == batch_result.error_positions), "positions mismatch"
        rows.append({
            "t": t, "population": name,
            "scalar_mb_s": _mb_s(scalar_pages, scalar_s),
            "batch_mb_s": _mb_s(batch_pages, batch_s),
        })
        speedups[name] = rows[-1]["batch_mb_s"] / rows[-1]["scalar_mb_s"]
    return {"rows": rows, "speedups": speedups}


def _best_s(fn, arg, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best


def bench_vs_legacy(stage: str, t: int, pages: int, errors: int,
                    rng: np.random.Generator) -> float:
    """Speedup of the live ``stage`` kernel over its frozen predecessor
    on ``pages`` pages carrying ``errors`` bit errors each (best of 5)."""
    spec = design_code(PAGE_BYTES * 8, t)
    encoder = BCHEncoder(spec)
    messages = [rng.bytes(PAGE_BYTES) for _ in range(pages)]
    if stage == "encode":
        live, legacy = encoder.encode_batch, LegacyBCHEncoder(spec).encode_batch
        inputs = messages
    else:
        live = BCHDecoder(spec).syndrome_calculator.syndromes_batch
        legacy = LegacySyndromeCalculator(spec).syndromes_batch
        inputs = [
            _flip_random_bits(cw, errors, spec.n_stored, rng)
            for cw in encoder.encode_codeword_batch(messages)
        ]
    # Cross-check (and build both kernels' tables) outside the timing.
    assert np.array_equal(live(inputs), legacy(inputs)), (
        f"{stage} mismatch vs the legacy kernel"
    )
    return _best_s(legacy, inputs) / _best_s(live, inputs)


def run_benchmark(batch_pages: int = 64, scalar_pages: int = 8,
                  capabilities=CAPABILITIES) -> tuple[str, dict, dict]:
    """Full sweep; returns (report text, speedups-by-t, vs-legacy ratios
    keyed like :data:`MIN_VS_LEGACY`)."""
    rng = np.random.default_rng(20120312)
    lines = [
        "ECC throughput, scalar (byte-serial seed path) vs batch "
        f"(vectorized kernels), {PAGE_BYTES} B pages",
        f"batch={batch_pages} pages, scalar sample={scalar_pages} pages",
        "",
        f"{'t':>4} {'population':>10} {'scalar MB/s':>12} "
        f"{'batch MB/s':>11} {'speedup':>8}",
    ]
    all_speedups = {}
    for t in capabilities:
        result = bench_capability(t, batch_pages, scalar_pages, rng)
        for row in result["rows"]:
            speedup = row["batch_mb_s"] / row["scalar_mb_s"]
            lines.append(
                f"{row['t']:>4} {row['population']:>10} "
                f"{row['scalar_mb_s']:>12.2f} {row['batch_mb_s']:>11.2f} "
                f"{speedup:>7.1f}x"
            )
        all_speedups[t] = result["speedups"]
    legacy_ratios = {
        gate: bench_vs_legacy(*gate, rng) for gate in MIN_VS_LEGACY
    }
    lines += [
        "",
        "vs the frozen kernels (encode: _legacy_encoder.py, syndromes: "
        "_legacy_syndrome.py), best of 5:",
        f"{'stage':>10} {'t':>4} {'pages':>6} {'errors':>7} {'speedup':>8}",
    ] + [
        f"{stage:>10} {t:>4} {pages:>6} {errors:>7} {ratio:>7.1f}x "
        f"(floor {MIN_VS_LEGACY[stage, t, pages, errors]:.0f}x)"
        for (stage, t, pages, errors), ratio in legacy_ratios.items()
    ]
    return "\n".join(lines) + "\n", all_speedups, legacy_ratios


def _save(text: str) -> None:
    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "ecc_throughput.txt").write_text(text)
    print("\n" + text)


def _check(speedups: dict, legacy_ratios: dict) -> list[str]:
    failures = []
    if speedups[65]["clean"] < MIN_CLEAN_SPEEDUP:
        failures.append(
            f"clean-page decode speedup {speedups[65]['clean']:.1f}x "
            f"below the {MIN_CLEAN_SPEEDUP:.0f}x floor"
        )
    if speedups[65]["errored"] < MIN_ERRORED_SPEEDUP:
        failures.append(
            f"errored-page decode speedup {speedups[65]['errored']:.1f}x "
            f"below the {MIN_ERRORED_SPEEDUP:.0f}x floor"
        )
    for (stage, t, pages, errors), ratio in legacy_ratios.items():
        floor = MIN_VS_LEGACY[stage, t, pages, errors]
        if ratio < floor:
            failures.append(
                f"t={t} {stage} ({pages} pages, {errors} errors each) at "
                f"{ratio:.1f}x the legacy kernel, below the {floor:.0f}x floor"
            )
    return failures


@pytest.mark.slow
def test_ecc_throughput(quick):
    """Record the perf trajectory and enforce the batch-datapath floors."""
    text, speedups, legacy_ratios = run_benchmark(
        batch_pages=16 if quick else 64
    )
    _save(text)
    failures = _check(speedups, legacy_ratios)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    report, speedups, legacy_ratios = run_benchmark(
        batch_pages=16 if "--quick" in sys.argv else 64
    )
    _save(report)
    run_failures = _check(speedups, legacy_ratios)
    for failure in run_failures:
        print("FAIL:", failure)
    print(f"t=65 decode floors ({MIN_CLEAN_SPEEDUP:.0f}x clean / "
          f"{MIN_ERRORED_SPEEDUP:.0f}x errored) and vs-legacy floors: "
          f"{'FAIL' if run_failures else 'PASS'}")
    sys.exit(1 if run_failures else 0)
