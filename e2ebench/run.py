"""Run one end-to-end session workload and print its metrics.

    python3 e2ebench/run.py --workload eol_read --seed 1 --seconds 30 --trace 0

A run is a fixed number of rounds, ``--seconds`` divided by the
workload's nominal round time (at least two).  A round builds the stack
from scratch after clearing the code-construction caches, so each
set-up pays what a fresh process pays, then streams one set of inputs
derived from ``(--seed, round input index)``.

``--trace 0`` streams distinct inputs in every round but the last,
which repeats the first round's inputs; it prints the end-to-end
metrics: host rates and set-up times as medians over rounds, simulated
metrics pooled over the distinct rounds.  ``--trace 1`` streams each
input set twice, untraced then traced, and prints the per-layer split
(medians over the traced rounds) plus the tracing overhead.  Every
repeat of an input set must reproduce its simulated counters bit for
bit, traced or not.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Result and span files go to ``.e2ebench_out/`` at the
root of the checkout.  The exit code is 0 only when every op was
verified and every identity check held.
"""

from __future__ import annotations

import os

# One thread for every numeric library, before anything imports numpy.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".e2ebench_out"

#: End-to-end metrics (untraced rounds): name -> unit.
END_TO_END = {
    "host_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_iops": "1/s",
    "sim_read_p50_us": "us",
    "sim_read_tail_us": "us",
}

#: Layers whose calls and pages are counted, besides their self time.
COUNTED = (
    "bch.encode", "bch.decode", "nand.read", "nand.program", "nand.erase",
)

#: Simulated per-layer metrics (read from the program's own counters).
SIM_PER_LAYER = {
    "bch.corrected_bits": "bits",
    "bch.decode_failures": "codewords",
    "bch.observed_rber": "ratio",
    "nand.media_page_reads": "pages",
    "nand.media_page_programs": "pages",
    "nand.media_block_erases": "blocks",
    "ftl.write_amplification": "ratio",
    "ftl.gc.collections": "count",
    "ftl.gc.pages_migrated": "pages",
    "ftl.gc.background_collections": "count",
    "ssd.die_util": "ratio",
    "ssd.channel_util": "ratio",
    "ssd.ecc_util": "ratio",
    "ssd.service_p50_us": "us",
    "ssd.service_tail_us": "us",
    "ssd.queue_tail_us": "us",
    "sim.events": "count",
}


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics (traced rounds): name -> unit, in report order."""
    from e2ebench.spans import LAYER_SPANS

    units: dict[str, str] = {}
    for layer in LAYER_SPANS:
        if layer in COUNTED:
            units[f"{layer}.calls"] = "count"
            units[f"{layer}.pages"] = "pages"
        else:
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["bch.encode.gc_pages"] = "pages"
    units["bch.decode.pages_per_call"] = "pages/call"
    units.update(SIM_PER_LAYER)
    units["sim.host_us_per_event"] = "us"
    units["trace.wall_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead"] = "ratio"
    units["trace.spans"] = "count"
    for layer in LAYER_SPANS:
        units[f"setup.{layer}.self_s"] = "s"
    units["setup.unattributed_s"] = "s"
    units["setup.wall_s"] = "s"
    return units


def _phase(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def run_round(workload, inputs, tracer):
    """One set-up plus measured phase; (setup_s, Measured, problems)."""
    from e2ebench.workloads import clear_code_caches, measure, precondition

    gc.collect()
    with tracer.installed() if tracer is not None else nullcontext():
        with _phase(tracer, "setup"):
            start = perf_counter()
            clear_code_caches()
            stack = workload.build(inputs)
            problems = precondition(workload, stack, inputs)
            setup_s = perf_counter() - start
        with _phase(tracer, "measure"):
            measured = measure(stack, inputs)
    return setup_s, measured, problems


def layer_metrics(summary: dict, measured, overhead: float) -> dict:
    """Per-layer metric values of one traced round."""
    from e2ebench.spans import LAYER_SPANS

    phase = summary["measure"]
    layers = phase["layers"]
    values: dict[str, float] = {}
    for layer in LAYER_SPANS:
        values[f"{layer}.calls"] = layers[layer]["calls"]
        if layer in COUNTED:
            values[f"{layer}.pages"] = layers[layer]["pages"]
        values[f"{layer}.self_s"] = layers[layer]["self_s"]
    values["bch.encode.gc_pages"] = phase["encode_gc_pages"]
    decode = layers["bch.decode"]
    values["bch.decode.pages_per_call"] = (
        decode["pages"] / decode["calls"] if decode["calls"] else 0.0
    )
    for name in SIM_PER_LAYER:
        values[name] = measured.sim[name]
    values["sim.host_us_per_event"] = (
        layers["sim.run"]["self_s"] / measured.sim["sim.events"] * 1e6
    )
    values["trace.wall_s"] = phase["wall_s"]
    values["trace.unattributed_s"] = phase["unattributed_s"]
    values["trace.overhead"] = overhead
    values["trace.spans"] = phase["spans"]
    setup = summary["setup"]
    for layer in LAYER_SPANS:
        values[f"setup.{layer}.self_s"] = setup["layers"][layer]["self_s"]
    values["setup.unattributed_s"] = setup["unattributed_s"]
    values["setup.wall_s"] = setup["wall_s"]
    return values


def plan(trace: bool, count: int) -> list[tuple[int, bool]]:
    """(input index, traced) of each round of a run of ``count`` rounds."""
    if trace:
        return [
            (index, traced)
            for index in range(max(1, count // 2))
            for traced in (False, True)
        ]
    distinct = [(index, False) for index in range(max(1, count - 1))]
    return distinct + [(0, False)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from e2ebench import spans as spanlib
        from e2ebench.stats import identity_mismatches, median, provenance
        from e2ebench.workloads import WORKLOADS, pooled
    except ImportError as exc:
        print(f"e2ebench: cannot import the stack: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"e2ebench: unknown workload {args.workload!r}; pick from "
            f"{sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    count = max(2, int(args.seconds / workload.round_s))

    rounds = []  # (input index, traced, setup_s, Measured, span summary)
    errors: list[str] = []
    attempted = failed = 0
    last_spans = None
    for index, traced in plan(bool(args.trace), count):
        inputs = workload.inputs(args.seed, index)
        tracer = spanlib.Tracer() if traced else None
        try:
            setup_s, measured, problems = run_round(workload, inputs, tracer)
        except Exception:  # the run ends here; its ops count as failed
            errors.append(traceback.format_exc())
            attempted += len(inputs.stream)
            failed += len(inputs.stream)
            break
        attempted += measured.attempted
        failed += measured.failed
        errors.extend(problems + measured.errors)
        if errors:
            break
        summary = None
        if traced:
            summary = spanlib.summarize(tracer.spans)
            for phase, entry in summary.items():
                if abs(entry["reconcile_error_s"]) > 1e-6:
                    errors.append(
                        f"traced {phase}: self times miss the wall time by "
                        f"{entry['reconcile_error_s']:.3g} s"
                    )
            last_spans = tracer.spans
        for first in rounds:
            if first[0] == index:
                label = (
                    f"inputs {index} {'traced' if traced else 'untraced'} "
                    "repeat"
                )
                errors.extend(
                    identity_mismatches(first[3].sim, measured.sim, label)
                )
                break
        rounds.append((index, traced, setup_s, measured, summary))

    metrics: dict[str, dict] = {}
    samples: dict = {}
    if not errors:
        untraced = [r for r in rounds if not r[1]]
        if args.trace:
            traced_rounds = [r for r in rounds if r[1]]
            overhead = median([r[3].seconds for r in traced_rounds]) / median(
                [r[3].seconds for r in untraced]
            )
            per_round = [
                layer_metrics(r[4], r[3], overhead) for r in traced_rounds
            ]
            for name, unit in per_layer_units().items():
                value = median([values[name] for values in per_round])
                metrics[name] = {"value": value, "unit": unit}
        else:
            distinct = {r[0]: r[3] for r in reversed(untraced)}
            sim, samples = pooled([distinct[i] for i in sorted(distinct)])
            values = {
                "host_ops_per_s": median(
                    [r[3].attempted / r[3].seconds for r in untraced]
                ),
                "setup_s": median([r[2] for r in untraced]),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                ),
                **sim,
            }
            for name, unit in END_TO_END.items():
                metrics[name] = {"value": values[name], "unit": unit}

    correct = not errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": workload.name,
        "why": workload.why,
        "provenance": provenance(ROOT, args.seed, workload.config),
        "rounds": [
            {
                "inputs": index,
                "traced": traced,
                "setup_s": setup_s,
                "measure_s": measured.seconds,
                "host_ops_per_s": measured.attempted / measured.seconds,
                "sim": measured.sim,
            }
            for index, traced, setup_s, measured, _ in rounds
        ],
        "samples": samples,
        "errors": errors,
        **result,
    }, indent=1) + "\n")
    if last_spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps({
            "fields": list(spanlib.Span._fields),
            "spans": spanlib.export(last_spans),
        }) + "\n")

    print(f"workload {workload.name} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} ops attempted, {failed} failed")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    for name, info in samples.items():
        print(f"  {name}: {info['n']} samples, tail = p{info['tail_pct']:g}")
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
