"""Observability overhead: the cost of the telemetry layer.

This PR threaded phase-level trace hooks through the scheduler's hot
paths (guarded ``if span is not None`` on hoisted locals).  This
benchmark is the gate that keeps them honest: it measures the 4ch x
4die mixed-open acceptance stream (the same shape ``bench_sim_speed``
gates) in three modes, repeats interleaved in one process:

* ``pristine`` — a verbatim replica of the scheduler as it stood
  before the telemetry layer (``_pristine_sched``), the honest
  uninstrumented denominator;
* ``off`` — the live scheduler with no recorder attached: what every
  ordinary run pays for the hooks' existence;
* ``traced`` — the live scheduler with a :class:`TraceRecorder`
  capturing every phase span: the full-tracing worst case.

All three modes must agree on the simulated makespan bit-for-bit (the
hooks may not perturb the simulation), and the traced run's
per-resource span totals must reconcile with the scheduler's own busy
accumulators to float tolerance.  Two CI-enforced floors:

* disabled instrumentation >= ``MIN_DISABLED_RATIO`` (0.97x) of
  pristine ops/s — the hooks are free when off;
* full tracing >= ``MIN_TRACED_RATIO`` (0.5x) of pristine ops/s —
  tracing is cheap enough to leave on when investigating.

The traced run's Chrome trace is exported to
``benchmarks/out/trace_observability.json`` (load it in Perfetto);
results append to ``benchmarks/out/BENCH_observability.json`` — the
observability-overhead trajectory.

Run standalone (``python benchmarks/bench_observability.py [--quick]``)
or through pytest; ``--quick`` shrinks the stream and repeat count.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import _pristine_sched  # noqa: E402  (path bootstrap above)
from _trajectory import append_run  # noqa: E402
import repro.ssd.scheduler as _live_sched  # noqa: E402
from repro.nand.timing import NandTimingModel  # noqa: E402
from repro.obs import TraceRecorder  # noqa: E402
from repro.sim.engine import SimEngine  # noqa: E402
from repro.ssd.topology import SsdTopology  # noqa: E402

#: CI floor: the live scheduler with no recorder attached must stay
#: within 3% of the pre-instrumentation replica (wall clocks on shared
#: runners are noisy; the guarded hooks measure as free locally).
MIN_DISABLED_RATIO = 0.97

#: CI floor: full phase tracing must keep at least half the pristine
#: throughput — cheap enough to leave on when investigating.
MIN_TRACED_RATIO = 0.5

#: Absolute reconciliation tolerance (seconds) between trace-span
#: totals and the scheduler's busy accumulators: fsum over spans vs
#: running addition of identical intervals stays at epsilon scale.
RECONCILE_TOL_S = 1e-9

#: The acceptance topology and stream shape (same as bench_sim_speed's
#: mixed-open gate).
GATE_TOPOLOGY = (4, 4)
OPS = 12_000
QUICK_OPS = 3_000
OPEN_WINDOW = 256
OPEN_ARRIVAL_S = 2e-6

_TIMING = NandTimingModel()
READ_PHASES = _TIMING.read_phases(30e-6, 60e-6, 110e-6, 28e-6)
PROGRAM_PHASES = _TIMING.program_phases(200e-6, 60e-6, 25e-6)
CACHE_BUSY_S = 3e-6

OUT_PATH = Path(__file__).parent / "out" / "BENCH_observability.json"
TRACE_PATH = Path(__file__).parent / "out" / "trace_observability.json"

MODES = ("pristine", "off", "traced")


def _build_stream(
    sched, n: int, dies: int, read_fraction: float = 0.7, seed: int = 7
) -> list:
    """Random die/plane command stream with the given read fraction.

    ``sched`` is the scheduler *module* the stream targets: the frozen
    replica defines its own ``CommandKind``/``DieCommand`` classes, and
    its workers dispatch on enum identity — each mode must be fed
    commands built from its own module's classes.
    """
    rng = random.Random(seed)
    commands = []
    for tag in range(n):
        die, plane = rng.randrange(dies), rng.randrange(2)
        if rng.random() < read_fraction:
            commands.append(sched.DieCommand.from_phases(
                sched.CommandKind.READ, die, tag, READ_PHASES,
                plane=plane, cache_busy_s=CACHE_BUSY_S,
            ))
        else:
            commands.append(sched.DieCommand.from_phases(
                sched.CommandKind.PROGRAM, die, tag, PROGRAM_PHASES,
                plane=plane,
            ))
    return commands


def _reconcile(recorder: TraceRecorder, core) -> None:
    """Assert span totals match the busy accumulators per resource."""
    totals = recorder.busy_totals()
    for name, accumulators in (
        ("die", core.die_busy_s),
        ("channel", core.channel_busy_s),
        ("ecc", core.ecc_busy_s),
    ):
        for index, (span_s, busy_s) in enumerate(
            zip(totals[name], accumulators)
        ):
            if abs(span_s - busy_s) > RECONCILE_TOL_S:
                raise AssertionError(
                    f"{name} {index}: trace spans total {span_s!r} s but "
                    f"the scheduler accumulated {busy_s!r} s"
                )


def _run(
    mode: str, topology: SsdTopology, commands
) -> tuple[float, float, TraceRecorder | None]:
    """(wall seconds, simulated makespan, recorder) for one run."""
    recorder = TraceRecorder() if mode == "traced" else None
    engine = SimEngine()
    sched = _pristine_sched if mode == "pristine" else _live_sched
    # The frozen replica still selects its flat core by flag; the live
    # core has no other dispatcher.
    kwargs = {"flat": True} if mode == "pristine" else {"recorder": recorder}
    core = sched.SchedulerCore(
        engine, topology, sched.PipelineConfig.full(), **kwargs
    )
    core.start()
    engine.run()  # park the resident dispatchers before the stream
    core.submit_stream(commands, window=OPEN_WINDOW, arrival_s=OPEN_ARRIVAL_S)
    start = time.perf_counter()
    makespan = engine.run()
    wall = time.perf_counter() - start
    if core.fast_commands != len(commands):
        raise AssertionError(
            f"{mode}: flat core dispatched {core.fast_commands} of "
            f"{len(commands)} commands; the rest fell back"
        )
    if recorder is not None:
        _reconcile(recorder, core)
    return wall, makespan, recorder


def run_benchmark(quick: bool = False) -> tuple[str, dict]:
    """Measure the three modes; returns (report text, metrics)."""
    ops = QUICK_OPS if quick else OPS
    repeats = 3 if quick else 5
    channels, dies_per_channel = GATE_TOPOLOGY
    topology = SsdTopology(channels=channels, dies_per_channel=dies_per_channel)
    streams = {
        "pristine": _build_stream(_pristine_sched, ops, topology.dies),
        "off": _build_stream(_live_sched, ops, topology.dies),
        "traced": _build_stream(_live_sched, ops, topology.dies),
    }
    # Interleave repeats across modes (same rationale as bench_sim_speed:
    # clock drift must hit every mode alike for honest ratios).
    walls = {mode: float("inf") for mode in MODES}
    makespans: dict[str, float] = {}
    last_recorder: TraceRecorder | None = None
    for mode in MODES:  # untimed warm-up: a 3% floor cannot absorb
        _run(mode, topology, streams[mode])  # cold-start effects
    for _ in range(repeats):
        for mode in MODES:
            wall, makespan, recorder = _run(mode, topology, streams[mode])
            if makespans.setdefault(mode, makespan) != makespan:
                raise AssertionError(f"non-deterministic makespan in {mode}")
            walls[mode] = min(walls[mode], wall)
            if recorder is not None:
                last_recorder = recorder
    if len(set(makespans.values())) != 1:
        raise AssertionError(
            f"modes disagree on makespan: {makespans} — the trace hooks "
            "perturbed the simulation"
        )
    TRACE_PATH.parent.mkdir(exist_ok=True)
    last_recorder.export_chrome_trace(TRACE_PATH)
    disabled_ratio = walls["pristine"] / walls["off"]
    traced_ratio = walls["pristine"] / walls["traced"]
    label = f"{channels}x{dies_per_channel}"
    lines = [
        "Observability overhead: mixed-open acceptance stream, live "
        "scheduler vs pre-instrumentation replica (same process)",
        f"({label} topology, {ops} commands, window {OPEN_WINDOW}, "
        f"{OPEN_ARRIVAL_S * 1e6:.0f} us arrivals, best of {repeats})",
        "",
        f"{'mode':>9} {'ops/s':>9} {'vs pristine':>12}",
    ]
    results = []
    for mode in MODES:
        ratio = walls["pristine"] / walls[mode]
        results.append({
            "mode": mode,
            "ops_per_sec": round(ops / walls[mode], 1),
            "ratio_vs_pristine": round(ratio, 3),
            "makespan_s": makespans[mode],
        })
        lines.append(
            f"{mode:>9} {ops / walls[mode]:>9.0f} {ratio:>11.2f}x"
        )
    lines += [
        "",
        f"spans recorded (traced): {len(last_recorder)}; trace exported "
        f"to {TRACE_PATH.name}",
        f"disabled-instrumentation gate: {disabled_ratio:.3f}x of pristine "
        f"(CI floor {MIN_DISABLED_RATIO:.2f}x)",
        f"full-tracing gate: {traced_ratio:.3f}x of pristine "
        f"(CI floor {MIN_TRACED_RATIO:.2f}x)",
    ]
    metrics = {
        "disabled_ratio": disabled_ratio,
        "traced_ratio": traced_ratio,
        "spans": len(last_recorder),
        "results": results,
        "config": {
            "ops": ops,
            "repeats": repeats,
            "open_window": OPEN_WINDOW,
            "open_arrival_s": OPEN_ARRIVAL_S,
        },
    }
    return "\n".join(lines) + "\n", metrics


def _save(text: str, metrics: dict, quick: bool) -> None:
    """Append this run to the trajectory JSON and print the table."""
    append_run(
        OUT_PATH,
        {
            "benchmark": "observability",
            "gate": {
                "topology": f"{GATE_TOPOLOGY[0]}x{GATE_TOPOLOGY[1]}",
                "shape": "mixed-open",
                "disabled_floor": MIN_DISABLED_RATIO,
                "traced_floor": MIN_TRACED_RATIO,
            },
        },
        {
            "disabled_ratio_vs_pristine": round(metrics["disabled_ratio"], 3),
            "traced_ratio_vs_pristine": round(metrics["traced_ratio"], 3),
            "spans": metrics["spans"],
            "results": metrics["results"],
        },
        quick,
        metrics["config"],
    )
    print("\n" + text)


def _check(metrics: dict) -> list[str]:
    failures = []
    if metrics["disabled_ratio"] < MIN_DISABLED_RATIO:
        failures.append(
            f"disabled instrumentation at {metrics['disabled_ratio']:.3f}x "
            f"of pristine throughput, below the {MIN_DISABLED_RATIO:.2f}x "
            "floor"
        )
    if metrics["traced_ratio"] < MIN_TRACED_RATIO:
        failures.append(
            f"full tracing at {metrics['traced_ratio']:.3f}x of pristine "
            f"throughput, below the {MIN_TRACED_RATIO:.2f}x floor"
        )
    return failures


@pytest.mark.slow
def test_observability_overhead(quick):
    """Record the overhead trajectory and enforce both floors."""
    text, metrics = run_benchmark(quick=quick)
    _save(text, metrics, quick)
    failures = _check(metrics)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    is_quick = "--quick" in sys.argv
    report, run_metrics = run_benchmark(quick=is_quick)
    _save(report, run_metrics, is_quick)
    run_failures = _check(run_metrics)
    for failure in run_failures:
        print("FAIL:", failure)
    print(
        f"observability floors (disabled >= {MIN_DISABLED_RATIO:.2f}x, "
        f"traced >= {MIN_TRACED_RATIO:.2f}x of pristine): "
        f"{run_metrics['disabled_ratio']:.3f}x / "
        f"{run_metrics['traced_ratio']:.3f}x "
        f"{'FAIL' if run_failures else 'PASS'}"
    )
    sys.exit(1 if run_failures else 0)
