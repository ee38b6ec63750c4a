"""Simulation-speed trajectory: simulated ops/sec across the topology grid.

This PR made sim speed a first-class metric; this benchmark is the
instrument.  It drives the command scheduler directly (timing only — no
BCH math, no page data) so what is measured is exactly the DES hot loop:
event-list push/pop, generator resumption, signal wake-ups and resource
reservation.

Three workload shapes per topology (1x1 up to 8x8 channels x dies):

* ``reads-closed`` / ``writes-closed`` — homogeneous closed batches at
  queue depth 32: the die-striped FTL's bread-and-butter pattern.  The
  ``fast`` mode runs it through ``CommandScheduler`` (the live flat
  dispatch core).
* ``mixed-open`` — an open-loop 70/30 read/program stream with paced
  2 us arrivals through a 256-deep in-flight window, transfer-heavy
  phase shapes (bus-saturated: the thundering-herd regime the handoff
  signals eliminated).  This is the acceptance shape.  ``fast`` drives
  it through the flat dispatch core (``SchedulerCore.submit_stream``):
  coroutine-free state-machine frames with same-instant wakes and
  strict-minimum self-transitions short-circuiting the event list.
  The run asserts the flat core dispatched every command
  (``fast_commands``).

The ``oracle`` mode runs every shape on the frozen generator-worker
dispatcher (``tests/ssd/_generator_oracle.py``, imported through the
path bootstrap below): resident coroutines parked on handoff signals,
on the same heap event list as the live engine.

Every mode is measured against ``legacy`` — a verbatim replica of the
pre-PR engine *and* scheduler core (``_legacy_sim``: dataclass events,
one global heap, wake-all signals, per-command phase list comps) run in
the same process, so the speedup column is an honest same-machine
ratio.  All modes of a shape must agree on the simulated makespan
bit-for-bit; the benchmark asserts it.

Two acceptance gates on the 4ch x 4die ``mixed-open`` stream:

* vs pre-PR: the new engine must clear ``MIN_SPEEDUP_TARGET`` (3x) at
  PR time; CI enforces the regression floor ``MIN_SPEEDUP_FLOOR`` (2x)
  on every run (shared-runner wall clocks are noisy; the floor leaves
  headroom while still catching a real regression);
* flat vs generator: the flat core must beat the frozen generator
  oracle by ``MIN_FAST_SPEEDUP_FLOOR`` (1.5x, target
  ``MIN_FAST_SPEEDUP_TARGET`` 2x), CI-enforced like the legacy gate.

Results append to ``benchmarks/out/BENCH_sim_speed.json`` — the
sim-speed trajectory.

Run standalone (``python benchmarks/bench_sim_speed.py [--quick]``) or
through pytest; ``--quick`` shrinks streams and skips the 8x8 point.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "tests" / "ssd"))

from _trajectory import append_run  # noqa: E402  (path bootstrap above)
from _generator_oracle import (  # noqa: E402  (path bootstrap above)
    GeneratorSchedulerCore,
)
from _legacy_sim import (  # noqa: E402  (path bootstrap above)
    LegacySchedulerCore,
    LegacySimEngine,
    legacy_closed_admission,
)
from repro.nand.timing import NandTimingModel  # noqa: E402
from repro.sim.engine import SimEngine  # noqa: E402
from repro.ssd.scheduler import (  # noqa: E402
    CommandKind,
    CommandScheduler,
    DieCommand,
    PipelineConfig,
    SchedulerCore,
    closed_admission,
)
from repro.ssd.topology import SsdTopology  # noqa: E402

#: CI regression floor on the 4ch x 4die mixed-open speedup (best
#: mode): wall-clock ratios on shared runners are noisy, so the
#: enforced floor sits below the target this trajectory demonstrated.
MIN_SPEEDUP_FLOOR = 2.0

#: The tentpole target demonstrated when this trajectory started.
MIN_SPEEDUP_TARGET = 3.0

#: CI floor on the 4x4 mixed-open flat-core speedup over the frozen
#: generator oracle (same event list, same process, same stream,
#: repeats interleaved in one benchmark run).
MIN_FAST_SPEEDUP_FLOOR = 1.5

#: The flat-dispatch target when the fast trajectory point landed.
MIN_FAST_SPEEDUP_TARGET = 2.0

#: (channels, dies_per_channel) grid; 8x8 is skipped under --quick.
TOPOLOGIES = ((1, 1), (2, 2), (4, 4), (8, 8))

#: The acceptance topology for the mixed-open speedup gate.
GATE_TOPOLOGY = (4, 4)

#: Commands per (topology, shape) measurement.
OPS = 12_000
QUICK_OPS = 3_000

#: Mixed-open stream parameters: in-flight window and arrival spacing.
OPEN_WINDOW = 256
OPEN_ARRIVAL_S = 2e-6

#: Closed-batch queue depth.
CLOSED_QD = 32

_TIMING = NandTimingModel()

#: Transfer-heavy phase shapes (see module docstring): pipelined-decoder
#: read and a short-ISPP program, both with 60 us bus transfers.
READ_PHASES = _TIMING.read_phases(30e-6, 60e-6, 110e-6, 28e-6)
PROGRAM_PHASES = _TIMING.program_phases(200e-6, 60e-6, 25e-6)
CACHE_BUSY_S = 3e-6

OUT_PATH = Path(__file__).parent / "out" / "BENCH_sim_speed.json"


def _build_stream(
    n: int, dies: int, read_fraction: float, seed: int = 7
) -> list[DieCommand]:
    """Random die/plane command stream with the given read fraction."""
    rng = random.Random(seed)
    commands: list[DieCommand] = []
    for tag in range(n):
        die, plane = rng.randrange(dies), rng.randrange(2)
        if rng.random() < read_fraction:
            commands.append(DieCommand.from_phases(
                CommandKind.READ, die, tag, READ_PHASES,
                plane=plane, cache_busy_s=CACHE_BUSY_S,
            ))
        else:
            commands.append(DieCommand.from_phases(
                CommandKind.PROGRAM, die, tag, PROGRAM_PHASES, plane=plane,
            ))
    return commands


def _open_admission(core, commands, window: int, arrival_s: float):
    """Open-loop arrival process: paced submissions through a window."""
    for command in commands:
        while core.in_flight >= window:
            yield core.completed
        core.enqueue(command, submit_s=core.engine.now_s)
        yield arrival_s


def _run_open(mode: str, topology: SsdTopology, commands) -> tuple[float, float]:
    """(wall seconds, simulated makespan) for one mixed-open run."""
    if mode == "legacy":
        engine = LegacySimEngine()
        core = LegacySchedulerCore(engine, topology, PipelineConfig.full())
        core.start()
        engine.spawn(_open_admission(core, commands, OPEN_WINDOW, OPEN_ARRIVAL_S))
        start = time.perf_counter()
        makespan = engine.run()
        return time.perf_counter() - start, makespan
    flat = mode == "fast"
    engine = SimEngine()
    core_cls = SchedulerCore if flat else GeneratorSchedulerCore
    core = core_cls(engine, topology, PipelineConfig.full())
    core.start()
    engine.run()  # park the resident dispatchers before the stream
    core.submit_stream(commands, window=OPEN_WINDOW, arrival_s=OPEN_ARRIVAL_S)
    start = time.perf_counter()
    makespan = engine.run()
    wall = time.perf_counter() - start
    if flat and core.fast_commands != len(commands):
        raise AssertionError(
            f"flat core dispatched {core.fast_commands} of "
            f"{len(commands)} commands; the rest fell back"
        )
    return wall, makespan


def _run_closed(mode: str, topology: SsdTopology, commands) -> tuple[float, float]:
    """(wall seconds, simulated makespan) for one closed-batch run."""
    if mode == "legacy":
        engine = LegacySimEngine()
        core = LegacySchedulerCore(engine, topology, PipelineConfig.full())
        # Admission before workers: CommandScheduler's spawn order (the
        # sequence numbers, and hence tie-breaks, depend on it).
        engine.spawn(legacy_closed_admission(core, commands, CLOSED_QD))
        core.start()
        start = time.perf_counter()
        makespan = engine.run()
        return time.perf_counter() - start, makespan
    if mode == "fast":
        scheduler = CommandScheduler(topology, pipeline=PipelineConfig.full())
        start = time.perf_counter()
        result = scheduler.run(commands, queue_depth=CLOSED_QD)
        return time.perf_counter() - start, result.makespan_s
    # The frozen generator oracle.
    engine = SimEngine()
    core = GeneratorSchedulerCore(engine, topology, PipelineConfig.full())
    engine.spawn(closed_admission(core, commands, CLOSED_QD))
    core.start()
    start = time.perf_counter()
    makespan = engine.run()
    return time.perf_counter() - start, makespan


def _measure(
    runner, modes, topology, commands, repeats: int
) -> tuple[dict[str, float], dict[str, float]]:
    """Best-of-N wall times per mode, repeats interleaved across modes.

    Round-robin over the modes rather than per-mode blocks: CPU
    frequency and cache state drift over a multi-second benchmark, and
    block ordering hands whichever mode runs in the fastest window an
    unearned edge.  Interleaving exposes every mode to the same drift,
    so the speedup ratios compare like with like.  Per-mode makespans
    are asserted stable across repeats.
    """
    walls: dict[str, float] = {mode: float("inf") for mode in modes}
    makespans: dict[str, float] = {}
    for _ in range(repeats):
        for mode in modes:
            wall, mk = runner(mode, topology, commands)
            if mode not in makespans:
                makespans[mode] = mk
            elif mk != makespans[mode]:
                raise AssertionError(f"non-deterministic makespan in {mode}")
            walls[mode] = min(walls[mode], wall)
    return walls, makespans


def run_benchmark(quick: bool = False) -> tuple[str, dict]:
    """Measure the grid; returns (report text, metrics)."""
    ops = QUICK_OPS if quick else OPS
    repeats = 2 if quick else 3
    topologies = [t for t in TOPOLOGIES if not (quick and t == (8, 8))]
    modes = ("legacy", "oracle", "fast")
    shapes = (
        ("reads-closed", _run_closed, 1.0, modes),
        ("writes-closed", _run_closed, 0.0, modes),
        ("mixed-open", _run_open, 0.7, modes),
    )
    lines = [
        "Simulation speed: simulated ops/sec, new engine vs verbatim "
        "pre-PR engine+scheduler (same process, same stream)",
        f"(full pipeline, {ops} commands, best of {repeats}; mixed-open: "
        f"window {OPEN_WINDOW}, {OPEN_ARRIVAL_S * 1e6:.0f} us arrivals; "
        f"closed: QD {CLOSED_QD})",
        "",
        f"{'topology':>9} {'shape':>14} {'mode':>9} {'ops/s':>9} {'speedup':>8}",
    ]
    results = []
    gate_speedups: dict[str, float] = {}
    gate_walls: dict[str, float] = {}
    for channels, dies_per_channel in topologies:
        topology = SsdTopology(channels=channels, dies_per_channel=dies_per_channel)
        label = f"{channels}x{dies_per_channel}"
        for shape, runner, read_fraction, modes in shapes:
            commands = _build_stream(ops, topology.dies, read_fraction)
            walls, mode_makespans = _measure(
                runner, modes, topology, commands, repeats
            )
            makespans = set(mode_makespans.values())
            baseline_wall = walls["legacy"]
            for mode in modes:
                wall = walls[mode]
                makespan = mode_makespans[mode]
                speedup = baseline_wall / wall
                results.append({
                    "topology": label,
                    "shape": shape,
                    "mode": mode,
                    "ops_per_sec": round(ops / wall, 1),
                    "speedup_vs_legacy": round(speedup, 3),
                    "makespan_s": makespan,
                })
                lines.append(
                    f"{label:>9} {shape:>14} {mode:>9} {ops / wall:>9.0f} "
                    f"{speedup:>7.2f}x"
                )
                if (
                    (channels, dies_per_channel) == GATE_TOPOLOGY
                    and shape == "mixed-open"
                ):
                    gate_walls[mode] = wall
                    if mode != "legacy":
                        gate_speedups[mode] = speedup
            if len(makespans) != 1:
                raise AssertionError(
                    f"{label}/{shape}: modes disagree on makespan: {makespans}"
                )
    gate = max(gate_speedups.values()) if gate_speedups else 0.0
    # Flat core vs the frozen generator oracle.
    fast_gate = gate_walls["oracle"] / gate_walls["fast"]
    metrics = {
        "gate_speedup": gate,
        "gate_speedups": gate_speedups,
        "fast_gate_speedup": fast_gate,
        "results": results,
        "config": {
            "ops": ops,
            "repeats": repeats,
            "topologies": [f"{c}x{d}" for c, d in topologies],
            "open_window": OPEN_WINDOW,
            "open_arrival_s": OPEN_ARRIVAL_S,
            "closed_qd": CLOSED_QD,
        },
    }
    lines += [
        "",
        f"gate (4x4 mixed-open, best mode): {gate:.2f}x vs pre-PR "
        f"(target {MIN_SPEEDUP_TARGET:.1f}x at PR time, CI floor "
        f"{MIN_SPEEDUP_FLOOR:.1f}x)",
        f"fast gate (4x4 mixed-open, flat vs generator oracle): "
        f"{fast_gate:.2f}x (target {MIN_FAST_SPEEDUP_TARGET:.1f}x, CI "
        f"floor {MIN_FAST_SPEEDUP_FLOOR:.1f}x)",
    ]
    return "\n".join(lines) + "\n", metrics


def _save(text: str, metrics: dict, quick: bool) -> None:
    """Append this run to the trajectory JSON and print the table."""
    append_run(
        OUT_PATH,
        {
            "benchmark": "sim_speed",
            "gate": {
                "topology": f"{GATE_TOPOLOGY[0]}x{GATE_TOPOLOGY[1]}",
                "shape": "mixed-open",
                "floor": MIN_SPEEDUP_FLOOR,
                "target": MIN_SPEEDUP_TARGET,
                "fast_floor": MIN_FAST_SPEEDUP_FLOOR,
                "fast_target": MIN_FAST_SPEEDUP_TARGET,
            },
        },
        {
            "gate_speedup_vs_legacy": round(metrics["gate_speedup"], 3),
            "gate_speedups": {
                mode: round(value, 3)
                for mode, value in metrics["gate_speedups"].items()
            },
            "fast_gate_speedup_vs_generator": round(
                metrics["fast_gate_speedup"], 3
            ),
            "results": metrics["results"],
        },
        quick,
        metrics["config"],
    )
    print("\n" + text)


def _check(metrics: dict) -> list[str]:
    failures = []
    if metrics["gate_speedup"] < MIN_SPEEDUP_FLOOR:
        failures.append(
            f"4x4 mixed-open speedup {metrics['gate_speedup']:.2f}x vs the "
            f"pre-PR engine, below the {MIN_SPEEDUP_FLOOR:.1f}x floor"
        )
    if metrics["fast_gate_speedup"] < MIN_FAST_SPEEDUP_FLOOR:
        failures.append(
            f"4x4 mixed-open flat-core speedup "
            f"{metrics['fast_gate_speedup']:.2f}x vs the generator oracle, "
            f"below the {MIN_FAST_SPEEDUP_FLOOR:.1f}x floor"
        )
    return failures


@pytest.mark.slow
def test_sim_speed(quick):
    """Record the sim-speed grid and enforce the speedup floor."""
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
        f"sim-speed floor (>= {MIN_SPEEDUP_FLOOR:.1f}x on 4x4 mixed-open): "
        f"{run_metrics['gate_speedup']:.2f}x; fast floor "
        f"(>= {MIN_FAST_SPEEDUP_FLOOR:.1f}x flat vs generator oracle): "
        f"{run_metrics['fast_gate_speedup']:.2f}x "
        f"{'FAIL' if run_failures else 'PASS'}"
    )
    sys.exit(1 if run_failures else 0)
