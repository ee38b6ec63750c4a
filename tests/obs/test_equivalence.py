"""Trace-on/trace-off equivalence: recording must not perturb the sim.

The instrumentation contract: every hook sits behind a ``recorder is
None`` check and records *at* the scheduler's existing accounting
points, changing no event ordering, sequence allocation or float
arithmetic.  These tests enforce it — makespans, completion tuples and
busy accumulators must be bit-identical with and without a recorder,
on the flat dispatch core and on the frozen generator oracle — and the
two dispatchers must record the same span set.
"""

import random

import pytest

from repro.nand.timing import NandTimingModel
from repro.obs import TraceRecorder
from repro.sim.engine import SimEngine
from repro.ssd.scheduler import (
    CommandKind,
    DieCommand,
    PipelineConfig,
    SchedulerCore,
    closed_admission,
)
from repro.ssd.topology import SsdTopology

from _generator_oracle import GeneratorSchedulerCore

_TIMING = NandTimingModel()
READ_PHASES = _TIMING.read_phases(30e-6, 60e-6, 110e-6, 28e-6)
PROGRAM_PHASES = _TIMING.program_phases(200e-6, 60e-6, 25e-6)


def _stream(n: int, dies: int, seed: int = 7) -> list[DieCommand]:
    rng = random.Random(seed)
    commands = []
    for tag in range(n):
        die, plane = rng.randrange(dies), rng.randrange(2)
        if rng.random() < 0.7:
            commands.append(DieCommand.from_phases(
                CommandKind.READ, die, tag, READ_PHASES,
                plane=plane, cache_busy_s=3e-6,
            ))
        else:
            commands.append(DieCommand.from_phases(
                CommandKind.PROGRAM, die, tag, PROGRAM_PHASES, plane=plane,
            ))
    return commands


def _run(flat: bool, traced: bool, closed: bool = False):
    """One mixed run (flat core or oracle); returns its outcome.

    The stream is admitted open-loop through ``submit_stream``, or with
    ``closed=True`` as a queue-depth-bounded closed batch.
    """
    recorder = TraceRecorder() if traced else None
    engine = SimEngine()
    topology = SsdTopology(channels=2, dies_per_channel=2)
    core_cls = SchedulerCore if flat else GeneratorSchedulerCore
    core = core_cls(
        engine, topology, PipelineConfig.full(), recorder=recorder,
    )
    completions = []
    core.on_finish.append(lambda completion: completions.append(
        tuple(completion)
    ))
    if closed:
        engine.spawn(closed_admission(core, _stream(200, topology.dies), 8))
        core.start()
    else:
        core.start()
        engine.run()
        core.submit_stream(_stream(400, topology.dies), window=64,
                           arrival_s=2e-6)
    makespan = engine.run()
    return {
        "makespan": makespan,
        "completions": completions,
        "die_busy": list(core.die_busy_s),
        "channel_busy": list(core.channel_busy_s),
        "ecc_busy": list(core.ecc_busy_s),
        "fast_commands": core.fast_commands,
        "recorder": recorder,
    }


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "generators"])
def test_traced_run_is_bit_identical_to_untraced(flat):
    untraced = _run(flat, traced=False)
    traced = _run(flat, traced=True)
    # Bit-identical, not approx: the hooks must not touch the sim.
    assert traced["makespan"] == untraced["makespan"]
    assert traced["completions"] == untraced["completions"]
    assert traced["die_busy"] == untraced["die_busy"]
    assert traced["channel_busy"] == untraced["channel_busy"]
    assert traced["ecc_busy"] == untraced["ecc_busy"]
    assert traced["fast_commands"] == untraced["fast_commands"]
    assert len(traced["recorder"]) > 0


def test_dispatch_paths_record_identical_span_sets():
    """Flat core and generator oracle emit the same spans (any order)."""
    flat = _run(True, traced=True)
    oracle = _run(False, traced=True)
    assert flat["makespan"] == oracle["makespan"]
    assert flat["completions"] == oracle["completions"]
    assert sorted(flat["recorder"].spans) == sorted(oracle["recorder"].spans)


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "generators"])
def test_traced_closed_batch_is_bit_identical_to_untraced(flat):
    untraced = _run(flat, traced=False, closed=True)
    traced = _run(flat, traced=True, closed=True)
    recorder = traced.pop("recorder")
    untraced.pop("recorder")
    assert traced == untraced
    assert len(untraced["completions"]) == 200
    assert len(recorder) > 0


def test_closed_batch_span_sets_identical_on_flat_and_oracle():
    flat = _run(True, traced=True, closed=True)
    oracle = _run(False, traced=True, closed=True)
    assert flat["makespan"] == oracle["makespan"]
    assert flat["completions"] == oracle["completions"]
    assert sorted(flat["recorder"].spans) == sorted(oracle["recorder"].spans)
