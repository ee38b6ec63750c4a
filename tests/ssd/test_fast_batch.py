"""Flat dispatch core: bit-exact equivalence against the generator oracle.

The flat core (``SchedulerCore`` driving ``_flat_burst``) is a
transliteration of generator workers onto coroutine-free state-machine
frames; the workers themselves live on as the frozen oracle in
``_generator_oracle.py``.  These tests pin the contract that the flat
core is *bit-exact* against it, not merely close: identical completion
order, identical timestamps, identical busy accounting, event counts
and makespan, for every pipeline configuration, command kind
(homogeneous and mixed), queue depth and topology — on the fresh
:class:`CommandScheduler` surface, the resident
:meth:`SsdSession.execute` surface, and the open-loop
:meth:`SchedulerCore.submit_stream` stream (mid-flight admission,
window backpressure and tie-heavy arrival regimes included).

The last section replays a full open-loop session (FTL data path, ECC,
error injection, backlog, doorbell) on both dispatchers: completions
must be byte-identical.
"""

import random

import pytest

from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.errors import SimulationError
from repro.nand.geometry import NandGeometry
from repro.nand.timing import NandTimingModel
from repro.sim.engine import SimEngine
from repro.ssd import (
    DieStripedFtl,
    IoCommand,
    PipelineConfig,
    SsdDevice,
    SsdSession,
    SsdTopology,
)
from repro.ssd.scheduler import (
    CommandKind,
    CommandScheduler,
    DieCommand,
    SchedulerCore,
)
from repro.workloads.traces import TraceOpKind

from _generator_oracle import GeneratorSchedulerCore, install, open_admission

# Neat-number phase shapes: durations are exact multiples of 5 us so
# independent command chains collide on identical timestamps constantly
# — the regime where a tie-break divergence between the fast path and
# the generator path would surface immediately.
READ_PHASES = NandTimingModel.read_phases(
    sense_s=50e-6, transfer_s=20e-6, decode_s=40e-6, decode_hold_s=25e-6
)
PROGRAM_PHASES = NandTimingModel.program_phases(
    program_s=200e-6, transfer_s=20e-6, encode_s=15e-6
)
ERASE_PHASES = NandTimingModel.erase_phases(2e-3)

PIPELINES = [
    PipelineConfig.serial(),
    PipelineConfig(cache_read=True),
    PipelineConfig(pipelined_ecc=True),
    PipelineConfig.full(),
]


def _stream(kind: CommandKind, n: int, dies: int, seed: int) -> list[DieCommand]:
    """Homogeneous random die/plane stream of one command kind."""
    rng = random.Random(seed)
    phases = {
        CommandKind.READ: READ_PHASES,
        CommandKind.PROGRAM: PROGRAM_PHASES,
        CommandKind.ERASE: ERASE_PHASES,
    }[kind]
    cache_busy_s = 3e-6 if kind is CommandKind.READ else 0.0
    return [
        DieCommand.from_phases(
            kind, die=rng.randrange(dies), tag=tag, phases=phases,
            plane=rng.randrange(2), cache_busy_s=cache_busy_s,
        )
        for tag in range(n)
    ]


def _assert_identical(fast, slow) -> None:
    """Every observable of a ScheduleResult, compared bit-for-bit."""
    assert fast.completions == slow.completions
    assert fast.makespan_s == slow.makespan_s
    assert fast.die_busy_s == slow.die_busy_s
    assert fast.channel_busy_s == slow.channel_busy_s
    assert fast.ecc_busy_s == slow.ecc_busy_s


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("pipeline", PIPELINES, ids=lambda p: p.describe())
    @pytest.mark.parametrize(
        "kind", [CommandKind.READ, CommandKind.PROGRAM, CommandKind.ERASE]
    )
    @pytest.mark.parametrize("channels,dies_per_channel,queue_depth,seed", [
        (1, 1, None, 3),
        (2, 2, 4, 11),
        (4, 2, 32, 23),
    ])
    def test_fresh_run_bit_exact(
        self, monkeypatch, pipeline, kind, channels, dies_per_channel,
        queue_depth, seed,
    ):
        topology = SsdTopology(
            channels=channels, dies_per_channel=dies_per_channel
        )
        commands = _stream(kind, 48, topology.dies, seed)
        fast = CommandScheduler(topology, pipeline=pipeline).run(
            commands, queue_depth
        )
        install(monkeypatch)
        slow = CommandScheduler(topology, pipeline=pipeline).run(
            commands, queue_depth
        )
        _assert_identical(fast, slow)

    def test_mixed_batch_runs_flat_and_matches(self, monkeypatch):
        # Mixed-kind batches used to fall back to the generator
        # workers; the flat core replays heterogeneous phase plans
        # directly and must still match the generators bit-for-bit.
        topology = SsdTopology(channels=2, dies_per_channel=2)
        rng = random.Random(5)
        commands = []
        for tag in range(40):
            kind = rng.choice([CommandKind.READ, CommandKind.PROGRAM])
            commands.append(_stream(kind, 1, topology.dies, tag)[0])
        commands = [
            DieCommand.from_phases(
                c.kind, die=c.die, tag=tag, phases=c.phases, plane=c.plane,
                cache_busy_s=c.cache_busy_s,
            )
            for tag, c in enumerate(commands)
        ]
        fast = CommandScheduler(
            topology, pipeline=PipelineConfig.full()
        ).run(commands, queue_depth=8)
        install(monkeypatch)
        slow = CommandScheduler(
            topology, pipeline=PipelineConfig.full()
        ).run(commands, queue_depth=8)
        _assert_identical(fast, slow)


class TestSessionEquivalence:
    @pytest.mark.parametrize("pipeline", PIPELINES, ids=lambda p: p.describe())
    @pytest.mark.parametrize(
        "kind", [CommandKind.READ, CommandKind.PROGRAM, CommandKind.ERASE]
    )
    def test_resident_execute_bit_exact(self, monkeypatch, pipeline, kind):
        # Back-to-back batches through one resident session, checked
        # against an oracle-session twin AND a fresh oracle scheduler —
        # the rebase()/reset_accounting() reuse path must not drift.
        topology = SsdTopology(channels=2, dies_per_channel=2)
        fast_session = SsdSession(
            ssd=SsdDevice(topology, seed=0, pipeline=pipeline),
        )
        install(monkeypatch)
        slow_session = SsdSession(
            ssd=SsdDevice(topology, seed=0, pipeline=pipeline),
        )
        assert isinstance(slow_session.core, GeneratorSchedulerCore)
        for round_seed in (7, 41):
            commands = _stream(kind, 32, topology.dies, round_seed)
            fast = fast_session.execute(list(commands), queue_depth=6)
            slow = slow_session.execute(list(commands), queue_depth=6)
            _assert_identical(fast, slow)
            fresh = CommandScheduler(topology, pipeline=pipeline).run(
                list(commands), queue_depth=6
            )
            _assert_identical(fast, fresh)


# ---------------------------------------------------------------------------
# Open-loop streams: the flat core vs the generator oracle, bit-for-bit.
# ---------------------------------------------------------------------------

ALL_KINDS = (CommandKind.READ, CommandKind.PROGRAM, CommandKind.ERASE)


def _mixed_stream(
    n: int, dies: int, seed: int, kinds=ALL_KINDS, first_tag: int = 0
) -> list[DieCommand]:
    """Random mixed-kind die/plane stream (reads, programs, erases)."""
    rng = random.Random(seed)
    phases = {
        CommandKind.READ: READ_PHASES,
        CommandKind.PROGRAM: PROGRAM_PHASES,
        CommandKind.ERASE: ERASE_PHASES,
    }
    return [
        DieCommand.from_phases(
            kind, die=rng.randrange(dies), tag=first_tag + i,
            phases=phases[kind], plane=rng.randrange(2),
            cache_busy_s=3e-6 if kind is CommandKind.READ else 0.0,
        )
        for i, kind in enumerate(
            kinds[rng.randrange(len(kinds))] for _ in range(n)
        )
    ]


def _stream_core(
    flat: bool, pipeline, channels: int = 2, dies_per_channel: int = 2
) -> SchedulerCore:
    """A started, parked core (flat, or the oracle) on a drained engine."""
    engine = SimEngine()
    topology = SsdTopology(
        channels=channels, dies_per_channel=dies_per_channel
    )
    core_cls = SchedulerCore if flat else GeneratorSchedulerCore
    core = core_cls(engine, topology, pipeline)
    core.start()
    engine.run()
    return core


def _observe(core: SchedulerCore):
    """Every observable of a drained open-loop run, bit-comparable."""
    return (
        core.engine.now_s,
        list(core.completions),
        core.engine.events_processed,
        list(core.die_busy_s),
        list(core.channel_busy_s),
        list(core.ecc_busy_s),
    )


class TestOpenLoopEquivalence:
    @pytest.mark.parametrize("pipeline", PIPELINES, ids=lambda p: p.describe())
    def test_mixed_open_stream_bit_exact(self, pipeline):
        results = {}
        for flat in (True, False):
            core = _stream_core(flat, pipeline)
            commands = _mixed_stream(64, core.topology.dies, seed=17)
            core.submit_stream(commands, window=8, arrival_s=5e-6)
            core.engine.run()
            results[flat] = _observe(core)
            if flat:
                assert core.fast_commands == len(commands)
            else:
                assert core.fallback_commands == len(commands)
                assert core.fast_commands == 0
        assert results[True] == results[False]

    @pytest.mark.parametrize("channels,dies_per_channel", [
        (1, 1), (1, 4), (4, 1), (4, 4),
    ], ids=["1x1", "1x4", "4x1", "4x4"])
    def test_open_stream_bit_exact_across_topologies(
        self, channels, dies_per_channel
    ):
        # One die behind one bus, four dies sharing a bus, four private
        # buses, and the full 4x4 fan-out: each shifts the contention
        # between planes, buses and ECC engines.
        results = {}
        for flat in (True, False):
            core = _stream_core(
                flat, PipelineConfig.full(), channels, dies_per_channel
            )
            commands = _mixed_stream(48, core.topology.dies, seed=37)
            core.submit_stream(commands, window=6, arrival_s=5e-6)
            core.engine.run()
            assert len(core.completions) == len(commands)
            results[flat] = _observe(core)
        assert results[True] == results[False]

    def test_mid_flight_enqueue_bit_exact(self):
        # New commands admitted while the stream is mid-flight (the
        # engine paused at an arbitrary instant) must replay exactly.
        results = {}
        for flat in (True, False):
            core = _stream_core(flat, PipelineConfig.full())
            commands = _mixed_stream(40, core.topology.dies, seed=29)
            core.submit_stream(commands, window=16, arrival_s=4e-6)
            core.engine.run(until_s=120e-6)
            assert core.in_flight > 0  # genuinely mid-flight
            for extra in _mixed_stream(
                6, core.topology.dies, seed=31, first_tag=1000
            ):
                core.enqueue(extra, submit_s=core.engine.now_s)
            core.engine.run()
            results[flat] = _observe(core)
        assert results[True] == results[False]

    def test_window_backpressure_bit_exact(self):
        # A tiny in-flight window forces the admission stream to park
        # on the completion doorbell between almost every command.
        results = {}
        for flat in (True, False):
            core = _stream_core(flat, PipelineConfig.full())
            commands = _mixed_stream(48, core.topology.dies, seed=43)
            core.submit_stream(commands, window=2, arrival_s=1e-6)
            makespan = core.engine.run()
            results[flat] = _observe(core)
            # Backpressure genuinely engaged: the stream took far
            # longer than the unimpeded arrival schedule.
            assert makespan > len(commands) * 1e-6 * 2
        assert results[True] == results[False]

    def test_submit_stream_matches_manual_oracle(self):
        # The flat admission frame replays the oracle's open_admission
        # process spawned by hand — pin that they allocate identically.
        sugar = _stream_core(True, PipelineConfig.full())
        commands = _mixed_stream(32, sugar.topology.dies, seed=53)
        sugar.submit_stream(commands, window=4, arrival_s=3e-6)
        sugar.engine.run()
        manual = _stream_core(False, PipelineConfig.full())
        manual.engine.spawn(
            open_admission(manual, list(commands), 4, 3e-6)
        )
        manual.engine.run()
        assert _observe(sugar) == _observe(manual)

    def test_one_stream_at_a_time(self):
        core = _stream_core(True, PipelineConfig.full())
        commands = _mixed_stream(24, core.topology.dies, seed=59)
        core.submit_stream(commands, window=2, arrival_s=1e-6)
        with pytest.raises(SimulationError, match="one stream at a time"):
            core.submit_stream(commands, window=2, arrival_s=1e-6)
        core.engine.run()
        # Drained: a follow-up stream is accepted and replays exactly.
        follow = _mixed_stream(
            24, core.topology.dies, seed=61, first_tag=100
        )
        core.submit_stream(follow, window=4, arrival_s=2e-6)
        core.engine.run()
        assert len(core.completions) == 48


class TestHeldLocks:
    """``held_locks`` (the sanitizer's drain-audit view) tracks the oracle.

    Paused at the same instants, the flat core and the oracle must hold
    the same buses, ECC engines and cache registers — and none once the
    stream drains.
    """

    @pytest.mark.parametrize("pipeline", PIPELINES, ids=lambda p: p.describe())
    def test_held_locks_match_oracle_at_every_pause(self, pipeline):
        snapshots = {}
        for flat in (True, False):
            core = _stream_core(flat, pipeline)
            commands = _mixed_stream(40, core.topology.dies, seed=67)
            core.submit_stream(commands, window=8, arrival_s=5e-6)
            held = []
            pause = 0.0
            while not core.engine.idle:
                pause += 7e-6
                core.engine.run(until_s=pause)
                held.append((core.in_flight, core.held_locks()))
            assert core.held_locks() == []
            snapshots[flat] = held
        assert any(locks for _, locks in snapshots[True])
        assert snapshots[True] == snapshots[False]


class TestTieHeavyDeterminism:
    """Completion-order determinism when everything collides.

    Same-instant arrivals (``arrival_s=0``) with neat-multiple phase
    durations put dozens of frames on identical timestamps — the regime
    where the flat core's deferred-wake and strict-minimum elisions
    would surface any sequence-order divergence from the generators.
    """

    @pytest.mark.parametrize("seed", [3, 19, 71])
    def test_same_instant_arrivals_deterministic_and_exact(self, seed):
        traces = {}
        for flat in (True, False):
            runs = []
            for _ in range(2):
                core = _stream_core(flat, PipelineConfig.full())
                commands = _mixed_stream(56, core.topology.dies, seed=seed)
                core.submit_stream(commands, window=None, arrival_s=0.0)
                core.engine.run()
                runs.append(_observe(core))
            assert runs[0] == runs[1]  # deterministic replay
            traces[flat] = runs[0]
        assert traces[True] == traces[False]  # and oracle-exact

    @pytest.mark.parametrize("pipeline", PIPELINES, ids=lambda p: p.describe())
    def test_same_instant_unwindowed_bit_exact_per_pipeline(self, pipeline):
        # Every command admitted at t=0 with no window: the largest
        # same-timestamp pile-up, on each pipeline tier.
        results = {}
        for flat in (True, False):
            core = _stream_core(flat, pipeline)
            commands = _mixed_stream(56, core.topology.dies, seed=89)
            core.submit_stream(commands, window=None, arrival_s=0.0)
            core.engine.run()
            assert len(core.completions) == len(commands)
            results[flat] = _observe(core)
        assert results[True] == results[False]

    @pytest.mark.parametrize("pipeline", PIPELINES, ids=lambda p: p.describe())
    def test_zero_arrival_window_one_serialises_exactly(self, pipeline):
        # Window 1 under same-instant arrivals: every admission waits
        # on the previous completion — pure doorbell traffic.
        results = {}
        for flat in (True, False):
            core = _stream_core(flat, pipeline)
            commands = _mixed_stream(20, core.topology.dies, seed=83)
            core.submit_stream(commands, window=1, arrival_s=0.0)
            core.engine.run()
            results[flat] = _observe(core)
        assert results[True] == results[False]


class TestSessionFastPathStats:
    def test_flat_session_counts_fast_commands(self):
        topology = SsdTopology(channels=2, dies_per_channel=2)
        session = SsdSession(
            ssd=SsdDevice(topology, seed=0, pipeline=PipelineConfig.full()),
        )
        commands = _stream(CommandKind.READ, 24, topology.dies, 5)
        session.execute(list(commands), queue_depth=4)
        stats = session.fast_path_stats
        assert stats.fast == 24
        assert stats.fallback == 0
        assert stats.total == 24


class TestEngineFlatSurface:
    def test_attach_flat_twice_raises(self):
        engine = SimEngine()
        engine.attach_flat(lambda event, until_s: (None, 1))
        with pytest.raises(SimulationError, match="already attached"):
            engine.attach_flat(lambda event, until_s: (None, 1))

    def test_schedule_at_past_raises(self):
        topology = SsdTopology(channels=1, dies_per_channel=1)
        engine = SimEngine()
        core = SchedulerCore(engine, topology, PipelineConfig.full())
        core.start()
        engine.run()
        core.submit_stream(
            _mixed_stream(4, topology.dies, seed=2), arrival_s=1e-6
        )
        engine.run()
        with pytest.raises(SimulationError, match="into the past"):
            engine.schedule_at(engine.now_s - 1e-6, [0])


# ---------------------------------------------------------------------------
# Full open-loop sessions on both dispatchers, byte-identical.
# ---------------------------------------------------------------------------


def _build_ftl(pipeline, seed=2012, wear=10_000):
    topology = SsdTopology(
        channels=2,
        dies_per_channel=2,
        geometry=NandGeometry(blocks=8, pages_per_block=8),
    )
    ssd = SsdDevice(
        topology, policy=CrossLayerPolicy(), seed=seed, pipeline=pipeline
    )
    for controller in ssd.controllers:
        controller.device.array._wear[:] = wear
    ssd.set_mode(OperatingMode.BASELINE, pe_reference=float(wear))
    return DieStripedFtl(ssd)


def _open_loop_trace():
    """One full open-loop session; returns its trace."""
    ftl = _build_ftl(PipelineConfig.full())
    page = ftl.geometry.page_data_bytes
    rng = random.Random(99)
    ftl.write_many([(lpn, bytes([lpn]) * page) for lpn in range(8)])
    session = SsdSession(ftl, queue_depth=4)
    ops = []
    for _ in range(48):
        if rng.random() < 0.6:
            ops.append(IoCommand(TraceOpKind.READ, rng.randrange(8)))
        else:
            ops.append(IoCommand(
                TraceOpKind.WRITE, rng.randrange(8), rng.randbytes(page)
            ))

    def arrivals():
        for io in ops:
            session.submit(io)
            yield 15e-6  # fast arrivals: keeps the backlog exercised

    session.engine.spawn(arrivals())
    session.drain()
    completions = session.take_completions()
    assert len(completions) == len(ops)
    smart = session.metrics().as_dict()
    # The one dispatcher-specific counter: the oracle reports its
    # commands as fallback, not fast.
    del smart["dispatch_fast_commands"]
    return (
        [
            (c.tag, c.kind, c.lpn, c.data, c.submit_s, c.dispatch_s, c.done_s)
            for c in completions
        ],
        session.engine.now_s,
        session.engine.events_processed,
        smart,
    )


class TestOracleReplay:
    def test_install_routes_new_cores_through_oracle(self, monkeypatch):
        topology = SsdTopology(channels=1, dies_per_channel=1)
        before = SsdSession(ssd=SsdDevice(topology, seed=0))
        install(monkeypatch)
        after = SsdSession(ssd=SsdDevice(topology, seed=0))
        assert type(before.core) is SchedulerCore
        assert type(after.core) is GeneratorSchedulerCore

    def test_open_loop_session_identical_on_flat_and_oracle(
        self, monkeypatch
    ):
        flat = _open_loop_trace()
        install(monkeypatch)
        assert _open_loop_trace() == flat
