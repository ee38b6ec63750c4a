"""Frozen generator-dispatch oracle for the flat scheduler core.

``repro.ssd.scheduler.SchedulerCore`` dispatches through one mechanism:
coroutine-free state-machine frames advanced by a burst handler on the
engine's event list.  Those frames are a *transliteration* of resident
generator workers — one coroutine per (die, plane), parked on daemon
wake-up signals, arbitrating buses, ECC engines and cache registers
through handoff-signal locks.  The generator workers are the readable
statement of the schedule, so they stay alive here, outside ``src/``, as
the bit-exactness oracle: :class:`GeneratorSchedulerCore` is the live
core with every dispatch method replaced by the generator original,
its code copied verbatim from the scheduler as it stood when the
workers left the package.  Never edit this file to track the live
scheduler; it exists precisely to stay behind.

Use it directly (``GeneratorSchedulerCore(engine, topology, ...)``) or
route new :class:`~repro.ssd.session.SsdSession` /
:class:`~repro.ssd.scheduler.CommandScheduler` cores through it with
:func:`install` on a pytest ``monkeypatch``.

The one deviation from a verbatim copy is lock checking: the runtime
sanitizer no longer carries generator-lock hooks, so
:class:`_CheckedLock` validates its own ``busy`` transitions (the
former ``DesSanitizer.transition`` body) and raises the same
:class:`~repro.sim.sanitizer.SanitizerError` messages.  The drain
audit reaches the oracle through :meth:`GeneratorSchedulerCore.held_locks`,
the same one-method surface the live core implements.
"""

from __future__ import annotations

from collections import deque

import repro.ssd.scheduler
import repro.ssd.session
from repro.errors import SimulationError
from repro.obs.trace import TRACK_BUS, TRACK_ECC, TRACK_PLANE, TRACK_QUEUE
from repro.sim.engine import Process, SimEngine
from repro.sim.sanitizer import SanitizerError, _fmt
from repro.ssd.scheduler import (
    CommandCompletion,
    CommandKind,
    CommandOrigin,
    DieCommand,
    PipelineConfig,
    SchedulerCore,
    _split_plan_fast,
)
from repro.ssd.topology import SsdTopology


class _Lock:
    """Serially-reusable resource guarded by a wake-up signal.

    ``freed`` is a *handoff* signal: every waiter sits in a
    ``while busy: yield freed`` re-check loop, the one discipline for
    which waking only the head waiter is observably identical to waking
    all of them (see the engine module's determinism contract) — so
    releasing a contended bus no longer schedules a no-op wake-up for
    every other queued worker.

    ``busy`` is a boolean for buses and ECC engines; cache-register
    locks treat it as a small occupancy count (``False == 0``), so a
    double-buffered register under ``PipelineConfig.read_ahead`` holds
    two pages.  At capacity 1 the counting discipline (``+= 1`` /
    ``-= 1``, wait while ``busy >= cap``) is value-for-value identical
    to the boolean one — the equivalence lock for read-ahead off.
    """

    __slots__ = ("busy", "freed")

    def __init__(self, engine: SimEngine):
        self.busy = False
        self.freed = engine.signal(handoff=True)


class _CheckedLock:
    """`_Lock` with validated ``busy`` transitions.

    Constructed instead of `_Lock` when the core's engine carries an
    armed :class:`~repro.sim.sanitizer.DesSanitizer`.  Scheduling
    behaviour is identical — same ``busy`` values, same handoff
    ``freed`` signal, no extra events — so armed generator runs stay
    bit-exact; the only difference is that an invalid transition
    (double acquire, double release, counting past ``capacity``) raises
    :class:`~repro.sim.sanitizer.SanitizerError` at the offending site
    instead of silently corrupting the schedule.
    """

    __slots__ = ("_busy", "freed", "_san", "_key", "_capacity")

    def __init__(self, engine: SimEngine, san, key, capacity: int = 1):
        self._busy = False
        self.freed = engine.signal(handoff=True)
        self._san = san
        self._key = key
        self._capacity = capacity

    @property
    def busy(self):
        return self._busy

    @busy.setter
    def busy(self, value):
        self._transition(self._busy, value)
        self._busy = value

    def _transition(self, old, new) -> None:
        """Validate one ``busy`` transition.

        ``old``/``new`` follow the `_Lock` value domain: booleans for
        buses and ECC engines, small ints for counting cache registers
        (``False == 0``).  Anything other than a single acquire or a
        single release is a violation.
        """
        self._san.checks += 1
        key = self._key
        capacity = self._capacity
        old_n = int(old)
        if new is True:
            if old_n:
                raise SanitizerError(
                    f"double acquire of {_fmt(key)}: acquired while already "
                    f"held (count {old_n})"
                )
        elif new is False:
            if not old_n:
                raise SanitizerError(
                    f"double release of {_fmt(key)}: released while free"
                )
        else:
            new_n = int(new)
            if new_n == old_n + 1:
                if new_n > capacity:
                    raise SanitizerError(
                        f"double acquire of {_fmt(key)}: occupancy {new_n} "
                        f"exceeds capacity {capacity}"
                    )
            elif new_n == old_n - 1:
                if new_n < 0:
                    raise SanitizerError(
                        f"double release of {_fmt(key)}: released while free"
                    )
            elif new_n != old_n:
                raise SanitizerError(
                    f"invalid transition of {_fmt(key)}: busy jumped "
                    f"{old_n} -> {new_n} (locks move one hold at a time)"
                )


def open_admission(
    core: "GeneratorSchedulerCore",
    commands: list[DieCommand],
    window: int | None,
    arrival_s: float,
) -> Process:
    """Open-loop arrival process: paced submissions through a window.

    Admits ``commands`` in order, one every ``arrival_s`` simulated
    seconds, stalling while ``window`` commands are in flight (``None``
    leaves the stream unwindowed).  The generator form — the oracle
    behind the flat admission frame installed by
    :meth:`SchedulerCore.submit_stream`, which replays the exact same
    schedule without a generator resume per arrival.
    """
    limit = len(commands) if window is None else window
    for command in commands:
        while core.in_flight >= limit:
            yield core.completed
        core.enqueue(command, submit_s=core.engine.now_s)
        yield arrival_s


class GeneratorSchedulerCore(SchedulerCore):
    """The scheduler core with generator-worker dispatch.

    Same constructor, external surface (``enqueue`` / ``submit_stream``
    / ``completed`` / ``on_finish`` / busy accounting) and observable
    timestamps as the live flat core; dispatch runs on resident
    generator workers parked on daemon wake-up signals.
    :attr:`fallback_commands` counts the commands they dispatched
    (:attr:`fast_commands` stays zero).
    """

    def __init__(
        self,
        engine: SimEngine,
        topology: SsdTopology,
        pipeline: PipelineConfig | None = None,
        recorder=None,
        host_priority: bool = False,
    ):
        self.engine = engine
        self.topology = topology
        self.pipeline = pipeline or PipelineConfig()
        self.planes = (
            topology.geometry.planes if self.pipeline.multi_plane else 1
        )
        self.completions: list[CommandCompletion] = []
        self.die_busy_s = [0.0] * topology.dies
        self.channel_busy_s = [0.0] * topology.channels
        self.ecc_busy_s = [0.0] * topology.channels
        self.completed = engine.signal()
        self.on_finish: list = []
        self.in_flight = 0
        self.die_inflight = [0] * topology.dies
        self.host_priority = host_priority
        self.recorder = recorder
        if recorder is not None:
            recorder.attach(self)
        self._san = getattr(engine, "sanitizer", None)
        self.fast_commands = 0
        self.fallback_commands = 0
        if self._san is None:
            self._buses = [_Lock(engine) for _ in range(topology.channels)]
            self._engines = [_Lock(engine) for _ in range(topology.channels)]
            self._caches = [
                [_Lock(engine) for _ in range(self.planes)]
                for _ in range(topology.dies)
            ]
            self._queues = [
                [deque() for _ in range(self.planes)]
                for _ in range(topology.dies)
            ]
            self._work = [
                [engine.signal(daemon=True) for _ in range(self.planes)]
                for _ in range(topology.dies)
            ]
        else:
            san = self._san
            cache_cap = 2 if (
                self.pipeline.cache_read and self.pipeline.read_ahead
            ) else 1
            self._buses = [
                _CheckedLock(engine, san, ("bus", ch))
                for ch in range(topology.channels)
            ]
            self._engines = [
                _CheckedLock(engine, san, ("ecc", ch))
                for ch in range(topology.channels)
            ]
            self._caches = [
                [
                    _CheckedLock(engine, san, ("cache", die, slot), cache_cap)
                    for slot in range(self.planes)
                ]
                for die in range(topology.dies)
            ]
            self._queues: list[list[deque[DieCommand]]] = [
                [deque() for _ in range(self.planes)]
                for _ in range(topology.dies)
            ]
            self._work = [
                [engine.signal(daemon=True) for _ in range(self.planes)]
                for _ in range(topology.dies)
            ]
        self._meta: dict[int, tuple[float, float | None]] = {}
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn one worker coroutine per (die, plane)."""
        if self._started:
            raise SimulationError("scheduler core already started")
        self._started = True
        for die in range(self.topology.dies):
            for plane in range(self.planes):
                self.engine.spawn(self._worker(die, plane))

    def held_locks(self) -> list[tuple]:
        """Keys of every lock currently held (the drain audit's view)."""
        held = [
            ("bus", index)
            for index, lock in enumerate(self._buses) if lock.busy
        ]
        held += [
            ("ecc", index)
            for index, lock in enumerate(self._engines) if lock.busy
        ]
        held += [
            ("cache", die, slot)
            for die, row in enumerate(self._caches)
            for slot, lock in enumerate(row) if lock.busy
        ]
        return held

    def wake_workers(self) -> None:
        """Fire the wake-up of every worker with queued work, (die, plane) order."""
        for die_queues, die_signals in zip(self._queues, self._work):
            for queue, signal in zip(die_queues, die_signals):
                if queue:
                    signal.fire()

    # -- submission --------------------------------------------------------------

    def enqueue(
        self,
        command: DieCommand,
        submit_s: float | None = None,
        wake: bool = True,
    ) -> None:
        """Admit one command into the in-flight set at the current time."""
        if not 0 <= command.die < self.topology.dies:
            raise SimulationError(
                f"command die {command.die} outside topology "
                f"({self.topology.dies} dies)"
            )
        if command.tag in self._meta:
            raise SimulationError(
                f"duplicate command tag {command.tag}: tags must be "
                "unique among in-flight commands"
            )
        if self._san is not None:
            self._san.check_command(command)
        self.in_flight += 1
        self.die_inflight[command.die] += 1
        self._meta[command.tag] = (self.engine.now_s, submit_s)
        slot = command.plane % self.planes
        self.fallback_commands += 1
        self._queues[command.die][slot].append(command)
        if wake:
            self._work[command.die][slot].fire()

    def submit_stream(
        self,
        commands: list[DieCommand],
        window: int | None = None,
        arrival_s: float = 0.0,
    ) -> None:
        """Spawn the :func:`open_admission` process for a stream."""
        self.engine.spawn(
            open_admission(self, commands, window, arrival_s)
        )

    # -- internals ---------------------------------------------------------------

    def _finish(self, command: DieCommand, die: int, channel: int) -> None:
        tag = command.tag
        admit_s, submit_s = self._meta.pop(tag)
        completion = CommandCompletion(
            tag=tag,
            die=die,
            channel=channel,
            admit_s=admit_s,
            done_s=self.engine.now_s,
            submit_s=submit_s,
        )
        self.completions.append(completion)
        self.in_flight -= 1
        self.die_inflight[die] -= 1
        self.completed.fire()
        for callback in self.on_finish:
            callback(completion)

    # The channel-section body is spelled out inline in both
    # `_channel_section` and `_read_drain` (and `_channel_section` is
    # itself delegated to from `_worker` at top level only): every
    # `yield from` level adds one frame each `send()` must traverse for
    # every event, and the section loop is the hottest code in the
    # simulator.  The acquire/hold/release pattern is the `_Lock`
    # handoff discipline: `while busy: yield freed` re-check, holder
    # sets `busy`, releases and fires.

    def _channel_section(
        self,
        ops: tuple[tuple[bool, float, float], ...],
        fused_s: float,
        channel: int,
        command: DieCommand,
        kc: int = 0,
    ) -> Process:
        """Run a command's channel/ECC section (no cache register).

        ``kc`` is the span kind code the worker computed at pop (the
        :data:`~repro.obs.trace.KIND_NAMES` index, +3 for GC origin).
        """
        bus = self._buses[channel]
        rec = self.recorder
        span = None if rec is None else rec._spans.append
        if not self.pipeline.pipelined_ecc:
            # Paper-faithful fused section: transfer + encode/decode
            # occupy the bus as one non-pipelined unit (the structural
            # hazard of the single-page-buffer controller FSM).
            while bus.busy:
                yield bus.freed
            bus.busy = True
            yield fused_s
            bus.busy = False
            bus.freed.fire()
            self.channel_busy_s[channel] += fused_s
            if span is not None:
                now = self.engine.now_s
                span((TRACK_BUS, channel, 0,
                      now - fused_s, now, command.tag, kc))
            return
        ecc = self._engines[channel]
        for is_channel, duration, occupancy in ops:
            if is_channel:
                while bus.busy:
                    yield bus.freed
                bus.busy = True
                yield duration
                bus.busy = False
                bus.freed.fire()
                self.channel_busy_s[channel] += duration
                if span is not None:
                    now = self.engine.now_s
                    span((TRACK_BUS, channel, 0,
                          now - duration, now, command.tag, kc))
            else:  # ECC: held for the initiation interval only.
                while ecc.busy:
                    yield ecc.freed
                ecc.busy = True
                yield occupancy
                ecc.busy = False
                ecc.freed.fire()
                self.ecc_busy_s[channel] += occupancy
                if span is not None:
                    now = self.engine.now_s
                    span((TRACK_ECC, channel, 0,
                          now - occupancy, now, command.tag, kc))
                drain = duration - occupancy
                if drain > 0:
                    yield drain

    def _read_drain(
        self,
        command: DieCommand,
        die: int,
        channel: int,
        cache: _Lock,
        ops: tuple[tuple[bool, float, float], ...],
        fused_s: float,
        kc: int = 0,
    ) -> Process:
        """Stream a cached page out and complete its command.

        Identical to `_channel_section` except the cache register is
        freed the moment the data leaves it (fused section done, or
        first bus transfer under pipelined ECC).  Cache releases use
        the counting discipline (see :class:`_Lock`) so a
        double-buffered register frees one slot at a time.
        """
        bus = self._buses[channel]
        rec = self.recorder
        span = None if rec is None else rec._spans.append
        if not self.pipeline.pipelined_ecc:
            while bus.busy:
                yield bus.freed
            bus.busy = True
            yield fused_s
            bus.busy = False
            bus.freed.fire()
            self.channel_busy_s[channel] += fused_s
            if span is not None:
                now = self.engine.now_s
                span((TRACK_BUS, channel, 0,
                      now - fused_s, now, command.tag, kc))
            cache.busy -= 1
            cache.freed.fire()
            self._finish(command, die, channel)
            return
        ecc = self._engines[channel]
        held = cache
        for is_channel, duration, occupancy in ops:
            if is_channel:
                while bus.busy:
                    yield bus.freed
                bus.busy = True
                yield duration
                bus.busy = False
                bus.freed.fire()
                self.channel_busy_s[channel] += duration
                if span is not None:
                    now = self.engine.now_s
                    span((TRACK_BUS, channel, 0,
                          now - duration, now, command.tag, kc))
                if held is not None:
                    held.busy -= 1
                    held.freed.fire()
                    held = None
            else:
                while ecc.busy:
                    yield ecc.freed
                ecc.busy = True
                yield occupancy
                ecc.busy = False
                ecc.freed.fire()
                self.ecc_busy_s[channel] += occupancy
                if span is not None:
                    now = self.engine.now_s
                    span((TRACK_ECC, channel, 0,
                          now - occupancy, now, command.tag, kc))
                drain = duration - occupancy
                if drain > 0:
                    yield drain
        if held is not None:  # no transfer phase: free on exit
            held.busy -= 1
            held.freed.fire()
        self._finish(command, die, channel)

    def _worker(self, die: int, plane: int) -> Process:
        channel = self.topology.channel_of(die)
        queue = self._queues[die][plane]
        work = self._work[die][plane]
        cache_read = self.pipeline.cache_read
        cache_cap = 2 if (cache_read and self.pipeline.read_ahead) else 1
        host_prio = self.host_priority
        gc_origin = CommandOrigin.GC
        rec = self.recorder
        span = None if rec is None else rec._spans.append
        while True:
            while not queue:
                yield work
            command = queue.popleft()
            if host_prio and command.origin is gc_origin:
                # Host-priority pop: a queued host command jumps the
                # GC work ahead of it; the GC command keeps its place
                # at the head for the next pop.
                for index, candidate in enumerate(queue):
                    if candidate.origin is not gc_origin:
                        del queue[index]
                        queue.appendleft(command)
                        command = candidate
                        break
            kind = command.kind
            kc = 0 if kind is CommandKind.READ else (
                1 if kind is CommandKind.PROGRAM else 2
            )
            if command.origin is gc_origin:
                kc += 3
            if span is not None:
                span((TRACK_QUEUE, die, plane,
                      self._meta[command.tag][0], self.engine.now_s,
                      command.tag, kc))
            array, ops, fused = _split_plan_fast(command.phase_plan())
            if kind is CommandKind.READ:
                # Sense into the plane's page buffer, then stream out.
                for duration in array:
                    yield duration
                    self.die_busy_s[die] += duration
                    if span is not None:
                        now = self.engine.now_s
                        span((TRACK_PLANE, die, plane,
                              now - duration, now, command.tag, kc))
                if cache_read and ops:
                    # Hand the page to the cache register and sense on.
                    cache = self._caches[die][plane]
                    while cache.busy >= cache_cap:
                        yield cache.freed
                    cache.busy += 1
                    if command.cache_busy_s > 0:  # tRCBSY handoff
                        yield command.cache_busy_s
                        self.die_busy_s[die] += command.cache_busy_s
                        if span is not None:
                            now = self.engine.now_s
                            span((TRACK_PLANE, die, plane,
                                  now - command.cache_busy_s, now,
                                  command.tag, kc))
                    self.engine.spawn(self._read_drain(
                        command, die, channel, cache, ops, fused, kc
                    ))
                    continue  # completion happens in the drain
                yield from self._channel_section(
                    ops, fused, channel, command, kc
                )
            elif kind is CommandKind.PROGRAM:
                # Encode + stream in (bus frees for siblings), then
                # busy the plane with the ISPP.
                yield from self._channel_section(
                    ops, fused, channel, command, kc
                )
                for duration in array:
                    yield duration
                    self.die_busy_s[die] += duration
                    if span is not None:
                        now = self.engine.now_s
                        span((TRACK_PLANE, die, plane,
                              now - duration, now, command.tag, kc))
            else:  # ERASE: array-only, no data on the bus.
                for duration in array:
                    yield duration
                    self.die_busy_s[die] += duration
                    if span is not None:
                        now = self.engine.now_s
                        span((TRACK_PLANE, die, plane,
                              now - duration, now, command.tag, kc))
            self._finish(command, die, channel)


def install(monkeypatch) -> None:
    """Build every new session and closed-batch core on the oracle.

    Patches the ``SchedulerCore`` name that :class:`SsdSession` and
    :class:`CommandScheduler` construct from; cores that already exist
    keep their dispatch.  Pass ``monkeypatch`` (or a
    ``monkeypatch.context()``) so the patch ends with the test.
    """
    monkeypatch.setattr(
        repro.ssd.session, "SchedulerCore", GeneratorSchedulerCore
    )
    monkeypatch.setattr(
        repro.ssd.scheduler, "SchedulerCore", GeneratorSchedulerCore
    )
