"""Discrete-event engine tests."""

import heapq
import random

import pytest

from repro.errors import SimulationError
from repro.sim.engine import HeapEventList, SimEngine


class TestEngine:
    def test_single_process_advances_clock(self):
        log = []

        def process():
            log.append("a")
            yield 5.0
            log.append("b")
            yield 2.0
            log.append("c")

        engine = SimEngine()
        engine.spawn(process())
        final = engine.run()
        assert log == ["a", "b", "c"]
        assert final == pytest.approx(7.0)

    def test_two_processes_interleave(self):
        log = []

        def make(name, delay):
            def process():
                for i in range(3):
                    log.append((name, i))
                    yield delay
            return process()

        engine = SimEngine()
        engine.spawn(make("fast", 1.0))
        engine.spawn(make("slow", 2.5))
        engine.run()
        # fast's second step (t=1) precedes slow's second step (t=2.5).
        assert log.index(("fast", 1)) < log.index(("slow", 1))

    def test_run_until_bounds_virtual_time(self):
        def process():
            while True:
                yield 1.0

        engine = SimEngine()
        engine.spawn(process())
        final = engine.run(until_s=10.0, max_events=1000)
        assert final == pytest.approx(10.0)
        assert engine.events_processed <= 11

    def test_deterministic_tie_breaking(self):
        log = []

        def make(name):
            def process():
                log.append(name)
                yield 1.0
                log.append(name)
            return process()

        engine = SimEngine()
        engine.spawn(make("first"))
        engine.spawn(make("second"))
        engine.run()
        assert log == ["first", "second", "first", "second"]

    def test_runaway_guard(self):
        def process():
            while True:
                yield 0.0

        engine = SimEngine()
        engine.spawn(process())
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_invalid_yield(self):
        def process():
            yield -1.0

        engine = SimEngine()
        engine.spawn(process())
        with pytest.raises(SimulationError):
            engine.run()

    def test_negative_spawn_delay(self):
        engine = SimEngine()
        with pytest.raises(SimulationError):
            engine.spawn(iter(()), delay_s=-1.0)


class TestSignal:
    def test_fire_wakes_parked_processes_in_park_order(self):
        log = []

        def waiter(name, signal):
            log.append((name, "park"))
            yield signal
            log.append((name, "woke"))

        def firer(signal):
            yield 3.0
            signal.fire()

        engine = SimEngine()
        signal = engine.signal()
        engine.spawn(waiter("a", signal))
        engine.spawn(waiter("b", signal))
        engine.spawn(firer(signal))
        final = engine.run()
        assert final == pytest.approx(3.0)
        assert log == [
            ("a", "park"), ("b", "park"), ("a", "woke"), ("b", "woke"),
        ]

    def test_fire_reports_woken_count_and_clears_waiters(self):
        def waiter(signal):
            yield signal

        def firer(signal, counts):
            yield 1.0
            counts.append(signal.fire())
            counts.append(signal.fire())

        engine = SimEngine()
        signal = engine.signal()
        counts = []
        engine.spawn(waiter(signal))
        engine.spawn(firer(signal, counts))
        engine.run()
        assert counts == [1, 0]

    def test_parked_process_without_firer_deadlocks(self):
        def waiter(signal):
            yield signal

        engine = SimEngine()
        signal = engine.signal()
        engine.spawn(waiter(signal))
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run()

    def test_woken_process_resumes_at_fire_time(self):
        times = []

        def waiter(engine, signal):
            yield signal
            times.append(engine.now_s)
            yield 2.0
            times.append(engine.now_s)

        def firer(signal):
            yield 5.0
            signal.fire()

        engine = SimEngine()
        signal = engine.signal()
        engine.spawn(waiter(engine, signal))
        engine.spawn(firer(signal))
        engine.run()
        assert times == [pytest.approx(5.0), pytest.approx(7.0)]


class TestDaemonSignalsAndRebase:
    def test_daemon_parked_process_is_not_a_deadlock(self):
        def worker(signal):
            while True:
                yield signal

        engine = SimEngine()
        signal = engine.signal(daemon=True)
        engine.spawn(worker(signal))
        assert engine.run() == 0.0  # drains with the worker still parked

    def test_daemon_worker_survives_across_runs(self):
        served = []

        def worker(engine, signal, queue):
            while True:
                while not queue:
                    yield signal
                item = queue.pop(0)
                yield 1.0
                served.append((item, engine.now_s))

        def submit(signal, queue, item):
            queue.append(item)
            signal.fire()
            yield 0.0

        engine = SimEngine()
        signal = engine.signal(daemon=True)
        queue = []
        engine.spawn(worker(engine, signal, queue))
        engine.run()
        engine.spawn(submit(signal, queue, "a"))
        engine.run()
        engine.spawn(submit(signal, queue, "b"))
        engine.run()
        assert served == [("a", 1.0), ("b", 2.0)]

    def test_non_daemon_park_still_detected(self):
        def waiter(signal):
            yield signal

        engine = SimEngine()
        engine.spawn(waiter(engine.signal()))
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run()

    def test_rebase_resets_idle_clock(self):
        def tick():
            yield 3.5

        engine = SimEngine()
        engine.spawn(tick())
        assert engine.run() == 3.5
        assert engine.idle
        engine.rebase()
        assert engine.now_s == 0.0
        engine.spawn(tick())
        assert engine.run() == 3.5  # fresh-engine float arithmetic

    def test_rebase_with_pending_events_rejected(self):
        engine = SimEngine()
        engine.spawn(iter([]), delay_s=1.0)
        assert not engine.idle
        with pytest.raises(SimulationError, match="rebase"):
            engine.rebase()

    def test_max_events_guard_is_per_run_not_lifetime(self):
        def tick(n):
            for _ in range(n):
                yield 1.0

        engine = SimEngine()
        for _ in range(4):  # 4 runs x 60 events: fine at max_events=100
            engine.spawn(tick(59))
            engine.run(max_events=100)
        assert engine.events_processed == 4 * 60
        engine.spawn(tick(150))
        with pytest.raises(SimulationError, match="exceeded"):
            engine.run(max_events=100)


def _random_schedule_agreement(rng, event_list, steps: int) -> None:
    """Interleave pushes/pops; the list must match a reference heap."""
    reference: list = []
    now = 0.0
    seq = 0
    for step in range(steps):
        if reference and rng.random() < 0.45:
            popped = event_list.pop()
            expected = heapq.heappop(reference)
            assert popped == expected, f"diverged at step {step}"
            now = popped[0]
        else:
            # Heavy tie mass: ~1/3 of pushes land exactly at `now`
            # (signal wake-ups do), the rest spread over the phase
            # spectrum from sub-microsecond offsets to multi-millisecond
            # erases.
            offset = rng.choice([0.0, 0.0, 1e-7, 5e-6, 64e-6, 3e-3])
            entry = (now + offset * rng.random(), seq, None)
            seq += 1
            event_list.push(entry)
            heapq.heappush(reference, entry)
    while reference:
        assert event_list.pop() == heapq.heappop(reference)
    assert not event_list
    assert len(event_list) == 0


class TestHeapEventList:
    @pytest.mark.parametrize("seed", range(5))
    def test_heap_event_list_matches_reference(self, seed):
        rng = random.Random(seed)
        _random_schedule_agreement(rng, HeapEventList(), steps=300)

    def test_fifo_within_one_timestamp(self):
        # All at one instant: pop order must be exactly push (seq) order.
        events = HeapEventList()
        entries = [(1e-3, seq, None) for seq in range(50)]
        for entry in entries:
            events.push(entry)
        assert [events.pop() for _ in entries] == entries

    def test_reuse_after_drain_accepts_earlier_times(self):
        # A drained list is reused at a rebased (smaller) clock: entries
        # earlier than anything popped before still come out first.
        events = HeapEventList()
        events.push((5e-3, 0, None))
        assert events.pop() == (5e-3, 0, None)
        events.push((1e-6, 2, None))
        events.push((0.0, 1, None))
        assert events.pop() == (0.0, 1, None)
        assert events.pop() == (1e-6, 2, None)
        with pytest.raises(IndexError):
            events.pop()  # the run loop's drain sentinel


class TestSingleEventList:
    """The heap is the engine's only event list: no backend options."""

    @pytest.mark.parametrize("option", ["event_list", "bucket_width_s"])
    def test_removed_backend_option_rejected(self, option):
        with pytest.raises(TypeError, match=option):
            SimEngine(**{option: "heap" if option == "event_list" else 1e-6})

    def test_package_exports_heap_only(self):
        import repro.sim

        assert repro.sim.HeapEventList is HeapEventList
        assert "CalendarEventList" not in repro.sim.__all__
        assert not hasattr(repro.sim, "CalendarEventList")
        assert isinstance(SimEngine()._queue, HeapEventList)

    def test_signal_and_delay_run_is_reproducible(self):
        # Delays, a wake-all signal and a same-instant yield: the
        # timeline is fixed by (time, sequence) order alone, so two
        # fresh engines replay it identically.
        def trace_run(engine):
            order = []
            gate = engine.signal()

            def waiter(name):
                yield gate
                order.append((name, engine.now_s))

            def firer():
                yield 250e-6
                gate.fire()
                yield 0.0
                order.append(("firer", engine.now_s))

            for name in ("a", "b", "c"):
                engine.spawn(waiter(name))
            engine.spawn(firer())
            engine.run()
            return order, engine.now_s, engine.events_processed

        first = trace_run(SimEngine())
        # Waiters resume in park order at the fire instant, ahead of the
        # firer's zero-delay yield (allocated after their wake-ups).
        assert first[0] == [
            ("a", 250e-6), ("b", 250e-6), ("c", 250e-6), ("firer", 250e-6),
        ]
        assert first[1] == 250e-6
        assert trace_run(SimEngine()) == first


class TestMaxEventsExhaustion:
    def test_error_names_pending_count_and_is_runtime_error(self):
        engine = SimEngine()

        def ticker():
            while True:
                yield 1e-6

        for _ in range(3):
            engine.spawn(ticker())
        with pytest.raises(RuntimeError, match=r"exceeded 10 events") as err:
            engine.run(max_events=10)
        # The interrupted event goes back in the queue: all 3 tickers
        # still pending, named in the message.
        assert "3 event(s) still pending" in str(err.value)
        assert isinstance(err.value, SimulationError)

    def test_exhausted_run_can_resume(self):
        engine = SimEngine()
        done = []

        def ticker():
            for _ in range(30):
                yield 1e-6
            done.append(engine.now_s)

        engine.spawn(ticker())
        with pytest.raises(SimulationError):
            engine.run(max_events=10)
        engine.run()  # picks up exactly where the guard stopped it
        assert done and done[0] == pytest.approx(30e-6)


class TestHandoffSignals:
    def test_handoff_wakes_only_head_waiter(self):
        engine = SimEngine()
        woken = []
        gate = engine.signal(handoff=True)

        def waiter(name):
            yield gate
            woken.append(name)

        def firer():
            yield 1e-6
            assert gate.fire() == 1

        for name in ("a", "b", "c"):
            engine.spawn(waiter(name))
        engine.spawn(firer())
        with pytest.raises(SimulationError, match="deadlock"):
            engine.run()  # b and c stay parked forever
        assert woken == ["a"]

    def test_handoff_lock_discipline_matches_wake_all(self):
        # The re-check-loop lock discipline: N holders contend for one
        # serially-reusable resource.  Handoff and wake-all must
        # produce identical acquisition orders and finish times.
        def run(handoff: bool):
            engine = SimEngine()
            busy = [False]
            freed = engine.signal(handoff=handoff)
            log = []

            def holder(name, hold_s):
                while busy[0]:
                    yield freed
                busy[0] = True
                yield hold_s
                busy[0] = False
                freed.fire()
                log.append((name, engine.now_s))

            for index, name in enumerate("abcde"):
                engine.spawn(holder(name, (index + 1) * 10e-6))
            engine.run()
            return log

        assert run(handoff=True) == run(handoff=False)

    def test_fire_with_no_waiters_is_noop(self):
        engine = SimEngine()
        signal = engine.signal()
        assert signal.fire() == 0
        assert engine.idle
        assert engine.events_processed == 0
