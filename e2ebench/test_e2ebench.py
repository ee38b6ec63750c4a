"""Tests of the benchmark's helpers: spans, percentiles, oracle, identity."""

from __future__ import annotations

import math

import pytest

from e2ebench.spans import Span, Tracer, self_times, summarize
from e2ebench.stats import identity_mismatches, percentile, tail


def _span(name, start, end, parent, pages=0):
    return Span(name, start, end, parent, None, pages)


def test_self_time_subtracts_covered_children():
    spans = [
        _span("measure", 0.0, 10.0, -1),
        _span("ftl.stage", 1.0, 5.0, 0),
        _span("controller", 2.0, 4.0, 1),
        _span("bch.encode", 2.5, 3.5, 2, pages=1),
        _span("ftl.gc", 6.0, 9.0, 0),
        _span("controller", 6.5, 8.5, 4),
        _span("bch.encode", 7.0, 8.0, 5, pages=3),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    report = summarize(spans)["measure"]
    assert report["layers"]["bch.encode"] == {
        "calls": 2, "pages": 4, "self_s": 2.0,
    }
    assert report["encode_gc_pages"] == 3
    assert report["unattributed_s"] == 3.0
    assert report["wall_s"] == 10.0
    assert report["reconcile_error_s"] == 0.0


def test_overlapping_children_are_counted_once():
    spans = [
        _span("setup", 0.0, 5.0, -1),
        _span("nand.read", 1.0, 3.0, 0),
        _span("nand.read", 2.0, 4.0, 0),
    ]
    assert self_times(spans)[0] == 2.0


def test_leaked_child_breaks_reconciliation():
    spans = [
        _span("measure", 0.0, 2.0, -1),
        _span("sim.run", 1.0, 3.0, 0),
    ]
    assert summarize(spans)["measure"]["reconcile_error_s"] == -1.0


def test_span_outside_a_phase_is_rejected():
    with pytest.raises(ValueError, match="outside a benchmark phase"):
        summarize([_span("sim.run", 0.0, 1.0, -1)])


def test_tracer_wraps_and_restores_entry_points():
    from repro.bch.codec import AdaptiveBCHCodec

    original = AdaptiveBCHCodec.__dict__["encode_batch"]
    tracer = Tracer()
    with tracer.installed():
        assert AdaptiveBCHCodec.__dict__["encode_batch"] is not original
        codec = AdaptiveBCHCodec(k=256, t_max=4)
        with tracer.span("measure"):
            codec.encode_batch([bytes(32), bytes(32)])
    assert AdaptiveBCHCodec.__dict__["encode_batch"] is original
    report = summarize(tracer.spans)["measure"]
    assert report["layers"]["bch.encode"]["calls"] == 1
    assert report["layers"]["bch.encode"]["pages"] == 2
    assert report["layers"]["bch.construct"]["calls"] >= 1
    assert abs(report["reconcile_error_s"]) < 1e-9


def test_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1000)]
    assert percentile(values, 99.0) == 989.0
    assert percentile(values[:999], 99.0) is None
    assert tail(values[:999]) == (95.0, 949.0)
    assert tail(values[:60]) == (80.0, 47.0)
    with pytest.raises(ValueError, match="too few"):
        tail(values[:15])


def _tiny_run(corrupt_tag=None):
    """Eight pre-written pages re-read six times on a small fresh drive."""
    import numpy as np

    from repro.ssd.session import IoCommand
    from repro.workloads.traces import TraceOpKind

    from e2ebench.workloads import Inputs, _stack, measure

    rng = np.random.default_rng(5)
    fill = [(lpn, rng.bytes(4096)) for lpn in range(8)]
    stream = [IoCommand(TraceOpKind.READ, lpn % 8) for lpn in range(48)]
    stream.insert(3, IoCommand(TraceOpKind.WRITE, 2, rng.bytes(4096)))
    inputs = Inputs(5, fill, [], stream)
    stack = _stack(inputs, channels=1, blocks=6, pages_per_block=8,
                   queue_depth=4)
    stack.ftl.write_many(fill)
    if corrupt_tag is not None:
        stage_reads = stack.ftl.stage_reads

        def corrupting(lpns, tags=None):
            datas, commands = stage_reads(lpns, tags=tags)
            if tags is not None and corrupt_tag in tags:
                datas[0] = bytes([datas[0][0] ^ 1]) + datas[0][1:]
            return datas, commands

        stack.ftl.stage_reads = corrupting
    return measure(stack, inputs)


def test_oracle_passes_a_clean_run_and_sees_the_overwrite():
    result = _tiny_run()
    assert result.errors == []
    assert (result.attempted, result.failed) == (49, 0)
    assert result.end_s > 0 and len(result.read_s) == 48


def test_oracle_catches_a_corrupted_read():
    result = _tiny_run(corrupt_tag=5)
    assert result.failed == 1
    assert any("first tag 5" in error for error in result.errors)


def test_identity_check_catches_a_perturbed_sim_metric():
    sim = _tiny_run().sim
    assert identity_mismatches(sim, dict(sim), "repeat") == []
    perturbed = dict(sim)
    perturbed["sim.end_s"] = math.nextafter(sim["sim.end_s"], math.inf)
    problems = identity_mismatches(sim, perturbed, "repeat")
    assert len(problems) == 1 and "sim.end_s" in problems[0]
