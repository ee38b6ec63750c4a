"""In-memory span tracing around each layer's public entry points.

The traced run patches the entry points below on their classes (and
``design_code`` in every module that bound it), so every object built
afterwards calls through a wrapper; nothing under ``src/`` changes.
Patching happens before the stack is built because the scheduler and
the controllers hoist bound methods at construction.

A span is ``(name, start, end, parent, request, pages)`` in host
``perf_counter`` seconds.  ``parent`` is the index of the enclosing
span (-1 for a root), ``request`` the submission tag a
``stage_reads``/``stage_writes`` call received (inherited by its
children when spans are exported) and ``pages`` the batch size of the
call.  A span's *self time* is its duration minus the part of it that
its children cover.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

#: Span names that attribute time to a layer, in report order.
LAYER_SPANS = (
    "bch.construct", "bch.encode", "bch.decode",
    "nand.read", "nand.program", "nand.erase",
    "controller", "ftl.stage", "ftl.gc", "ssd.submit", "sim.run",
)

#: Root spans the benchmark opens around its own phases.
PHASES = ("setup", "measure")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    request: int | None
    pages: int


def _batch(args, kwargs) -> int:
    return len(args[1])


def _one(args, kwargs) -> int:
    return 1


def _none(args, kwargs) -> int:
    return 0


def _entry_points():
    """(owner, attribute, span name, pages-of-call) for every wrapper."""
    from repro.bch.codec import AdaptiveBCHCodec
    from repro.bch.decoder import BCHDecoder
    from repro.bch.encoder import BCHEncoder
    from repro.controller.controller import NandController
    from repro.ftl.gc import GarbageCollector
    from repro.nand.device import NandFlashDevice
    from repro.sim.engine import SimEngine
    from repro.ssd.session import SsdSession
    from repro.ssd.striped import DieStripedFtl

    return [
        (AdaptiveBCHCodec, "spec_for", "bch.construct", _none),
        (BCHEncoder, "__init__", "bch.construct", _none),
        (BCHDecoder, "__init__", "bch.construct", _none),
        (AdaptiveBCHCodec, "encode_batch", "bch.encode", _batch),
        (AdaptiveBCHCodec, "encode", "bch.encode", _one),
        (AdaptiveBCHCodec, "decode_batch", "bch.decode", _batch),
        (AdaptiveBCHCodec, "decode", "bch.decode", _one),
        (NandFlashDevice, "read_pages", "nand.read", _batch),
        (NandFlashDevice, "read_page", "nand.read", _one),
        (NandFlashDevice, "program_pages", "nand.program", _batch),
        (NandFlashDevice, "program_page", "nand.program", _one),
        (NandFlashDevice, "erase_block", "nand.erase", _one),
        (NandController, "read_batch", "controller", _batch),
        (NandController, "write_batch", "controller", _batch),
        (NandController, "read", "controller", _one),
        (NandController, "write", "controller", _one),
        (NandController, "erase", "controller", _one),
        (DieStripedFtl, "stage_reads", "ftl.stage", _batch),
        (DieStripedFtl, "stage_writes", "ftl.stage", _batch),
        (GarbageCollector, "collect", "ftl.gc", _none),
        (GarbageCollector, "collect_block", "ftl.gc", _none),
        (DieStripedFtl, "pick_striped_victim", "ftl.gc", _none),
        (SsdSession, "submit", "ssd.submit", _one),
        (SimEngine, "run", "sim.run", _none),
    ]


class Tracer:
    """Span recorder; :meth:`installed` patches the entry points."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, pages):
        """``fn`` recording one span per call."""
        spans = self.spans
        stack = self._stack
        clock = perf_counter
        staging = name == "ftl.stage"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                request = None
                if staging:
                    tags = kwargs.get(
                        "tags", args[2] if len(args) > 2 else None
                    )
                    if tags is not None and len(tags) == 1:
                        request = tags[0]
                spans[index] = Span(
                    name, start, end, parent, request, pages(args, kwargs)
                )

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span (the setup and measure phases)."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, None, 0)

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        from repro.bch import params

        saved = []
        try:
            for owner, attr, name, pages in _entry_points():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, pages))
            design = params.design_code
            wrapped = self.wrap("bch.construct", design, _none)
            for module_name in sorted(sys.modules):
                module = sys.modules[module_name]
                if module_name.partition(".")[0] != "repro" or module is None:
                    continue
                if getattr(module, "design_code", None) is design:
                    saved.append((module, "design_code", design))
                    setattr(module, "design_code", wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent, so a child that leaks outside
    its parent loses the leaked part and the totals stop reconciling.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append((span.end - span.start) - covered)
    return result


def summarize(spans: list[Span]) -> dict:
    """Per-phase, per-layer ``calls``/``pages``/``self_s`` plus totals.

    Returns ``{phase: {"wall_s", "unattributed_s", "spans", "layers":
    {name: {"calls", "pages", "self_s"}}, "encode_gc_pages"}}``.  A
    phase's unattributed time is its root span's own self time (the
    benchmark harness); ``reconcile_error_s`` is what is left of the
    wall time after every self time is subtracted, which is zero up to
    rounding when the spans nest properly.
    """
    selfs = self_times(spans)
    phase_of: list[str | None] = []
    under_gc: list[bool] = []
    for span in spans:
        if span.parent < 0:
            phase_of.append(span.name if span.name in PHASES else None)
            under_gc.append(False)
        else:
            phase_of.append(phase_of[span.parent])
            parent = spans[span.parent]
            under_gc.append(under_gc[span.parent] or parent.name == "ftl.gc")
    report = {}
    for phase in PHASES:
        layers = {
            name: {"calls": 0, "pages": 0, "self_s": 0.0}
            for name in LAYER_SPANS
        }
        report[phase] = {
            "wall_s": 0.0, "unattributed_s": 0.0, "spans": 0,
            "encode_gc_pages": 0, "layers": layers,
        }
    for index, span in enumerate(spans):
        phase = phase_of[index]
        if phase is None:
            raise ValueError(f"span {span.name!r} outside a benchmark phase")
        entry = report[phase]
        entry["spans"] += 1
        if span.parent < 0:
            entry["wall_s"] += span.end - span.start
            entry["unattributed_s"] += selfs[index]
            continue
        layer = entry["layers"][span.name]
        layer["calls"] += 1
        layer["pages"] += span.pages
        layer["self_s"] += selfs[index]
        if span.name == "bch.encode" and under_gc[index]:
            entry["encode_gc_pages"] += span.pages
    for entry in report.values():
        attributed = sum(layer["self_s"] for layer in entry["layers"].values())
        entry["reconcile_error_s"] = (
            entry["wall_s"] - attributed - entry["unattributed_s"]
        )
    return report


def export(spans: list[Span]) -> list[list]:
    """Spans as JSON-ready rows, with requests inherited from ancestors."""
    requests: list[int | None] = []
    rows = []
    for span in spans:
        request = span.request
        if request is None and span.parent >= 0:
            request = requests[span.parent]
        requests.append(request)
        rows.append([
            span.name, span.start, span.end, span.parent, request, span.pages
        ])
    return rows
