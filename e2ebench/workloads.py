"""The three session workloads and the measured phase they share.

Every workload is open loop on a simulated-time schedule: an arrival
process on the session's DES engine submits each operation at its
``issue_s`` whatever is in flight, so the arrival process is never late
by construction.  Inputs (payloads, LPNs, arrival times, the device's
error-injection seed) are a pure function of ``--seed``; the stack
only ever sees the generated commands.

The correctness oracle keeps LPN -> bytes of the last write earlier in
the stream (every write carries a distinct random payload) and checks
every read completion against it.  An op fails when its read data
mismatches, when it never completes, or when an exception (an
uncorrectable strict decode, for one) ends the phase before it is
verified.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from repro.core.modes import OperatingMode
from repro.core.policy import CrossLayerPolicy
from repro.ftl.gc import GcConfig
from repro.nand.geometry import NandGeometry
from repro.ssd import (
    DieStripedFtl,
    PipelineConfig,
    SsdDevice,
    SsdSession,
    SsdTopology,
)
from repro.ssd.session import IoCommand
from repro.workloads.traces import TraceOpKind

from e2ebench.stats import percentile, tail

READ = TraceOpKind.READ
WRITE = TraceOpKind.WRITE
PAGE_BYTES = 4096

#: End-of-life wear (P/E cycles): RBER ~1e-3, BASELINE picks t = 65.
EOL_WEAR = 100_000


@dataclass(frozen=True)
class Inputs:
    """Everything a round feeds the stack, generated from the seed."""

    device_seed: int
    fill: list[tuple[int, bytes]]
    warm: list[int]
    stream: list[IoCommand]


@dataclass
class Stack:
    ftl: DieStripedFtl
    session: SsdSession


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its inputs, its stack and why it exists."""

    name: str
    why: str
    config: dict
    inputs: Callable[[int, int], Inputs]
    build: Callable[[Inputs], Stack]
    fill_by_submit: bool
    #: Nominal host seconds of one round (set-up plus measured phase)
    #: on a 2-vCPU x86-64 VM under Python 3.11; ``--seconds`` divided
    #: by it fixes how many rounds a run makes, so the simulated work
    #: of a run depends on its arguments only, never on host speed.
    round_s: float


@dataclass
class Measured:
    """Outcome of one measured phase.

    ``sim`` holds the round's simulated quantities (compared bit for
    bit across repeats); ``end_s``, ``ops`` and the read latencies
    (simulated seconds) are kept for pooling across rounds.
    """

    seconds: float
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    sim: dict = field(default_factory=dict)
    end_s: float = 0.0
    ops: int = 0
    read_s: list[float] = field(default_factory=list)


# -- stacks -------------------------------------------------------------------


def _stack(
    inputs: Inputs,
    channels: int,
    blocks: int,
    pages_per_block: int,
    queue_depth: int,
    gc_mode: str = "sync",
    wear: int = 0,
) -> Stack:
    """Full-pipeline SSD with one session shared by set-up and stream."""
    topology = SsdTopology(
        channels=channels,
        dies_per_channel=4,
        geometry=NandGeometry(blocks=blocks, pages_per_block=pages_per_block),
    )
    ssd = SsdDevice(
        topology, policy=CrossLayerPolicy(), seed=inputs.device_seed,
        pipeline=PipelineConfig.full(),
    )
    if wear:
        for controller in ssd.controllers:
            controller.device.array._wear[:] = wear
        ssd.set_mode(OperatingMode.BASELINE, pe_reference=float(wear))
    else:
        ssd.set_mode(OperatingMode.BASELINE)
    session = SsdSession(
        ssd=ssd, queue_depth=queue_depth, gc_mode=gc_mode,
        gc_config=GcConfig(policy="cost_benefit"),
    )
    ftl = DieStripedFtl(ssd, plane_interleave=True, session=session)
    session.ftl = ftl
    needed = 1 + max(lpn for lpn, _ in inputs.fill)
    if ftl.logical_capacity < needed:
        raise ValueError(
            f"geometry holds {ftl.logical_capacity} LPNs, inputs need {needed}"
        )
    return Stack(ftl, session)


def _payloads(rng: np.random.Generator, count: int) -> list[bytes]:
    return [rng.bytes(PAGE_BYTES) for _ in range(count)]


def _rng_and_device_seed(
    seed: int, workload: int, index: int
) -> tuple[np.random.Generator, int]:
    """Input generator and error-injection seed of one round's inputs."""
    sequence = np.random.SeedSequence([seed, workload, index])
    return np.random.default_rng(sequence), int(sequence.generate_state(1)[0])


def _die_balanced(
    rng: np.random.Generator,
    count: int,
    dies: int,
    per_die: int,
    base: int = 0,
) -> list[int]:
    """Uniformly random LPNs whose dies follow random permutations.

    Every run of ``dies`` consecutive LPNs covers each die once (the
    striped FTL puts LPN ``l`` on die ``l % dies``), so no die draws
    more of the stream than another.  Without this, the die that draws
    the most writes sets the simulated makespan and the simulated
    metrics spread from seed to seed far more than the host metrics do.
    """
    order = np.concatenate([
        rng.permutation(dies) for _ in range(-(-count // dies))
    ])[:count]
    shard = rng.integers(per_die, size=count)
    return [base + int(s) * dies + int(d) for s, d in zip(shard, order)]


# -- eol_read -----------------------------------------------------------------

EOL = {
    "topology": "1ch x 4die", "wear_pe": EOL_WEAR, "mode": "BASELINE",
    "queue_depth": 16, "read_set": 256, "metadata_lpns": 64,
    "reads": 256, "write_every": 8, "rate_ops_s": 5000.0,
    "arrivals": "poisson, count-conditioned",
    "blocks": 8, "pages_per_block": 32,
}


def _eol_inputs(seed: int, index: int) -> Inputs:
    rng, device_seed = _rng_and_device_seed(seed, 1, index)
    span = EOL["read_set"] + EOL["metadata_lpns"]
    fill = list(zip(range(span), _payloads(rng, span)))
    metadata = iter(_die_balanced(
        rng, EOL["reads"] // EOL["write_every"], 4,
        EOL["metadata_lpns"] // 4, base=EOL["read_set"],
    ))
    ops = []
    for position in range(EOL["reads"]):
        ops.append((READ, position % EOL["read_set"], b""))
        if (position + 1) % EOL["write_every"] == 0:
            ops.append((WRITE, next(metadata), rng.bytes(PAGE_BYTES)))
    # A Poisson process conditioned on its count: the arrivals are
    # uniform over exactly len(ops) / rate seconds, so every round
    # offers the same rate and only the clustering of arrivals varies.
    arrivals = np.sort(
        rng.uniform(0.0, len(ops) / EOL["rate_ops_s"], size=len(ops))
    )
    stream = [
        IoCommand(kind, lpn, data, float(issue_s))
        for (kind, lpn, data), issue_s in zip(ops, arrivals)
    ]
    return Inputs(device_seed, fill, [0, 1, 2, 3], stream)


def _eol_build(inputs: Inputs) -> Stack:
    return _stack(
        inputs, channels=1, blocks=EOL["blocks"],
        pages_per_block=EOL["pages_per_block"],
        queue_depth=EOL["queue_depth"], wear=EOL_WEAR,
    )


# -- sustained_write ----------------------------------------------------------

SUSTAINED = {
    "topology": "1ch x 4die", "wear_pe": 0, "mode": "BASELINE",
    "queue_depth": 8, "gc_mode": "background", "gc_policy": "cost_benefit",
    "span": 384, "ops": 120, "read_every": 4, "arrivals": "all at t=0",
    "blocks": 8, "pages_per_block": 16,
}


def _sustained_inputs(seed: int, index: int) -> Inputs:
    rng, device_seed = _rng_and_device_seed(seed, 2, index)
    span = SUSTAINED["span"]
    fill = list(zip(range(span), _payloads(rng, span)))
    every = SUSTAINED["read_every"]
    reads = SUSTAINED["ops"] // every
    read_lpns = iter(_die_balanced(rng, reads, 4, span // 4))
    writes = SUSTAINED["ops"] - reads
    write_lpns = iter(_die_balanced(rng, writes, 4, span // 4))
    stream = []
    for position in range(SUSTAINED["ops"]):
        if position % every == every - 1:
            stream.append(IoCommand(READ, next(read_lpns)))
        else:
            stream.append(IoCommand(
                WRITE, next(write_lpns), rng.bytes(PAGE_BYTES)
            ))
    return Inputs(device_seed, fill, [0, 1, 2, 3], stream)


def _sustained_build(inputs: Inputs) -> Stack:
    stack = _stack(
        inputs, channels=1, blocks=SUSTAINED["blocks"],
        pages_per_block=SUSTAINED["pages_per_block"],
        queue_depth=SUSTAINED["queue_depth"], gc_mode="background",
    )
    if stack.ftl.logical_capacity != SUSTAINED["span"]:
        raise ValueError("the fill must cover the whole logical span")
    return stack


# -- fresh_fanout -------------------------------------------------------------

FANOUT = {
    "topology": "4ch x 4die", "wear_pe": 0, "mode": "BASELINE",
    "queue_depth": 64, "span": 2048, "reads": 1500,
    "arrivals": "all at t=0", "blocks": 8, "pages_per_block": 32,
}


def _fanout_inputs(seed: int, index: int) -> Inputs:
    rng, device_seed = _rng_and_device_seed(seed, 3, index)
    span = FANOUT["span"]
    fill = list(zip(range(span), _payloads(rng, span)))
    stream = [
        IoCommand(READ, int(lpn))
        for lpn in rng.integers(span, size=FANOUT["reads"])
    ]
    return Inputs(device_seed, fill, list(range(16)), stream)


def _fanout_build(inputs: Inputs) -> Stack:
    return _stack(
        inputs, channels=4, blocks=FANOUT["blocks"],
        pages_per_block=FANOUT["pages_per_block"],
        queue_depth=FANOUT["queue_depth"],
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "eol_read",
            "end-of-life re-reads (t = 65): BM/Chien decode of ~t-error "
            "pages dominates; encode, GC and the DES are near idle",
            EOL, _eol_inputs, _eol_build, fill_by_submit=False, round_s=4.6,
        ),
        Workload(
            "sustained_write",
            "random overwrites beside reads on a full drive: GC migrations "
            "re-encode live pages, so BCH encode, GC and the DES dominate",
            SUSTAINED, _sustained_inputs, _sustained_build,
            fill_by_submit=True, round_s=4.2,
        ),
        Workload(
            "fresh_fanout",
            "random fresh reads at QD 64 on 16 dies: no encode or GC, so "
            "per-call costs (syndrome decode, NAND, FTL, DES) set the rate",
            FANOUT, _fanout_inputs, _fanout_build, fill_by_submit=False,
            round_s=2.7,
        ),
    )
}


# -- set-up and the measured phase --------------------------------------------


def clear_code_caches() -> None:
    """Empty every ``lru_cache`` in the loaded ``repro`` modules.

    Code construction (designed codes, fields, syndrome and timing
    tables) is memoised process-wide; clearing it makes every round's
    set-up pay what a fresh process pays.  Traced wrappers are looked
    through via ``__wrapped__``.
    """
    for name in sorted(sys.modules):
        module = sys.modules[name]
        if name.partition(".")[0] != "repro" or module is None:
            continue
        for value in list(vars(module).values()):
            members = [value]
            if isinstance(value, type) and value.__module__ == name:
                members.extend(vars(value).values())
            for member in members:
                while member is not None and not hasattr(
                    member, "cache_clear"
                ):
                    member = getattr(member, "__wrapped__", None)
                if member is not None and callable(member.cache_clear):
                    member.cache_clear()


def precondition(
    workload: Workload, stack: Stack, inputs: Inputs
) -> list[str]:
    """Write the fill and read the warm-up pages; returns problems.

    The warm-up reads build each die's decoder, so lazy code
    construction is paid in set-up rather than in the first measured
    reads.
    """
    ftl, session = stack.ftl, stack.session
    if workload.fill_by_submit:
        for lpn, data in inputs.fill:
            session.submit(IoCommand(WRITE, lpn, data))
        session.drain()
        session.take_completions()
        for lpn in inputs.warm:
            session.submit(IoCommand(READ, lpn))
        session.drain()
        warm = [(c.lpn, c.data) for c in session.take_completions()]
    else:
        ftl.write_many(inputs.fill)
        reads = ftl.read_many(inputs.warm)
        warm = [(lpn, data) for lpn, (data, _) in zip(inputs.warm, reads)]
    written = dict(inputs.fill)
    return [
        f"set-up read of LPN {lpn} returned wrong data"
        for lpn, data in warm
        if data != written[lpn]
    ]


def _counters(session: SsdSession) -> dict:
    registry = session.metrics()
    return {
        name: registry.get(name)
        for name in (
            "ecc_corrected_bits", "ecc_decode_failures", "ecc_bits_processed",
            "media_page_reads", "media_page_programs", "media_block_erases",
            "host_writes", "gc_collections", "gc_pages_migrated",
            "gc_background_collections", "die_busy_s", "channel_busy_s",
            "ecc_busy_s",
        )
    }


def measure(stack: Stack, inputs: Inputs) -> Measured:
    """Stream the inputs through the session; time, check and count."""
    session = stack.session
    engine = session.engine
    engine.rebase()
    ops = inputs.stream
    before = _counters(session)
    events_before = engine.events_processed
    fast_before = session.fast_path_stats
    last = dict(inputs.fill)
    expected: dict[int, bytes] = {}
    records: list[tuple] = []
    mismatches: list[int] = []

    def check(completions) -> None:
        for c in completions:
            records.append((
                c.tag, c.kind.value, c.lpn,
                c.submit_s, c.dispatch_s, c.done_s,
            ))
            if c.kind is READ and c.data != expected.pop(c.tag):
                mismatches.append(c.tag)

    def arrivals():
        for op in ops:
            wait = op.issue_s - engine.now_s
            if wait > 0:
                yield wait
            check(session.take_completions())
            tag = session.submit(op)
            if op.kind is READ:
                expected[tag] = last[op.lpn]
            else:
                last[op.lpn] = op.data

    errors: list[str] = []
    end_s = 0.0
    start = perf_counter()
    try:
        engine.spawn(arrivals())
        end_s = session.drain()
        check(session.take_completions())
    except Exception as exc:  # the run ends; unverified ops count as failed
        errors.append(f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start

    failed = len(ops) - len(records) + len(mismatches)
    if mismatches:
        errors.append(
            f"{len(mismatches)} reads returned data other than the last "
            f"write (first tag {mismatches[0]})"
        )
    if len(records) < len(ops):
        errors.append(f"{len(ops) - len(records)} ops never completed")
    fast = session.fast_path_stats
    if fast.fallback != fast_before.fallback or fast.fast <= fast_before.fast:
        errors.append(
            f"flat dispatch path not taken for every command: {fast}"
        )
    result = Measured(seconds, len(ops), failed, errors)
    if not errors:
        _simulated(result, records, session, end_s, before, events_before)
    return result


def _us(sorted_values: list[float]) -> dict:
    pct, value = tail(sorted_values)
    return {
        "p50_us": percentile(sorted_values, 50.0) * 1e6,
        "tail_us": value * 1e6,
        "n": len(sorted_values),
        "tail_pct": pct,
    }


def pooled(rounds: list[Measured]) -> tuple[dict, dict]:
    """End-to-end simulated metrics over rounds of distinct inputs.

    Returns (metrics, samples): ``sim_iops`` is every host op over the
    summed simulated time, the read-latency percentiles pool every
    round's samples; ``samples`` gives their count and tail percentile.
    """
    reads = _us(sorted(v for m in rounds for v in m.read_s))
    metrics = {
        "sim_iops": sum(m.ops for m in rounds) / sum(m.end_s for m in rounds),
        "sim_read_p50_us": reads["p50_us"],
        "sim_read_tail_us": reads["tail_us"],
    }
    samples = {"sim_read": {"n": reads["n"], "tail_pct": reads["tail_pct"]}}
    return metrics, samples


def _simulated(
    result: Measured,
    records: list[tuple],
    session: SsdSession,
    end_s: float,
    before: dict,
    events_before: int,
) -> None:
    """Every simulated quantity of the phase (bit-identical per seed).

    The phase's simulated span ``end_s`` runs until the device is idle:
    background GC may retire after the last host completion, and that
    debt is part of what the host ops cost.
    """
    after = _counters(session)
    delta = {
        name: after[name] - before[name]
        for name in after
        if not isinstance(after[name], list)
    }
    result.end_s = end_s
    result.ops = len(records)
    result.read_s = [r[5] - r[3] for r in records if r[1] == READ.value]
    service = _us(sorted(r[5] - r[4] for r in records))
    queue = _us(sorted(r[4] - r[3] for r in records))

    def util(name: str, lanes: int = 1) -> float:
        busy = sum(after[name]) - sum(before[name])
        return busy / (len(after[name]) * lanes * end_s)

    host_writes = delta["host_writes"]
    sim = {
        "sim.end_s": end_s,
        "bch.corrected_bits": delta["ecc_corrected_bits"],
        "bch.decode_failures": delta["ecc_decode_failures"],
        "bch.observed_rber": (
            delta["ecc_corrected_bits"] / delta["ecc_bits_processed"]
            if delta["ecc_bits_processed"] else 0.0
        ),
        "nand.media_page_reads": delta["media_page_reads"],
        "nand.media_page_programs": delta["media_page_programs"],
        "nand.media_block_erases": delta["media_block_erases"],
        "ftl.write_amplification": (
            (host_writes + delta["gc_pages_migrated"]) / host_writes
            if host_writes else 0.0
        ),
        "ftl.gc.collections": delta["gc_collections"],
        "ftl.gc.pages_migrated": delta["gc_pages_migrated"],
        "ftl.gc.background_collections": delta["gc_background_collections"],
        # Die busy time sums the busy time of the die's planes.
        "ssd.die_util": util("die_busy_s", session.ssd.geometry.planes),
        "ssd.channel_util": util("channel_busy_s"),
        "ssd.ecc_util": util("ecc_busy_s"),
        "ssd.service_p50_us": service["p50_us"],
        "ssd.service_tail_us": service["tail_us"],
        "ssd.queue_tail_us": queue["tail_us"],
        "sim.events": session.engine.events_processed - events_before,
        "completions_sha256": hashlib.sha256(
            repr(records).encode()
        ).hexdigest(),
    }
    result.sim = sim
