"""Percentiles, the simulation-identity check and result provenance."""

from __future__ import annotations

import math
import os
import platform
import sys
import time
from pathlib import Path

#: Tail percentiles tried from the top; the first with enough samples
#: beyond it is the one reported.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 80.0, 75.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(sorted_values: list[float], pct: float) -> float | None:
    """Nearest-rank percentile, or None unless >= 10 samples lie beyond.

    The nearest-rank value is the ``ceil(pct/100 * n)``-th smallest
    sample; the samples beyond it are the ``n - rank`` larger ranks.
    """
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted_values[rank - 1]


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest reportable tail percentile."""
    for pct in TAIL_PERCENTILES:
        value = percentile(sorted_values, pct)
        if value is not None:
            return pct, value
    raise ValueError(
        f"{len(sorted_values)} samples are too few for any tail percentile"
    )


def median(values: list[float]) -> float:
    """Middle value (mean of the two middle values for an even count)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def identity_mismatches(
    reference: dict, other: dict, label: str
) -> list[str]:
    """Simulated metrics of ``other`` that are not bit-identical.

    Every simulated quantity is a deterministic function of the seed,
    so any difference between two runs of one seed is a defect.
    """
    problems = []
    for key in sorted(set(reference) | set(other)):
        if reference.get(key, "<missing>") != other.get(key, "<missing>"):
            problems.append(
                f"{label}: simulated {key} differs "
                f"({reference.get(key, '<missing>')!r} vs "
                f"{other.get(key, '<missing>')!r})"
            )
    return problems


def git_commit(root: Path) -> str:
    """HEAD commit of the checkout at ``root``, or ``"unknown"``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, seed: int, config: dict) -> dict:
    """Which code, host and inputs produced a result."""
    import numpy

    return {
        "commit": git_commit(root),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": sys.platform,
        "seed": seed,
        "config": config,
    }
