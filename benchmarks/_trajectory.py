"""Provenance-stamped trajectory files for the ``BENCH_*.json`` benches.

Each such bench keeps ``benchmarks/out/BENCH_<name>.json``: a header
(the benchmark name and its gate) plus a ``trajectory`` list to which
every run appends one entry.  :func:`append_run` stamps that entry with
the code and host that produced it (git commit, ``-dirty`` if the tree
had uncommitted changes, or ``"unknown"``; UTC time; Python and numpy
versions) together with the quick flag and the run's configuration, so
two entries from different commits, settings or days can always be
told apart.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path

import numpy as np


def git_commit(root: Path) -> str:
    """HEAD commit of the checkout containing ``root``, suffixed
    ``-dirty`` when tracked files differ from it, or ``"unknown"``."""
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40",
             "--exclude=*"],
            cwd=root, capture_output=True, text=True, check=False,
        )
    except OSError:
        return "unknown"
    commit = result.stdout.strip()
    return commit if result.returncode == 0 and commit else "unknown"


def stamp(quick: bool, config: dict) -> dict:
    """Provenance fields that lead every trajectory entry."""
    return {
        "commit": git_commit(Path(__file__).parent),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "quick": quick,
        "config": config,
    }


def append_run(
    path: Path, header: dict, entry: dict, quick: bool, config: dict
) -> None:
    """Append ``entry``, stamped, to the trajectory at ``path``.

    The file is rewritten as ``header`` plus the whole trajectory, so a
    gate change in the header applies to the file from this run on.
    """
    path.parent.mkdir(exist_ok=True)
    trajectory = []
    if path.exists():
        trajectory = json.loads(path.read_text()).get("trajectory", [])
    trajectory.append({**stamp(quick, config), **entry})
    path.write_text(
        json.dumps({**header, "trajectory": trajectory}, indent=2) + "\n"
    )
