"""Host provenance and the calibration spin.

Every result file names the host it was measured on (cpu count, Python,
load, git commit) — the fields ROADMAP says every BENCH row must carry.

The seed host is a 2-vCPU virtual machine whose speed drifts by 10-40 % for
minutes at a time (a neighbour on the same hardware; the guest sees no
steal time, CPU seconds stretch with wall seconds).  The parent therefore
times a fixed loop — the *spin* — before and after every child.  The loop
allocates tuples, fills a dict and hashes with blake2b, because a plain
arithmetic loop barely feels the contention that slows the program by a
third, while this one tracks it.  Times are reported scaled to the
reference spin (see ``perf/README.md``, "Scaled seconds").
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from hashlib import blake2b
from pathlib import Path
from typing import Any, Optional

#: iterations of the calibration loop
SPIN_ITERATIONS = 250_000
#: seconds the loop takes on the undisturbed seed host: the speed every
#: reported time is scaled to.  Part of the benchmark's definition — change
#: it (or the loop) and every baseline has to be measured again.
SPIN_REFERENCE_S = 0.40


def spin(iterations: int = SPIN_ITERATIONS) -> float:
    """Seconds the fixed calibration loop takes right now."""
    t0 = time.perf_counter()
    table = {}
    for i in range(iterations):
        key = (i, "s", (i & 7, i >> 3))
        table[key] = blake2b(repr(key).encode(), digest_size=8).digest()
    return time.perf_counter() - t0


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout at ``root``, or None outside a git repository
    (the builder's driver runs the benchmark from a plain directory)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: Path) -> dict[str, Any]:
    return {
        "host_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_avg": list(os.getloadavg()),
        "git_commit": git_commit(root),
    }
