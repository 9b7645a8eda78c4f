"""Statistics, provenance and the result line shared by every workload."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10
#: Samples needed before the 95th percentile has ``TAIL_SAMPLES`` beyond it.
MIN_P95_SAMPLES = 200


def p50(values) -> float:
    return float(statistics.median(values))


def p95(values) -> float:
    """95th percentile; refuses when fewer than ``TAIL_SAMPLES`` lie beyond it."""
    value = float(np.percentile(np.asarray(values, dtype=np.float64), 95))
    beyond = sum(1 for v in values if v > value)
    if beyond < TAIL_SAMPLES:
        raise RuntimeError(
            f"p95 of {len(values)} samples has only {beyond} beyond it "
            f"(need {TAIL_SAMPLES}); the run is too short"
        )
    return value


def _affinity() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


_NPROC = _affinity()


def nproc() -> int:
    """CPUs the benchmark was started with (before any pinning)."""
    return _NPROC


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str:
    """HEAD of the repository rooted here; ``unknown`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _source_digest() -> str:
    """sha256 over src/**/*.py, so a record names its code even outside git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed: int) -> dict:
    import scipy

    from repro.sampling import kernels

    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "host": {
            "cpu_model": _cpu_model(),
            "nproc": nproc(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "kernel_backend": kernels.active_backend_name("auto"),
        },
    }


def step_bytes(graph) -> int:
    """Bytes one walk step reads or writes, computed from the array dtypes.

    Per step: the uniform draw, the walker's node id (read and write), two
    ``indptr`` entries, the float degree, one ``indices`` entry and the score
    weight it gathers.  Computed, not measured.
    """
    return 8 + 2 * 8 + 2 * graph.indptr.itemsize + 8 + graph.indices.itemsize + 8


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(record: dict, result: dict) -> int:
    """Print the provenance record, then the result as the last stdout line."""
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1
