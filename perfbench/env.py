"""Process set-up shared by the benchmark's entry points.

The benchmark measures the package as it sits in ``src/`` of the checkout it
runs in, with single-threaded BLAS. Thread limits only take effect when they
are set before NumPy is first imported, so entry points call
``limit_threads`` and ``use_source_tree`` before importing anything that
imports NumPy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SourceTreeMissing(RuntimeError):
    """The checkout holds no importable ``src/wavepool`` package."""


def limit_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_source_tree():
    """Import ``wavepool`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "wavepool" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no wavepool package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wavepool

    if Path(wavepool.__file__).resolve().parent.parent != SRC:
        raise SourceTreeMissing(
            f"wavepool was imported from {wavepool.__file__}, not from {SRC}")
    return wavepool


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment() -> dict:
    """NumPy, BLAS, thread and interpreter facts that the timings depend on."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
