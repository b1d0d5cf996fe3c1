"""Process set-up that must happen before numpy is imported.

Imports nothing that imports numpy, so the BLAS thread count it pins
takes effect.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# OpenBLAS would otherwise start up to 64 threads. The models here are
# small (hidden 32-64), so one thread per process is also the fastest
# setting, and it keeps runs steady on a shared 2-core machine.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parents[2]


class SourceMissing(RuntimeError):
    pass


def start():
    """Pin BLAS threads and import attnalign from this checkout's ``src/``."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in _THREAD_VARS:
        os.environ[var] = threads
    src = ROOT / "src"
    if not (src / "attnalign" / "__init__.py").is_file():
        raise SourceMissing(f"no attnalign sources under {src}")
    sys.path.insert(0, str(src))
    import attnalign

    if Path(attnalign.__file__).resolve().parent != (src / "attnalign").resolve():
        raise SourceMissing(f"attnalign was imported from {attnalign.__file__}, not {src}")
    return ROOT
