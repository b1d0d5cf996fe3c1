"""End-to-end metrics of a run, and the environment it ran in."""

from __future__ import annotations

import math
import os
import platform
import resource

import numpy as np

from . import stats

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "train_tok_per_s": "tok/s",
    "final_nll": "nat/tok",
    "final_align_dist": "dist",
    "translate_sent_per_s": "sent/s",
    "dump_attn_sent_per_s": "sent/s",
    "bleu": "bleu",
    "align_f1": "f1",
}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def ok_frac(attempted, failed):
    return 1.0 - failed / attempted if attempted else 0.0


def end_to_end(record):
    session = record.session
    values = {
        "setup_s": stats.median(record.setup_seconds),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": ok_frac(session.attempted, session.failed),
    }
    for name in ("train_tok_per_s", "translate_sent_per_s", "dump_attn_sent_per_s"):
        values[name] = stats.median(record.rates.get(name, ()))
    for name in ("final_nll", "final_align_dist", "bleu", "align_f1"):
        values[name] = record.quality.get(name, 0.0)
    return values


def with_units(values, units):
    """Metrics in result form; a non-finite value, which only a failed run
    can give, is written as 0.0 so that the line stays valid JSON."""
    return {name: {"value": values[name] if math.isfinite(values[name]) else 0.0,
                   "unit": units[name]} for name in units}


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }
