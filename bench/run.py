"""Benchmark of attnalign: one workload per invocation, or all of them.

    python3 bench/run.py --workload train-small --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a checkout; attnalign is imported from its ``src/``.
Each invocation prints JSON lines: the environment, a summary of the run,
and last the result, ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, measured without tracing;
``--trace 1`` runs the workload untraced for half the time, then traced
for the same rounds, checks that both gave the same outputs, and reports
the per-layer metrics. The exit status is 0 when every check passed, 1
when one failed, and 2 when the benchmark could not run. Scratch files go
to ``.bench_work/`` and are removed; traced runs leave their spans in
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from attnbench import boot  # noqa: E402

WORKLOAD_NAMES = ("train-small", "train-bigvocab", "decode")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    """Each workload in a process of its own, so peak RSS is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def run_plain(name, seed, seconds, work):
    from attnbench import report, workloads

    record = workloads.run(workloads.WORKLOADS[name], seed, work, seconds=seconds)
    summary(name, seed, record)
    values = report.end_to_end(record)
    return result(record.session.attempted, record.session.failed,
                  report.with_units(values, report.UNITS))


def run_traced(name, seed, seconds, work, root):
    from attnbench import layers, report, workloads
    from attnbench.trace import Tracer

    workload = workloads.WORKLOADS[name]
    plain = workloads.run(workload, seed, work / "plain", seconds=seconds / 2, setup_reps=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.run(workload, seed, work / "traced", rounds=plain.rounds,
                               setup_reps=1, tracer=tracer)
    finally:
        gc.collect()
        tracer.uninstall()
    summary(name, seed, traced)
    if traced.outputs != plain.outputs:
        diff = [(a, b) for a, b in zip(plain.outputs, traced.outputs) if a != b]
        traced.session.fail(f"traced outputs differ from untraced ones: {diff[:3]!r}")
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-seed{seed}.tsv")
    values = layers.per_layer(tracer, traced.seconds / plain.seconds)
    attempted = plain.session.attempted + traced.session.attempted
    failed = plain.session.failed + traced.session.failed
    return result(attempted, failed, report.with_units(values, layers.UNITS))


def summary(name, seed, record):
    print(json.dumps({"workload": name, "seed": seed, "rounds": record.rounds,
                      "seconds": record.seconds, "setup_seconds": record.setup_seconds,
                      "rates": record.rates, "quality": record.quality}), flush=True)


def result(attempted, failed, metrics):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    try:
        root = boot.start()
    except boot.SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from attnbench import fixture, report

    print(json.dumps({"environment": report.environment()}), flush=True)
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            res = run_traced(args.workload, args.seed, args.seconds, work, root)
        else:
            res = run_plain(args.workload, args.seed, args.seconds, work)
    except fixture.FixtureError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(res), flush=True)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
