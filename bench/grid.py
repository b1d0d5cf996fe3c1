"""One-shot grid and quality report; tracked numbers, not a gated workload.

    python3 bench/grid.py [--out .bench_out/grid.json]

Grid: for hidden size 32/64/256 and vocabulary size 100/5k/20k, one traced
``attnalign train`` epoch over ten 10-token copy-task pairs (embed, attn
and out sizes equal to hidden), reporting ``model.forward_ms_per_tok``,
``tensor.backward_ms_per_tok`` and ``training.adadelta_ms``.

Quality: probe alignment F1 after training at the ``train-small`` size
with the joint objective (lambda 1) and with translation only (lambda 0),
on the ``reverse`` and ``local-shuffle`` tasks.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from attnbench import boot  # noqa: E402

ROOT = boot.start()

from attnbench import fixture, layers, report, workloads  # noqa: E402
from attnbench.session import Session  # noqa: E402
from attnbench.trace import Tracer  # noqa: E402

HIDDEN = (32, 64, 256)
VOCAB = (100, 5000, 20000)
GRID_PAIRS = 10
GRID_LEN = 10
GRID_METRICS = ("model.forward_ms_per_tok", "tensor.backward_ms_per_tok", "training.adadelta_ms")
QUALITY_EPOCHS = 5


def grid_cell(work, hidden, vocab):
    session = Session()
    corpus = work / "corpus"
    spec = {"task": "copy", "vocab-size": vocab, "min-len": GRID_LEN, "max-len": GRID_LEN,
            "pairs": GRID_PAIRS, "seed": 1}
    session.run("synth", fixture.synth_args(spec, corpus))
    words = "".join(f"w{k}\n" for k in range(vocab))
    for side in ("src", "tgt"):
        Path(f"{corpus}.{side}.vocab").write_text(words, encoding="utf-8")
    params = {**workloads.TRAIN_PARAMS, "embed": hidden, "hidden": hidden, "attn": hidden,
              "out": hidden}
    train = workloads.make_train_set(work, corpus, f"{corpus}.src.vocab",
                                     f"{corpus}.tgt.vocab", params)
    tracer = Tracer()
    session.tracer = tracer
    tracer.install()
    try:
        workloads.train_once(session, train, workloads.RunRecord(session))
    finally:
        gc.collect()
        tracer.uninstall()
        session.close()
    if session.failed:
        raise SystemExit(f"grid cell hidden={hidden} vocab={vocab} failed")
    values = layers.per_layer(tracer, 0.0)
    return {"hidden": hidden, "vocab": vocab, **{m: values[m] for m in GRID_METRICS}}


def quality_cell(work, task, align_weight):
    session = Session()
    workload = dataclasses.replace(workloads.WORKLOADS["train-small"], task=task)
    try:
        train, probe, *_ = workload.setup(session, work, 1, fixture.load_manifest(),
                                         fixture.read_expected(),
                                         {"epochs": QUALITY_EPOCHS, "lambda": align_weight})
        cmd = session.run("train", ["--config", train.config])
        links = f"{probe}.links"
        session.run("dump-attn", [
            "--checkpoint", train.checkpoint, "--src-vocab", f"{train.prefix}.src.vocab",
            "--tgt-vocab", f"{train.prefix}.tgt.vocab", "--src", f"{probe}.src",
            "--tgt", f"{probe}.tgt", "--out", f"{probe}.attn", "--align-out", links,
            "--threshold", workloads.PROBE_THRESHOLD,
        ])
        f1 = workloads.score(session, "score-align", ["--hyp", links, "--gold", f"{probe}.align"], "f1")
        log = workloads.read_lines(train.log)
    finally:
        session.close()
    if session.failed or cmd.rc:
        raise SystemExit(f"quality cell {task} lambda={align_weight} failed")
    return {"task": task, "lambda": align_weight, "epochs": QUALITY_EPOCHS,
            "probe_f1": f1, "train_log": [line.rsplit("\t", 1)[0] for line in log]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "grid.json")
    args = parser.parse_args()
    work = ROOT / ".bench_work" / "grid"
    result = {"environment": report.environment(), "grid": [], "quality": []}
    try:
        for hidden in HIDDEN:
            for vocab in VOCAB:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                result["grid"].append(grid_cell(work, hidden, vocab))
                print(json.dumps(result["grid"][-1]), flush=True)
        for task in ("reverse", "local-shuffle"):
            for align_weight in (1, 0):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                result["quality"].append(quality_cell(work, task, align_weight))
                print(json.dumps(result["quality"][-1]), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
