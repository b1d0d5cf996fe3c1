"""Re-create the fixed model of the ``decode`` workload and its recorded outputs.

    python3 bench/make_decode_model.py

Runs one seeded training command (copy task, hidden 32, five epochs), then
translates and aligns the whole held-out pool with the result, and writes
the checkpoint, its vocabularies, the expected outputs and a manifest of
sha256 digests to ``bench/fixtures/decode/``. The run is deterministic, so
re-running it on the same code rewrites the same bytes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from attnbench import boot  # noqa: E402

ROOT = boot.start()

from attnbench import fixture  # noqa: E402
from attnbench.session import Session, sha256_file  # noqa: E402


def main():
    work = ROOT / ".bench_work" / "make-decode-model"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session()
    corpus = work / "train"
    session.run("synth", fixture.synth_args(fixture.RECIPE_SYNTH, corpus))
    session.run("prepare", ["--src", f"{corpus}.src", "--tgt", f"{corpus}.tgt",
                            "--out-prefix", corpus])
    config = work / "train.cfg"
    config.write_text(fixture.config_text(
        fixture.RECIPE_CONFIG,
        train_src=f"{corpus}.src", train_tgt=f"{corpus}.tgt", train_align=f"{corpus}.align",
        src_vocab=f"{corpus}.src.vocab", tgt_vocab=f"{corpus}.tgt.vocab",
        checkpoint=work / "model", log=work / "train.log",
    ))
    session.run("train", ["--config", config])

    fixture.FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(work / "model.ckpt", fixture.MODEL)
    shutil.copyfile(f"{corpus}.src.vocab", fixture.SRC_VOCAB)
    shutil.copyfile(f"{corpus}.tgt.vocab", fixture.TGT_VOCAB)

    pool = work / "pool"
    session.run("synth", fixture.synth_args(fixture.POOL_SYNTH, pool))
    src, tgt, align = fixture.pool_files(pool)
    hyp, links = work / "pool.hyp", work / "pool.links"
    session.run("translate", [*fixture.model_args(), "--src", src, "--out", hyp])
    session.run("dump-attn", [*fixture.model_args(), "--src", src, "--tgt", tgt,
                              "--out", work / "pool.attn", "--align-out", links])
    f1 = session.run("score-align", ["--hyp", links, "--gold", align]).stdout.strip()
    bleu = session.run("score-bleu", ["--hyp", hyp, "--ref", tgt]).stdout.strip()
    if session.failed:
        sys.exit("fixture not written: a command failed")

    hyps = hyp.read_text(encoding="utf-8").splitlines()
    link_lines = links.read_text(encoding="utf-8").splitlines()
    fixture.EXPECTED.write_text(
        "".join(f"{n}\t{h}\t{a}\n" for n, (h, a) in enumerate(zip(hyps, link_lines))),
        encoding="utf-8",
    )
    manifest = {
        "recipe": {
            "synth": fixture.RECIPE_SYNTH,
            "config": fixture.RECIPE_CONFIG,
            # epoch, phase, mean nll, mean distance; the wall-time column is left out
            "train_log": [line.rsplit("\t", 1)[0] for line in
                          (work / "train.log").read_text(encoding="utf-8").splitlines()],
        },
        "pool": {
            "synth": fixture.POOL_SYNTH,
            "sha256": {p.name: sha256_file(p) for p in (src, tgt, align)},
            "score_align": f1,
            "score_bleu": bleu,
        },
        "sha256": {p.name: sha256_file(p) for p in fixture.CHECKED_FILES},
    }
    fixture.MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    session.close()
    shutil.rmtree(work)
    print(json.dumps(manifest["sha256"], indent=1))
    print(f"pool: {f1}; {bleu}")


if __name__ == "__main__":
    main()
