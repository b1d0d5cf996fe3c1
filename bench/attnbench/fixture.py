"""The fixed decode model: how it was made and what it must output.

The model is trained once by ``bench/make_decode_model.py`` and checked in,
so decode work stays the same when later changes alter training arithmetic.
Decode sets are drawn from a held-out pool made by ``attnalign synth`` with
a seed other than the training corpus's. ``expected.tsv`` holds the
translation and the extracted links recorded for every pool line.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from .session import sha256_file

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "decode"
MODEL = FIXTURE_DIR / "model.ckpt"
SRC_VOCAB = FIXTURE_DIR / "src.vocab"
TGT_VOCAB = FIXTURE_DIR / "tgt.vocab"
EXPECTED = FIXTURE_DIR / "expected.tsv"
MANIFEST = FIXTURE_DIR / "manifest.json"
CHECKED_FILES = (MODEL, SRC_VOCAB, TGT_VOCAB, EXPECTED)

RECIPE_SYNTH = {"task": "copy", "vocab-size": 30, "min-len": 3, "max-len": 10,
                "pairs": 3000, "seed": 1608}
RECIPE_CONFIG = {"embed": 32, "hidden": 32, "attn": 32, "out": 32, "epochs": 5,
                 "batch_size": 20, "schedule": "J", "lambda": 1, "smoothing": 1,
                 "init_scale": 0.5, "seed": 1}
POOL_SYNTH = {"task": "copy", "vocab-size": 30, "min-len": 3, "max-len": 10,
              "pairs": 1000, "seed": 112}


class FixtureError(RuntimeError):
    pass


def synth_args(spec, out_prefix):
    args = []
    for key, value in spec.items():
        args += [f"--{key}", value]
    return args + ["--out-prefix", out_prefix]


def config_text(params, **paths):
    """A ``train`` config: the given paths plus the model/trainer keys."""
    lines = [f"{k}={v}" for k, v in paths.items()]
    lines += [f"{k}={v}" for k, v in params.items()]
    return "\n".join(lines) + "\n"


def model_args():
    return ["--checkpoint", MODEL, "--src-vocab", SRC_VOCAB, "--tgt-vocab", TGT_VOCAB]


def pool_files(prefix):
    return [Path(f"{prefix}.{ext}") for ext in ("src", "tgt", "align")]


def load_manifest():
    """The manifest, after checking every fixture file against its digest."""
    try:
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise FixtureError(f"cannot read {MANIFEST}: {exc}") from None
    for path in CHECKED_FILES:
        want = manifest["sha256"].get(path.name)
        if not path.exists() or sha256_file(path) != want:
            raise FixtureError(f"{path.name} is missing or does not match its recorded sha256")
    return manifest


def read_expected():
    """Recorded (translation, links) per pool line."""
    rows = []
    for line in EXPECTED.read_text(encoding="utf-8").splitlines():
        _, hyp, links = line.split("\t")
        rows.append((hyp, links))
    return rows


def sample_indices(seed, size, pool_size):
    """Pool lines of one decode set, in the order they are decoded."""
    return random.Random(seed).sample(range(pool_size), size)
