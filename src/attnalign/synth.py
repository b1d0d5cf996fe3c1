"""Synthetic parallel corpora with known gold alignments.

Tasks: copy (target equals source, diagonal alignment), reverse (target is
the source reversed, anti-diagonal), and local-shuffle (each adjacent token
pair swapped with probability 1/2, alignment follows the permutation).
Tokens are "w0".."w{V-1}"; all output is deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TASKS = ("copy", "reverse", "local-shuffle")


@dataclass
class SynthSpec:
    task: str = "copy"
    vocab_size: int = 30
    min_len: int = 3
    max_len: int = 10
    pairs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if not (1 <= self.min_len <= self.max_len):
            raise ValueError("need 1 <= min_len <= max_len")
        if self.pairs < 1:
            raise ValueError("pairs must be >= 1")


def _permute(src, spec, rng):
    n = len(src)
    if spec.task == "copy":
        perm = list(range(n))
    elif spec.task == "reverse":
        perm = list(range(n - 1, -1, -1))
    else:
        perm = list(range(n))
        k = 0
        while k + 1 < n:
            if rng.random() < 0.5:
                perm[k], perm[k + 1] = perm[k + 1], perm[k]
                k += 2
            else:
                k += 1
    tgt = [src[p] for p in perm]
    # link source position perm[j] to target position j, 0-indexed
    links = [(perm[j], j) for j in range(n)]
    return tgt, links


def generate(spec):
    """Yield (src_tokens, tgt_tokens, pharaoh_line) triples."""
    rng = random.Random(spec.seed)
    out = []
    for _ in range(spec.pairs):
        n = rng.randint(spec.min_len, spec.max_len)
        src = [f"w{rng.randrange(spec.vocab_size)}" for _ in range(n)]
        tgt, links = _permute(src, spec, rng)
        line = " ".join(f"{i}-{j}" for i, j in sorted(links))
        out.append((src, tgt, line))
    return out


def write_corpus(spec, prefix):
    """Write prefix.src, prefix.tgt, prefix.align; returns the three paths."""
    triples = generate(spec)
    paths = (f"{prefix}.src", f"{prefix}.tgt", f"{prefix}.align")
    with open(paths[0], "w", encoding="utf-8") as fs, open(
        paths[1], "w", encoding="utf-8"
    ) as ft, open(paths[2], "w", encoding="utf-8") as fa:
        for src, tgt, line in triples:
            fs.write(" ".join(src) + "\n")
            ft.write(" ".join(tgt) + "\n")
            fa.write(line + "\n")
    return paths
