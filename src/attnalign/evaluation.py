"""Chunking and scoring: greedy translation and attention dumping over
chunks of a corpus, alignment extraction with the max-link rule,
precision/recall/F1, and corpus BLEU with brevity penalty.

Both decoders are the model's: each chunk goes to ``model.greedy_batch``
or ``model.teacher_forced`` on untracked parameters. Greedy decoding and
attention dumping use one chunk rule: as many similar-length sentences as
keep a decoder step's (k, L, A) attention tanh scratch within
``DECODE_CHUNK_BYTES``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import make_batch
from .model import (
    bind,
    decode_step,  # noqa: F401  not called here; the bench's tracer wraps it through this module
    greedy_batch,
    teacher_forced,
)

EXTRACT_THRESHOLD = 0.2

# Bytes of one decoding chunk's (k, L, A) tanh scratch, L its longest source;
# a dump takes a pair's longer side, as it keeps arrays for every target step.
# A chunk grows while k * L * A * itemsize fits. Below this a step is mostly
# numpy call overhead; well above it every sentence pads to a longer source
# and each eos compacts a larger batch.
DECODE_CHUNK_BYTES = 256 << 10


@dataclass
class Hypothesis:
    token_ids: list  # all greedy decoding keeps; ends in eos unless truncated at max_len


def _chunks(params, lengths):
    """Indices of ``lengths`` sorted by length, in chunks that grow while k
    sentences padded to the longest keep DECODE_CHUNK_BYTES of tanh scratch;
    a sentence over that is a chunk of its own."""
    row = params.tensors["attn.v"].nbytes  # A * itemsize
    chunks = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if chunks and (len(chunks[-1]) + 1) * lengths[i] * row <= DECODE_CHUNK_BYTES:
            chunks[-1].append(i)
        else:
            chunks.append([i])
    return chunks


def greedy_decode_all(params, sources, max_len=80):
    """One Hypothesis per source id list, in input order, decoded in the
    chunks of _chunks on untracked parameters (no tape)."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    hyps = [None] * len(sources)
    for chunk in _chunks(params, [len(src) for src in sources]):
        for k, ids in zip(chunk, greedy_batch(params, [sources[k] for k in chunk], max_len)):
            hyps[k] = Hypothesis(ids)
    return hyps


def greedy_decode(params, src_ids, max_len=80):
    """Emit the argmax token at each step until eos or max_len."""
    return greedy_decode_all(params, [src_ids], max_len)[0]


def dump_attention_all(params, pairs):
    """Teacher-forced (m, l) attention matrix of every pair, in input order,
    computed in the chunks of _chunks on untracked parameters."""
    tv = bind(params)
    mats = [None] * len(pairs)
    for chunk in _chunks(params, [max(p.src_len, p.tgt_len) for p in pairs]):
        batch = make_batch([pairs[k] for k in chunk])
        *_, attention = teacher_forced(tv, batch, with_log_probs=False)
        for k, pair, mat in zip(chunk, batch.pairs, attention.data):
            mats[k] = mat[: pair.tgt_len, : pair.src_len]
    return mats


def dump_attention(params, pair):
    """Teacher-forced attention matrix for one pair (matches the trace)."""
    return dump_attention_all(params, [pair])[0]


# ---------------------------------------------------------------------------
# alignment extraction and F1


def extract_alignment(attn, threshold=EXTRACT_THRESHOLD):
    """Max-probability link per target word, kept only above the threshold.

    The eos row is skipped and links into the eos column are discarded;
    gold alignments never contain eos links. Ties break toward the lowest
    source index (argmax convention). Returns 1-indexed (t, i) links.
    """
    attn = np.asarray(attn)
    best = attn[:-1].argmax(axis=1)
    t = np.flatnonzero((attn[np.arange(len(best)), best] > threshold) & (best != attn.shape[1] - 1))
    return set(zip((t + 1).tolist(), (best[t] + 1).tolist()))


@dataclass
class F1Report:
    precision: float
    recall: float
    f1: float

    def format_line(self):
        return f"precision={self.precision:.4f} recall={self.recall:.4f} f1={self.f1:.4f}"


def corpus_alignment_f1(hyp_sets, gold_sets):
    """Micro-averaged F1: link counts pooled over the corpus."""
    if len(hyp_sets) != len(gold_sets):
        raise ValueError("hypothesis and gold counts differ")
    matched = hyp_total = gold_total = 0
    for hyp, gold in zip(hyp_sets, gold_sets):
        hyp, gold = set(hyp), set(gold)
        matched += len(hyp & gold)
        hyp_total += len(hyp)
        gold_total += len(gold)
    if hyp_total == 0:
        precision = 1.0 if gold_total == 0 else 0.0
    else:
        precision = matched / hyp_total
    if gold_total == 0:
        recall = 1.0 if hyp_total == 0 else 0.0
    else:
        recall = matched / gold_total
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return F1Report(precision, recall, f1)


# ---------------------------------------------------------------------------
# BLEU


@dataclass
class BleuReport:
    bleu: float
    brevity_penalty: float

    def format_line(self):
        return f"bleu={self.bleu:.4f} bp={self.brevity_penalty:.4f}"


def _ngrams(tokens, n):
    return Counter(tuple(tokens[k : k + n]) for k in range(len(tokens) - n + 1))


def bleu(hyps, refs):
    """Corpus BLEU, single reference: geometric mean of the clipped n-gram
    precisions for n = 1..4 times the brevity penalty
    min(1, exp(1 - ref_len/hyp_len)).
    """
    if len(hyps) != len(refs):
        raise ValueError("hypothesis and reference counts differ")
    if not hyps:
        raise ValueError("empty corpus")
    matched = [0] * 4
    total = [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            h = _ngrams(hyp, n)
            r = _ngrams(ref, n)
            total[n - 1] += sum(h.values())
            matched[n - 1] += sum(min(c, r[g]) for g, c in h.items())
    precisions = [m / t if t > 0 else 0.0 for m, t in zip(matched, total)]
    if hyp_len == 0 or any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = float(np.exp(np.mean([np.log(p) for p in precisions])))
    if hyp_len == 0:
        bp = 0.0
    else:
        bp = min(1.0, float(np.exp(1.0 - ref_len / hyp_len)))
    return BleuReport(score * bp, bp)
