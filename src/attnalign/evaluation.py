"""Decoding and scoring: greedy translation, attention dumping, alignment
extraction with the max-link rule, precision/recall/F1, and corpus BLEU
with brevity penalty.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import EOS_ID, make_batch
from .model import (
    bind,
    context_weights,
    decode_step,
    greedy_step_inputs,
    initial_state,
    output_log_probs,
    output_states,
    target_projections,
    teacher_forced,
)

EXTRACT_THRESHOLD = 0.2

# Sentences decoded together by greedy_decode_all and dump_attention_all.
DECODE_CHUNK = 32


@dataclass
class Hypothesis:
    token_ids: list  # ends in eos unless truncated at max_len
    attention: np.ndarray  # one row per emitted token
    score: float  # sum of chosen log-probabilities


def _chunks(lengths):
    """Input indices in chunks of DECODE_CHUNK, similar lengths together."""
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    return [order[k : k + DECODE_CHUNK] for k in range(0, len(order), DECODE_CHUNK)]


def _greedy_batch(params, sources, max_len):
    """Greedy decoding of one batch of sources: every step emits each
    sentence's argmax token; a done mask stops a sentence at eos, and the
    batch stops when all are done or after max_len steps."""
    tv, enc, h_proj = greedy_step_inputs(params, sources)
    ctx_w = context_weights(tv)
    s = initial_state(enc, tv)
    bos = tv["bos_emb"].data
    y = T.Tensor(np.broadcast_to(bos, (len(sources), bos.shape[0])))
    hyps = [Hypothesis([], [], 0.0) for _ in sources]
    done = np.zeros(len(sources), dtype=bool)
    for _ in range(max_len):
        s, alpha = decode_step(s, target_projections(y, tv), enc, tv, h_proj, ctx_w)
        lp = output_log_probs(output_states(s, y, tv), tv).data
        best = lp.argmax(axis=1)
        for k in np.flatnonzero(~done):
            tok = int(best[k])
            hyps[k].token_ids.append(tok)
            hyps[k].attention.append(alpha.data[k, : len(sources[k])])
            hyps[k].score += float(lp[k, tok])
        done |= best == EOS_ID
        if done.all():
            break
        y = T.Tensor(tv["tgt_emb"].data[best])
    for hyp in hyps:
        hyp.attention = np.stack(hyp.attention)
    return hyps


def greedy_decode_all(params, sources, max_len=80):
    """One Hypothesis per source id list, in input order, decoded in chunks
    of DECODE_CHUNK sentences on untracked parameters (no tape)."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    hyps = [None] * len(sources)
    for chunk in _chunks([len(src) for src in sources]):
        for k, hyp in zip(chunk, _greedy_batch(params, [sources[k] for k in chunk], max_len)):
            hyps[k] = hyp
    return hyps


def greedy_decode(params, src_ids, max_len=80):
    """Emit the argmax token at each step until eos or max_len."""
    return greedy_decode_all(params, [src_ids], max_len)[0]


def dump_attention_all(params, pairs):
    """Teacher-forced (m, l) attention matrix of every pair, in input order,
    computed in chunks of DECODE_CHUNK pairs on untracked parameters."""
    tv = bind(params)
    mats = [None] * len(pairs)
    for chunk in _chunks([p.src_len for p in pairs]):
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
    m, l = attn.shape
    links = set()
    for t in range(m - 1):
        i = int(np.argmax(attn[t]))
        if attn[t, i] > threshold and i != l - 1:
            links.add((t + 1, i + 1))
    return links


@dataclass
class F1Report:
    precision: float
    recall: float
    f1: float

    def format_line(self):
        return f"precision={self.precision:.4f} recall={self.recall:.4f} f1={self.f1:.4f}"


def _f1_from_counts(matched, hyp_total, gold_total):
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


def alignment_f1(hyp, gold):
    """Link precision/recall/F1 for one sentence."""
    hyp, gold = set(hyp), set(gold)
    return _f1_from_counts(len(hyp & gold), len(hyp), len(gold))


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
    return _f1_from_counts(matched, hyp_total, gold_total)


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


def bleu(hyps, refs, max_ngram=4):
    """Corpus BLEU, single reference: geometric mean of clipped n-gram
    precisions times the brevity penalty min(1, exp(1 - ref_len/hyp_len)).
    """
    if len(hyps) != len(refs):
        raise ValueError("hypothesis and reference counts differ")
    if not hyps:
        raise ValueError("empty corpus")
    matched = [0] * max_ngram
    total = [0] * max_ngram
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_ngram + 1):
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
