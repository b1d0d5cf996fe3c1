"""Decoding and scoring: greedy translation, attention dumping, alignment
extraction with the max-link rule, precision/recall/F1, and corpus BLEU
with brevity penalty.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import EOS_ID
from .model import decode_step, forward_teacher_forced, greedy_step_inputs, initial_state

EXTRACT_THRESHOLD = 0.2


@dataclass
class Hypothesis:
    token_ids: list  # ends in eos unless truncated at max_len
    attention: np.ndarray  # one row per emitted token
    score: float  # sum of chosen log-probabilities


def greedy_decode(params, src_ids, max_len=80):
    """Emit the argmax token at each step until eos or max_len."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    tv, enc, h_proj = greedy_step_inputs(params, src_ids)
    s = initial_state(enc, tv)
    y_prev_emb = tv["bos_emb"]
    out_ids, rows = [], []
    score = 0.0
    for _ in range(max_len):
        s, lp, alpha = decode_step(s, y_prev_emb, enc, tv, h_proj)
        y = int(np.argmax(lp.data))
        out_ids.append(y)
        rows.append(np.asarray(alpha.data))
        score += float(lp.data[y])
        if y == EOS_ID:
            break
        y_prev_emb = T.row(tv["tgt_emb"], y)
    return Hypothesis(out_ids, np.stack(rows), score)


def dump_attention(params, pair):
    """Teacher-forced attention matrix for one pair (matches the trace)."""
    trace = forward_teacher_forced(params, pair)
    return np.asarray(trace.attention.data)


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
