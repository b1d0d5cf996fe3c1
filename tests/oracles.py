"""Reference implementations that tests compare the fast paths against:
greedy decoding composed from tape primitives step by step, and alignment
extraction one row at a time; and the tape primitives neg and stack, which
only hand-built test losses and per-step oracles use."""

import numpy as np

from attnalign import evaluation
from attnalign import tensor as T
from attnalign.corpus import EOS_ID
from attnalign.model import decode_step, greedy_step_inputs, output_states, target_projections


def neg(a):
    return T._record(-a.data, (a,), lambda g: (-g,))


def stack(parts, axis=0):
    """Stack tensors of one shape along a new axis."""
    parts = list(parts)
    out = np.stack([p.data for p in parts], axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    return T._record(out, parts, lambda g: [g[lead + (k,)] for k in range(len(parts))])


def output_log_probs(o, tv):
    """Target-vocabulary log-probabilities of output-layer states (..., out)
    -> (..., V)."""
    return T.log_softmax(T.matvec(tv["out.W2"], o))


def composed_greedy_batch(params, sources, max_len):
    """Greedy decoding of one batch through ``model.decode_step`` on
    untracked tensors: every step runs every row and emits each sentence's
    argmax token other than <pad>; a done mask stops a sentence at eos, and
    the batch stops when all are done or after max_len steps. Returns one
    (token ids, (m, l) attention of the steps that emitted them) pair per
    source."""
    tv, enc, h_proj, s, *_, ctx_w = greedy_step_inputs(params, sources)
    bos = tv["bos_emb"].data
    y = T.Tensor(np.broadcast_to(bos, (len(sources), bos.shape[0])))
    tokens = [[] for _ in sources]
    attention = [[] for _ in sources]
    done = np.zeros(len(sources), dtype=bool)
    for _ in range(max_len):
        s, alpha = decode_step(s, target_projections(y, tv), enc, tv, h_proj, ctx_w)
        lp = output_log_probs(output_states(s, y, tv), tv).data
        best = lp[:, 1:].argmax(axis=1) + 1  # never <pad> (id 0)
        for k in np.flatnonzero(~done):
            tok = int(best[k])
            tokens[k].append(tok)
            attention[k].append(alpha.data[k, : len(sources[k])])
        done |= best == EOS_ID
        if done.all():
            break
        y = T.Tensor(tv["tgt_emb"].data[best])
    return [(ids, np.stack(rows)) for ids, rows in zip(tokens, attention)]


def composed_greedy_decode_all(params, sources, max_len):
    """``evaluation.greedy_decode_all``'s chunks, each decoded by
    ``composed_greedy_batch``; its (token ids, attention) pairs in input
    order."""
    out = [None] * len(sources)
    for chunk in evaluation._chunks(params, [len(src) for src in sources]):
        for k, got in zip(chunk, composed_greedy_batch(params, [sources[k] for k in chunk], max_len)):
            out[k] = got
    return out


def per_row_extract_alignment(attn, threshold):
    """``evaluation.extract_alignment`` with one argmax per target row."""
    attn = np.asarray(attn)
    m, l = attn.shape
    links = set()
    for t in range(m - 1):
        i = int(np.argmax(attn[t]))
        if attn[t, i] > threshold and i != l - 1:
            links.add((t + 1, i + 1))
    return links
