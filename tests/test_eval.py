import math

import numpy as np
import pytest

from attnalign.corpus import EOS_ID, SentencePair, make_batch
from attnalign.evaluation import (
    bleu,
    corpus_alignment_f1,
    dump_attention,
    extract_alignment,
    greedy_decode,
)
from attnalign.model import ModelDims, forward_teacher_forced, init_params
from attnalign.supervision import format_matrix, parse_matrix
from oracles import composed_greedy_decode_all, per_row_extract_alignment


DIMS = ModelDims(src_vocab=7, tgt_vocab=9, embed=4, hidden=4, attn=4, out=4)


def make_params(seed=0):
    return init_params(DIMS, seed=seed, init_scale=0.5)


class TestGreedyDecode:
    def test_max_len_one_emits_one_token(self):
        hyp = greedy_decode(make_params(1), [3, EOS_ID], max_len=1)
        assert len(hyp.token_ids) == 1

    def test_stops_at_eos(self):
        hyp = greedy_decode(make_params(1), [3, 4, EOS_ID], max_len=50)
        if EOS_ID in hyp.token_ids:
            assert hyp.token_ids[-1] == EOS_ID
            assert hyp.token_ids.count(EOS_ID) == 1

    def test_deterministic(self):
        p = make_params(2)
        h1 = greedy_decode(p, [3, 4, 5, EOS_ID])
        h2 = greedy_decode(p, [3, 4, 5, EOS_ID])
        assert h1.token_ids == h2.token_ids

    def test_bad_max_len(self):
        with pytest.raises(ValueError):
            greedy_decode(make_params(), [EOS_ID], max_len=0)


class TestExtractAlignment:
    def test_clear_argmax_above_threshold(self):
        attn = np.array(
            [
                [0.5, 0.3, 0.1, 0.1],
                [0.1, 0.6, 0.2, 0.1],
                [0.0, 0.0, 0.0, 1.0],  # eos row, skipped
            ]
        )
        assert extract_alignment(attn) == {(1, 1), (2, 2)}

    def test_uniform_row_below_threshold_yields_no_link(self):
        attn = np.vstack([np.full((1, 6), 1 / 6), np.eye(6)[-1]])
        assert extract_alignment(attn) == set()

    def test_eos_column_links_discarded(self):
        attn = np.array([[0.1, 0.1, 0.8], [0.0, 0.0, 1.0]])
        assert extract_alignment(attn) == set()

    def test_tie_breaks_to_lowest_source_index(self):
        attn = np.array([[0.4, 0.4, 0.2, 0.0], [0.0, 0.0, 0.0, 1.0]])
        assert extract_alignment(attn) == {(1, 1)}

    def test_threshold_is_strict(self):
        attn = np.array([[0.2, 0.2, 0.2, 0.2, 0.2], [0.0, 0.0, 0.0, 0.0, 1.0]])
        assert extract_alignment(attn, threshold=0.2) == set()

    def test_sharper_attention_never_loses_links(self):
        # raising a row's peak can only keep or add the link
        rng = np.random.default_rng(0)
        for _ in range(50):
            l = int(rng.integers(2, 7))
            row = rng.random(l)
            row /= row.sum()
            attn = np.vstack([row, np.eye(l)[-1]])
            before = extract_alignment(attn)
            peak = int(np.argmax(row))
            sharper = row * 0.5
            sharper[peak] += 0.5
            attn2 = np.vstack([sharper, np.eye(l)[-1]])
            assert before <= extract_alignment(attn2)

    @pytest.mark.parametrize("threshold", [0.0, 0.2, 0.5])
    def test_equals_per_row_oracle(self, threshold):
        rng = np.random.default_rng(3)
        cases = [
            np.array([[0.7, 0.3]]),  # one row: the eos row only, no links
            np.array([[0.1, 0.2, 0.7], [0.5, 0.4, 0.1], [0.0, 0.0, 1.0]]),  # max in the eos column
            np.array([[0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]]),  # ties
        ]
        for _ in range(40):
            m, l = (int(n) for n in rng.integers(1, 8, size=2))
            quarters = rng.integers(0, 5, size=(m, l)) / 4.0  # exact ties within rows
            cases += [quarters, rng.random((m, l)), rng.random((m, l)).astype(np.float32)]
        for attn in cases:
            assert extract_alignment(attn, threshold) == per_row_extract_alignment(attn, threshold)
        assert extract_alignment(cases[0], threshold) == set()
        assert extract_alignment(cases[2], 0.2) == {(1, 1), (2, 1)}  # the lowest index wins

    def test_lower_threshold_never_loses_links(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            l = int(rng.integers(2, 7))
            attn = rng.random((3, l))
            attn /= attn.sum(axis=1, keepdims=True)
            assert extract_alignment(attn, 0.3) <= extract_alignment(attn, 0.1)


class TestF1:
    def test_identical_sets(self):
        r = corpus_alignment_f1([{(1, 1), (2, 2)}], [{(1, 1), (2, 2)}])
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_disjoint_sets(self):
        r = corpus_alignment_f1([{(1, 1)}], [{(2, 2)}])
        assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)

    def test_hand_case_half(self):
        r = corpus_alignment_f1([{(1, 1), (2, 2)}], [{(1, 1), (2, 1)}])
        assert r.precision == 0.5 and r.recall == 0.5 and r.f1 == 0.5

    def test_symmetry_swaps_precision_recall(self):
        hyp = {(1, 1), (1, 2), (2, 2)}
        gold = {(1, 1), (3, 3)}
        a = corpus_alignment_f1([hyp], [gold])
        b = corpus_alignment_f1([gold], [hyp])
        assert a.precision == b.recall and a.recall == b.precision
        assert a.f1 == pytest.approx(b.f1)

    def test_empty_conventions(self):
        both = corpus_alignment_f1([set()], [set()])
        assert (both.precision, both.recall, both.f1) == (1.0, 1.0, 1.0)
        hyp_empty = corpus_alignment_f1([set()], [{(1, 1)}])
        assert hyp_empty.precision == 0.0 and hyp_empty.recall == 0.0
        gold_empty = corpus_alignment_f1([{(1, 1)}], [set()])
        assert gold_empty.precision == 0.0 and gold_empty.recall == 0.0

    def test_micro_average_matches_pooled_count_oracle(self):
        rng = np.random.default_rng(2)
        hyps, golds = [], []
        for _ in range(30):
            universe = [(t, i) for t in range(1, 5) for i in range(1, 5)]
            hyps.append({u for u in universe if rng.random() < 0.3})
            golds.append({u for u in universe if rng.random() < 0.3})
        got = corpus_alignment_f1(hyps, golds)
        matched = sum(len(h & g) for h, g in zip(hyps, golds))
        p = matched / sum(len(h) for h in hyps)
        r = matched / sum(len(g) for g in golds)
        assert got.precision == pytest.approx(p, rel=1e-12)
        assert got.recall == pytest.approx(r, rel=1e-12)
        assert got.f1 == pytest.approx(2 * p * r / (p + r), rel=1e-12)

    def test_corpus_length_mismatch(self):
        with pytest.raises(ValueError):
            corpus_alignment_f1([set()], [set(), set()])

    def test_format_line(self):
        line = corpus_alignment_f1([{(1, 1)}], [{(1, 1)}]).format_line()
        assert line == "precision=1.0000 recall=1.0000 f1=1.0000"


class TestBleu:
    def test_identity_corpus_scores_one(self):
        sents = [["a", "b", "c", "d", "e"], ["x", "y", "z", "w"]]
        r = bleu(sents, sents)
        assert r.bleu == pytest.approx(1.0)
        assert r.brevity_penalty == 1.0

    def test_matches_independent_count_oracle(self):
        hyps = [["a", "b", "b", "c", "d"], ["x", "y", "x", "y", "z", "q"]]
        refs = [["a", "b", "c", "c", "d"], ["x", "y", "z", "q", "r"]]
        r = bleu(hyps, refs)

        def count(n):
            matched = total = 0
            for hyp, ref in zip(hyps, refs):
                hgrams = [tuple(hyp[k : k + n]) for k in range(len(hyp) - n + 1)]
                rgrams = [tuple(ref[k : k + n]) for k in range(len(ref) - n + 1)]
                total += len(hgrams)
                for g in set(hgrams):
                    matched += min(hgrams.count(g), rgrams.count(g))
            return matched, total

        precisions = []
        for n in range(1, 5):
            m, t = count(n)
            precisions.append(m / t)
        hyp_len = sum(len(h) for h in hyps)
        ref_len = sum(len(r_) for r_ in refs)
        bp = min(1.0, math.exp(1 - ref_len / hyp_len))
        expected = bp * math.exp(sum(math.log(p) for p in precisions) / 4)
        assert r.bleu == pytest.approx(expected, abs=1e-6)
        assert r.brevity_penalty == pytest.approx(bp, abs=1e-12)

    def test_short_hypotheses_are_penalized(self):
        refs = [["a", "b", "c", "d", "e", "f"]]
        full = bleu([["a", "b", "c", "d", "e", "f"]], refs)
        short = bleu([["a", "b", "c", "d", "e"]], refs)
        assert short.brevity_penalty < 1.0
        assert short.bleu < full.bleu

    def test_long_hypotheses_not_penalized_by_bp(self):
        r = bleu([["a", "b", "c", "d", "e", "f", "g"]], [["a", "b", "c", "d", "e"]])
        assert r.brevity_penalty == 1.0

    def test_zero_ngram_overlap_scores_zero(self):
        r = bleu([["q", "q", "q", "q"]], [["a", "b", "c", "d"]])
        assert r.bleu == 0.0

    def test_more_overlap_scores_higher(self):
        ref = [["a", "b", "c", "d", "e"]]
        worse = bleu([["a", "b", "q", "q", "e"]], ref)
        better = bleu([["a", "b", "c", "q", "e"]], ref)
        assert better.bleu >= worse.bleu

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bleu([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu([["a"]], [["a"], ["b"]])


class TestDumpAttention:
    def test_matches_teacher_forced_trace(self):
        p = make_params(4)
        pair = SentencePair([3, 4, EOS_ID], [5, 6, EOS_ID])
        attn = dump_attention(p, pair)
        trace = forward_teacher_forced(p, make_batch([pair]))
        assert np.array_equal(attn, np.asarray(trace.attention.data[0]))
        assert attn.shape == (3, 3)

    def test_text_round_trip(self):
        attn = dump_attention(make_params(4), SentencePair([3, EOS_ID], [5, EOS_ID]))
        assert np.array_equal(parse_matrix(format_matrix(attn)), attn)


def test_batched_decoding_equals_one_sentence_runs(monkeypatch):
    # chunks of about 2, so chunking and the return to input order are exercised
    from attnalign import evaluation

    # the tanh scratch of two length-4 sources at attn 4 in float64
    monkeypatch.setattr(evaluation, "DECODE_CHUNK_BYTES", 2 * 4 * 4 * 8)
    p = init_params(ModelDims(src_vocab=7, tgt_vocab=4, embed=4, hidden=4, attn=4, out=4),
                    seed=0, init_scale=0.8)
    rng = np.random.default_rng(0)
    sources = [[int(t) for t in rng.integers(3, 7, size=n)] + [EOS_ID] for n in (5, 1, 3, 6, 2, 4, 1)]
    chunks = evaluation._chunks(p, [len(src) for src in sources])
    assert 2 < len(chunks) < len(sources)
    hyps = evaluation.greedy_decode_all(p, sources, max_len=6)
    assert len(hyps) == len(sources)
    for src, hyp in zip(sources, hyps):
        one = greedy_decode(p, src, max_len=6)
        assert hyp.token_ids == one.token_ids
    ends = [h.token_ids[-1] == EOS_ID for h in hyps]
    assert any(ends) and not all(ends)  # some stop at eos, some at max_len
    assert all(len(h.token_ids) == 6 for h, e in zip(hyps, ends) if not e)


# A set whose greedy runs some stop at eos and some at max_len=6.
MIX_DIMS = ModelDims(src_vocab=7, tgt_vocab=4, embed=4, hidden=4, attn=4, out=4)


def mix_sources():
    """Sources of every length 1..6, eos included, twice over."""
    rng = np.random.default_rng(0)
    return [[int(t) for t in rng.integers(3, 7, size=n - 1)] + [EOS_ID] for n in (1, 2, 3, 4, 5, 6) * 2]


# The greedy tokens must equal the composed oracle's, and the oracle's
# per-step attention the teacher-forced attention of those tokens (eos
# appended where max_len cut them): teacher forcing runs every step over the
# whole chunk, so a row's products may round differently from the oracle's.
@pytest.mark.parametrize("dtype,rel", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("chunk", [2, None], ids=["chunk2", "default"])
def test_greedy_decoding_equals_composed_oracle(monkeypatch, chunk, dtype, rel):
    from attnalign import evaluation

    p = init_params(MIX_DIMS, seed=0, dtype=dtype, init_scale=0.8)
    sources = mix_sources()
    if chunk is not None:
        # the tanh scratch of ``chunk`` length-4 sources
        budget = chunk * 4 * MIX_DIMS.attn * np.dtype(dtype).itemsize
        monkeypatch.setattr(evaluation, "DECODE_CHUNK_BYTES", budget)
        assert 2 < len(evaluation._chunks(p, [len(src) for src in sources])) < len(sources)
    hyps = evaluation.greedy_decode_all(p, sources, max_len=6)
    want = composed_greedy_decode_all(p, sources, max_len=6)
    pairs = [SentencePair(src, h.token_ids + [EOS_ID] * (h.token_ids[-1] != EOS_ID))
             for src, h in zip(sources, hyps)]
    for src, hyp, (ids, ref), mat in zip(sources, hyps, want, evaluation.dump_attention_all(p, pairs)):
        assert hyp.token_ids == ids
        got = mat[: len(ids)]
        assert got.dtype == dtype and got.shape == ref.shape == (len(ids), len(src))
        assert np.abs(got - ref).max() <= rel * np.abs(ref).max()
    ends = [h.token_ids[-1] == EOS_ID for h in hyps]
    assert any(ends) and not all(ends)  # some stop at eos, some at max_len


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_greedy_chunks_are_length_sorted_and_within_the_byte_budget(monkeypatch, dtype):
    from attnalign import evaluation

    p = init_params(MIX_DIMS, seed=0, dtype=dtype)
    row = MIX_DIMS.attn * np.dtype(dtype).itemsize  # tanh scratch bytes per source position
    budget = 12 * row
    monkeypatch.setattr(evaluation, "DECODE_CHUNK_BYTES", budget)
    rng = np.random.default_rng(0)
    lengths = [int(n) for n in rng.integers(1, 7, size=40)]
    lengths[17], lengths[30] = 13, 14  # each over the budget on its own
    chunks = evaluation._chunks(p, lengths)
    assert sorted(i for chunk in chunks for i in chunk) == list(range(len(lengths)))
    in_order = [lengths[i] for chunk in chunks for i in chunk]
    assert in_order == sorted(in_order)
    for chunk in chunks:
        assert len(chunk) == 1 or len(chunk) * max(lengths[i] for i in chunk) * row <= budget
    for chunk, after in zip(chunks, chunks[1:]):  # each chunk took all that fit
        assert (len(chunk) + 1) * lengths[after[0]] * row > budget
    assert [17] in chunks and [30] in chunks
    assert max(map(len, chunks)) > 1


@pytest.mark.parametrize("dtype,rel", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_batched_dump_equals_one_pair_runs(monkeypatch, dtype, rel):
    # chunks of about 2, so chunking and the return to input order are exercised
    from attnalign import evaluation

    # the tanh scratch of two length-4 sources
    monkeypatch.setattr(evaluation, "DECODE_CHUNK_BYTES", 2 * 4 * MIX_DIMS.attn * np.dtype(dtype).itemsize)
    p = init_params(MIX_DIMS, seed=0, dtype=dtype, init_scale=0.8)
    rng = np.random.default_rng(1)
    pairs = [SentencePair(src, [3] * int(rng.integers(0, 6)) + [EOS_ID]) for src in mix_sources()]
    assert 2 < len(evaluation._chunks(p, [pair.src_len for pair in pairs])) < len(pairs)
    mats = evaluation.dump_attention_all(p, pairs)
    assert len(mats) == len(pairs)
    for pair, mat in zip(pairs, mats):
        one = dump_attention(p, pair)
        assert mat.dtype == dtype and mat.shape == one.shape == (pair.tgt_len, pair.src_len)
        assert np.abs(mat - one).max() <= rel * np.abs(one).max()


def test_dump_chunks_of_short_sources_with_long_targets_are_within_the_byte_budget(monkeypatch):
    # a dump chunk keeps per-step arrays for every target step, so a pair's
    # longer side sets its length; by source length alone all six pairs
    # would fit one chunk
    from attnalign import evaluation

    row = MIX_DIMS.attn * 8  # tanh scratch bytes per position in float64
    budget = 12 * row
    monkeypatch.setattr(evaluation, "DECODE_CHUNK_BYTES", budget)
    p = init_params(MIX_DIMS, seed=0)
    pairs = [SentencePair([3, EOS_ID], [3] * n + [EOS_ID]) for n in (11, 2, 5, 11, 1, 3)]
    assert len(evaluation._chunks(p, [pair.src_len for pair in pairs])) == 1
    seen = []
    monkeypatch.setattr(evaluation, "make_batch", lambda ps: seen.append(ps) or make_batch(ps))
    mats = evaluation.dump_attention_all(p, pairs)
    assert [mat.shape for mat in mats] == [(pair.tgt_len, pair.src_len) for pair in pairs]
    assert sorted(map(len, seen)) == [1, 1, 1, 3]
    for chunk in seen:
        assert len(chunk) * max(max(q.src_len, q.tgt_len) for q in chunk) * row <= budget


def test_max_len_far_beyond_eos_decodes_as_a_short_one():
    # the step records grow with the steps that run, not with max_len
    from attnalign import evaluation

    p = init_params(MIX_DIMS, seed=0, init_scale=0.8)
    sources = mix_sources()[:7]  # all of them emit eos within 6 steps
    short = evaluation.greedy_decode_all(p, sources, max_len=6)
    long = evaluation.greedy_decode_all(p, sources, max_len=10**12)
    assert all(h.token_ids[-1] == EOS_ID for h in short)
    for a, b in zip(short, long):
        assert a.token_ids == b.token_ids


def test_finished_sentences_leave_the_batch(monkeypatch):
    from attnalign import evaluation
    from attnalign import tensor as T

    rows = []
    step = T.attention_step

    def counting_step(s, *args):
        rows.append(len(s))
        return step(s, *args)

    p = init_params(MIX_DIMS, seed=0, init_scale=0.8)
    sources = mix_sources()[:8]  # only the last one never emits eos
    monkeypatch.setattr(T, "attention_step", counting_step)
    hyps = evaluation.greedy_decode_all(p, sources, max_len=6)
    lengths = [len(h.token_ids) for h in hyps]
    assert [h.token_ids[-1] == EOS_ID for h in hyps] == [True] * 7 + [False]
    assert rows == [sum(n > t for n in lengths) for t in range(6)]
    assert rows[0] == 8 and rows[-1] == 1  # the never-eos sentence runs its last steps alone


def test_greedy_steps_record_nothing_on_the_tape(monkeypatch):
    from attnalign import evaluation
    from attnalign import tensor as T

    p = init_params(MIX_DIMS, seed=0, init_scale=0.8)
    w2 = p.tensors["out.W2"]
    w2[EOS_ID] = 0
    w2[2] = -w2[3]  # one of two opposite logits beats eos's 0: no sentence ends
    sources = mix_sources()
    parents, tapes = [], []
    record = T._record

    def checking_record(data, inputs, vjp):
        parents.extend(t.tape for t in inputs)
        return record(data, inputs, vjp)

    monkeypatch.setattr(T, "_record", checking_record)
    monkeypatch.setattr(T, "Tape", lambda *args: tapes.append(args))
    for max_len in (5, 50):
        hyps = evaluation.greedy_decode_all(p, sources, max_len=max_len)
        assert all(len(h.token_ids) == max_len and EOS_ID not in h.token_ids for h in hyps)
    assert parents and all(tape is None for tape in parents)
    assert tapes == []
