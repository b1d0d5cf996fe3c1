import math

import numpy as np
import pytest

from attnalign.corpus import EOS_ID, SentencePair, make_batch
from attnalign.evaluation import (
    alignment_f1,
    bleu,
    corpus_alignment_f1,
    dump_attention,
    extract_alignment,
    greedy_decode,
)
from attnalign.model import ModelDims, forward_teacher_forced, init_params
from attnalign.supervision import format_matrix, parse_matrix


DIMS = ModelDims(src_vocab=7, tgt_vocab=9, embed=4, hidden=4, attn=4, out=4)


def make_params(seed=0):
    return init_params(DIMS, seed=seed, init_scale=0.5)


class TestGreedyDecode:
    def test_max_len_one_emits_one_token(self):
        hyp = greedy_decode(make_params(1), [3, EOS_ID], max_len=1)
        assert len(hyp.token_ids) == 1
        assert hyp.attention.shape == (1, 2)

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
        assert np.array_equal(h1.attention, h2.attention)
        assert h1.score == h2.score

    def test_score_is_sum_of_chosen_log_probs(self):
        hyp = greedy_decode(make_params(3), [3, EOS_ID])
        assert hyp.score <= 0.0

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

    def test_lower_threshold_never_loses_links(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            l = int(rng.integers(2, 7))
            attn = rng.random((3, l))
            attn /= attn.sum(axis=1, keepdims=True)
            assert extract_alignment(attn, 0.3) <= extract_alignment(attn, 0.1)


class TestF1:
    def test_identical_sets(self):
        r = alignment_f1({(1, 1), (2, 2)}, {(1, 1), (2, 2)})
        assert (r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0)

    def test_disjoint_sets(self):
        r = alignment_f1({(1, 1)}, {(2, 2)})
        assert (r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0)

    def test_hand_case_half(self):
        r = alignment_f1({(1, 1), (2, 2)}, {(1, 1), (2, 1)})
        assert r.precision == 0.5 and r.recall == 0.5 and r.f1 == 0.5

    def test_symmetry_swaps_precision_recall(self):
        hyp = {(1, 1), (1, 2), (2, 2)}
        gold = {(1, 1), (3, 3)}
        a = alignment_f1(hyp, gold)
        b = alignment_f1(gold, hyp)
        assert a.precision == b.recall and a.recall == b.precision
        assert a.f1 == pytest.approx(b.f1)

    def test_empty_conventions(self):
        both = alignment_f1(set(), set())
        assert (both.precision, both.recall, both.f1) == (1.0, 1.0, 1.0)
        hyp_empty = alignment_f1(set(), {(1, 1)})
        assert hyp_empty.precision == 0.0 and hyp_empty.recall == 0.0
        gold_empty = alignment_f1({(1, 1)}, set())
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
        line = alignment_f1({(1, 1)}, {(1, 1)}).format_line()
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
    # chunks of 2, so chunking and the return to input order are exercised
    from attnalign import evaluation

    monkeypatch.setattr(evaluation, "DECODE_CHUNK", 2)
    p = init_params(ModelDims(src_vocab=7, tgt_vocab=4, embed=4, hidden=4, attn=4, out=4),
                    seed=0, init_scale=0.8)
    rng = np.random.default_rng(0)
    sources = [[int(t) for t in rng.integers(3, 7, size=n)] + [EOS_ID] for n in (5, 1, 3, 6, 2, 4, 1)]
    hyps = evaluation.greedy_decode_all(p, sources, max_len=6)
    assert len(hyps) == len(sources)
    for src, hyp in zip(sources, hyps):
        one = greedy_decode(p, src, max_len=6)
        assert hyp.token_ids == one.token_ids
        np.testing.assert_allclose(hyp.attention, one.attention, rtol=1e-12, atol=1e-15)
        assert hyp.score == pytest.approx(one.score, rel=1e-12)
    ends = [h.token_ids[-1] == EOS_ID for h in hyps]
    assert any(ends) and not all(ends)  # some stop at eos, some at max_len
    assert all(len(h.token_ids) == 6 for h, e in zip(hyps, ends) if not e)
