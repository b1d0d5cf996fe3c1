import numpy as np
import pytest

from attnalign import corpus
from attnalign.corpus import (
    EOS_ID,
    UNK_ID,
    Batch,
    SentencePair,
    Vocab,
    build_vocab,
    encode_line,
    format_pharaoh,
    load_parallel,
    load_pharaoh_file,
    make_batches,
    parse_pharaoh,
)


@pytest.fixture
def tiny_corpus(tmp_path):
    src = tmp_path / "train.src"
    tgt = tmp_path / "train.tgt"
    src.write_text("a b\na\n", encoding="utf-8")
    tgt.write_text("x y\nx\n", encoding="utf-8")
    return src, tgt


class TestVocab:
    def test_frequency_then_first_occurrence(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("a b\na\n", encoding="utf-8")
        v = build_vocab(f, 10)
        assert v.token_to_id["a"] == 3
        assert v.token_to_id["b"] == 4

    def test_rare_token_maps_to_unk(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("a a b b c c d d e\n", encoding="utf-8")
        v = build_vocab(f, 4)
        assert v.encode_token("e") == UNK_ID
        assert v.encode_token("d") != UNK_ID

    def test_deterministic(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("z q z a q z\n", encoding="utf-8")
        v1, v2 = build_vocab(f, 10), build_vocab(f, 10)
        assert v1.id_to_token == v2.id_to_token

    def test_empty_corpus_rejected(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocab(f, 10)

    def test_save_load_round_trip(self, tmp_path):
        v = Vocab(["alpha", "beta"])
        path = tmp_path / "v.vocab"
        v.save(path)
        again = Vocab.load(path)
        assert again.id_to_token == v.id_to_token

    def test_load_skips_empty_lines_and_keeps_first_id(self, tmp_path):
        path = tmp_path / "v.vocab"
        path.write_text("b\n\na\nb\nc\n", encoding="utf-8")
        v = Vocab.load(path)
        want = Vocab(["b", "a", "b", "c"])
        assert v.id_to_token == want.id_to_token
        assert v.token_to_id == want.token_to_id

    def test_load_rejects_a_reserved_token(self, tmp_path):
        path = tmp_path / "v.vocab"
        path.write_text("b\n\na\nb\n<eos>\nc\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"v\.vocab:5: reserved token '<eos>'"):
            Vocab.load(path)

    @pytest.mark.parametrize("entry", ["w1 ", "w2 w3", "\tw4", "  "])
    def test_load_rejects_a_line_that_is_not_one_token(self, tmp_path, entry):
        # such an entry could never match a text token, so its word would read as <unk>
        path = tmp_path / "v.vocab"
        path.write_text(f"a\n\n{entry}\nb\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            Vocab.load(path)
        assert str(exc.value) == f"{path}:3: {entry!r} is not one token without whitespace"

    def test_load_rejects_a_file_without_a_token(self, tmp_path):
        path = tmp_path / "v.vocab"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"v\.vocab: empty vocabulary$"):
            Vocab.load(path)

    @pytest.mark.parametrize("token", ["<pad>", "<eos>", "<unk>"])
    def test_add_rejects_a_reserved_token(self, token):
        with pytest.raises(ValueError, match="reserved token"):
            Vocab(["a", token])

    @pytest.mark.parametrize("token", ["<pad>", "<eos>"])
    def test_build_rejects_a_reserved_token_with_its_line(self, tmp_path, token):
        f = tmp_path / "c.txt"
        f.write_text(f"a b\nb\nb {token} a <eos>\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"c\.txt:3: reserved token '{token}'$"):
            build_vocab(f, 10)

    def test_build_does_not_count_a_literal_unk(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("<unk> <unk> <unk> a b\nb\n", encoding="utf-8")
        v = build_vocab(f, 2)
        assert v.id_to_token == ["<pad>", "<eos>", "<unk>", "b", "a"]
        assert v.encode(["<unk>", "a"]) == [UNK_ID, 4]


class TestEncodePair:
    def test_eos_appended_both_sides(self):
        sv, tv = Vocab(["a", "b"]), Vocab(["x"])
        pair = SentencePair(encode_line("s", 1, "a b", sv), encode_line("t", 1, "x", tv))
        assert pair.src_ids == [3, 4, EOS_ID]
        assert pair.tgt_ids == [3, EOS_ID]
        assert pair.src_len == 3 and pair.tgt_len == 2

    def test_oov_becomes_unk(self):
        assert encode_line("s", 1, "a zzz", Vocab(["a"])) == [3, UNK_ID, EOS_ID]

    def test_round_trip_in_vocab(self):
        sv = Vocab(["a", "b"])
        assert " ".join(sv.decode(encode_line("s", 1, "b a b", sv)[:-1])) == "b a b"

    def test_empty_side_returns_none(self):
        assert encode_line("s", 1, "", Vocab(["a"])) is None
        assert encode_line("t", 1, "   ", Vocab(["x"])) is None


@pytest.mark.parametrize("side", ["src", "tgt"])
@pytest.mark.parametrize("line,token", [("a <eos> b", "<eos>"), ("b <pad>", "<pad>"),
                                        ("<pad> a <eos>", "<pad>")])
def test_load_parallel_rejects_a_reserved_token(tmp_path, side, line, token):
    paths = {s: tmp_path / s for s in ("src", "tgt")}
    paths["src"].write_text("a b\nb\n", encoding="utf-8")
    paths["tgt"].write_text("a b\nb\n", encoding="utf-8")
    paths[side].write_text(f"a b\n{line}\n", encoding="utf-8")
    v = Vocab(["a", "b"])
    with pytest.raises(ValueError, match=rf"{side}:2: reserved token '{token}'$"):
        load_parallel(paths["src"], paths["tgt"], v, v)


def test_load_parallel_maps_a_literal_unk_to_unk(tmp_path):
    (tmp_path / "s").write_text("a <unk> b\n", encoding="utf-8")
    (tmp_path / "t").write_text("<unk>\n", encoding="utf-8")
    v = Vocab(["a", "b"])
    pairs, *_ = load_parallel(tmp_path / "s", tmp_path / "t", v, v)
    assert pairs[0].src_ids == [3, UNK_ID, 4, EOS_ID] and pairs[0].tgt_ids == [UNK_ID, EOS_ID]


def test_load_parallel_skips_and_counts(tmp_path, caplog):
    src = tmp_path / "s"
    tgt = tmp_path / "t"
    src.write_text("a b\n\na b c d\na\n", encoding="utf-8")
    tgt.write_text("x\nx\nx\nx\n", encoding="utf-8")
    sv, tv = Vocab(["a", "b", "c", "d"]), Vocab(["x"])
    pairs, n_lines, skipped = load_parallel(src, tgt, sv, tv, max_len=3)
    assert len(pairs) == 2
    assert n_lines == 4
    assert skipped == (1, 1)
    assert [p.pair_index for p in pairs] == [0, 3]
    assert all(p.src_ids[-1] == EOS_ID and p.tgt_ids[-1] == EOS_ID for p in pairs)


def test_alignment_follows_its_line_after_a_skipped_pair(tmp_path):
    src, tgt, align = tmp_path / "s", tmp_path / "t", tmp_path / "a"
    src.write_text("a b\n\nb a\n", encoding="utf-8")
    tgt.write_text("x y\nx\ny x\n", encoding="utf-8")
    align.write_text("0-0 1-1\n\n0-1 1-0\n", encoding="utf-8")
    sv, tv = Vocab(["a", "b"]), Vocab(["x", "y"])
    pairs, n_lines, _ = load_parallel(src, tgt, sv, tv)
    assert n_lines == 3
    assert [p.pair_index for p in pairs] == [0, 2]
    alignments = load_pharaoh_file(align, pairs, n_lines)
    assert alignments[1].links == {(2, 1), (1, 2)}


def test_lines_split_at_newline_only(tmp_path):
    # a U+2028 inside a line is whitespace between tokens, not a line end
    src, tgt, align = tmp_path / "s", tmp_path / "t", tmp_path / "a"
    src.write_text("a\u2028b\nb\n", encoding="utf-8")
    tgt.write_text("x y\ny\n", encoding="utf-8")
    align.write_text("0-0\u20281-1\n0-0\n", encoding="utf-8")
    sv, tv = Vocab(["a", "b"]), Vocab(["x", "y"])
    pairs, n_lines, _ = load_parallel(src, tgt, sv, tv)
    assert n_lines == 2
    assert [p.src_ids for p in pairs] == [[3, 4, EOS_ID], [4, EOS_ID]]
    alignments = load_pharaoh_file(align, pairs, n_lines)
    assert [a.links for a in alignments] == [{(1, 1), (2, 2)}, {(1, 1)}]


class TestPharaoh:
    def test_basic_parse(self):
        a = parse_pharaoh("0-0 1-1", 2, 2)
        assert a.links == {(1, 1), (2, 2)}
        assert (a.m, a.l) == (3, 3)

    def test_empty_line_gives_empty_link_set(self):
        a = parse_pharaoh("", 2, 2)
        assert a.links == set()

    def test_duplicates_collapse(self):
        a = parse_pharaoh("0-0 0-0", 2, 2)
        assert a.links == {(1, 1)}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            parse_pharaoh("5-0", 2, 2)

    def test_malformed_token_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_pharaoh("0_0", 2, 2)
        with pytest.raises(ValueError, match="malformed"):
            parse_pharaoh("a-b", 2, 2)

    def test_flip_convention(self):
        a = parse_pharaoh("0-1", 3, 2, flip=True)
        # flipped: first index is target, second is source
        assert a.links == {(1, 2)}

    def test_format_parse_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            l, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            links = {
                (int(rng.integers(1, m + 1)), int(rng.integers(1, l + 1)))
                for _ in range(rng.integers(0, 6))
            }
            line = format_pharaoh(links)
            assert parse_pharaoh(line, l, m).links == links


class TestBatches:
    def pairs(self, lengths):
        return [
            SentencePair([3] * (n - 1) + [EOS_ID], [3] * n + [EOS_ID], k)
            for k, n in enumerate(lengths)
        ]

    def test_sizes(self):
        batches = make_batches(self.pairs([2, 3, 4, 2, 3]), 2)
        assert sorted(len(b) for b in batches) == [1, 2, 2]

    def test_same_seed_same_order(self):
        pairs = self.pairs([2, 3, 4, 5, 2, 3])
        b1 = make_batches(pairs, 2, seed=7)
        b2 = make_batches(pairs, 2, seed=7)
        assert [[p.pair_index for p in b.pairs] for b in b1] == [
            [p.pair_index for p in b.pairs] for b in b2
        ]

    def test_mask_rows(self):
        pairs = [
            SentencePair([3, 3, EOS_ID], [3, EOS_ID], 0),
            SentencePair([3, 3, 3, 3, EOS_ID], [3, EOS_ID], 1),
        ]
        (batch,) = make_batches(pairs, 2, seed=0)
        by_index = {p.pair_index: k for k, p in enumerate(batch.pairs)}
        np.testing.assert_array_equal(batch.src_mask[by_index[0]], [1, 1, 1, 0, 0])

    def test_mask_sum_equals_token_count(self):
        pairs = self.pairs([2, 5, 3, 7, 4])
        for batch in make_batches(pairs, 2, seed=3):
            assert batch.src_mask.sum() == sum(p.src_len for p in batch.pairs)
            assert batch.tgt_mask.sum() == sum(p.tgt_len for p in batch.pairs)

    def test_supervision_travels_with_pairs(self):
        pairs = self.pairs([2, 3, 4])
        sup = [np.full((1, 1), float(k)) for k in range(3)]
        for batch in make_batches(pairs, 2, seed=1, supervision=sup):
            for p, s in zip(batch.pairs, batch.supervision):
                assert s[0, 0] == p.pair_index

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            make_batches(self.pairs([2]), 0)


def test_sentence_pair_requires_eos():
    with pytest.raises(ValueError):
        SentencePair([3, 4], [3, EOS_ID])
