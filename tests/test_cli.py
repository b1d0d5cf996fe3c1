import numpy as np
import pytest

from attnalign.cli import main, parse_config_file
from attnalign.model import load_checkpoint


def run(*argv):
    return main(list(argv))


@pytest.fixture
def copy_corpus(tmp_path):
    prefix = str(tmp_path / "toy")
    assert (
        run(
            "synth",
            "--task",
            "copy",
            "--vocab-size",
            "8",
            "--min-len",
            "2",
            "--max-len",
            "4",
            "--pairs",
            "12",
            "--seed",
            "0",
            "--out-prefix",
            prefix,
        )
        == 0
    )
    return prefix


class TestSynth:
    def test_copy_task_copies(self, copy_corpus, tmp_path):
        src = (tmp_path / "toy.src").read_text().splitlines()
        tgt = (tmp_path / "toy.tgt").read_text().splitlines()
        assert src == tgt
        aligns = (tmp_path / "toy.align").read_text().splitlines()
        for s, a in zip(src, aligns):
            n = len(s.split())
            assert a.split() == [f"{k}-{k}" for k in range(n)]

    def test_reverse_task_reverses(self, tmp_path):
        prefix = str(tmp_path / "rev")
        run("synth", "--task", "reverse", "--pairs", "5", "--out-prefix", prefix)
        src = (tmp_path / "rev.src").read_text().splitlines()
        tgt = (tmp_path / "rev.tgt").read_text().splitlines()
        for s, t in zip(src, tgt):
            assert t.split() == s.split()[::-1]

    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (a, b):
            run("synth", "--pairs", "6", "--seed", "3", "--out-prefix", prefix)
        for suffix in (".src", ".tgt", ".align"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == (
                tmp_path / ("b" + suffix)
            ).read_bytes()


def test_prepare_writes_vocabs(copy_corpus, tmp_path):
    assert (
        run(
            "prepare",
            "--src",
            copy_corpus + ".src",
            "--tgt",
            copy_corpus + ".tgt",
            "--out-prefix",
            str(tmp_path / "v"),
        )
        == 0
    )
    assert (tmp_path / "v.src.vocab").exists()
    assert (tmp_path / "v.tgt.vocab").exists()


class TestTransformAlign:
    def test_smooth_window_zero_matches_simple_bytes(self, copy_corpus, tmp_path):
        common = [
            "--align",
            copy_corpus + ".align",
            "--src",
            copy_corpus + ".src",
            "--tgt",
            copy_corpus + ".tgt",
        ]
        simple = tmp_path / "simple.txt"
        smooth = tmp_path / "smooth.txt"
        run("transform-align", *common, "--mode", "simple", "--out", str(simple))
        run(
            "transform-align",
            *common,
            "--mode",
            "smooth",
            "--window",
            "0",
            "--out",
            str(smooth),
        )
        assert simple.read_bytes() == smooth.read_bytes()

    def test_malformed_alignment_reports_line_number(self, copy_corpus, tmp_path, caplog):
        bad = tmp_path / "bad.align"
        lines = (tmp_path / "toy.align").read_text().splitlines()
        lines[2] = "0_0"
        bad.write_text("\n".join(lines) + "\n")
        rc = run(
            "transform-align",
            "--align",
            str(bad),
            "--src",
            copy_corpus + ".src",
            "--tgt",
            copy_corpus + ".tgt",
            "--out",
            str(tmp_path / "out.txt"),
        )
        assert rc == 2
        assert ":3:" in caplog.text

    def test_line_count_mismatch_fails(self, copy_corpus, tmp_path):
        short = tmp_path / "short.align"
        short.write_text("0-0\n")
        rc = run(
            "transform-align",
            "--align",
            str(short),
            "--src",
            copy_corpus + ".src",
            "--tgt",
            copy_corpus + ".tgt",
            "--out",
            str(tmp_path / "out.txt"),
        )
        assert rc == 2


def write_train_config(path, prefix, ckpt, extra=""):
    path.write_text(
        f"train_src={prefix}.src\n"
        f"train_tgt={prefix}.tgt\n"
        f"train_align={prefix}.align\n"
        "embed=4\nhidden=4\nattn=4\nout=4\n"
        "epochs=1\nbatch_size=4\nseed=0\nschedule=J\n"
        f"checkpoint={ckpt}\n" + extra
    )


class TestTrain:
    def test_smoke_produces_loadable_checkpoint(self, copy_corpus, tmp_path):
        cfg = tmp_path / "train.cfg"
        write_train_config(cfg, copy_corpus, tmp_path / "m")
        assert run("train", "--config", str(cfg)) == 0
        params = load_checkpoint(tmp_path / "m.ckpt")
        assert params.dims.hidden == 4

    def test_lambda_zero_matches_translation_only(self, copy_corpus, tmp_path):
        cfg1 = tmp_path / "a.cfg"
        write_train_config(cfg1, copy_corpus, tmp_path / "a", extra="lambda=0\n")
        cfg2 = tmp_path / "b.cfg"
        write_train_config(cfg2, copy_corpus, tmp_path / "b", extra="schedule=TRANS:ALL:1\n")
        assert run("train", "--config", str(cfg1)) == 0
        assert run("train", "--config", str(cfg2)) == 0
        pa = load_checkpoint(tmp_path / "a.ckpt")
        pb = load_checkpoint(tmp_path / "b.ckpt")
        for n in pa.names():
            assert np.array_equal(pa.tensors[n], pb.tensors[n]), n

    def test_alignment_schedule_without_alignments_fails(self, copy_corpus, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"train_src={copy_corpus}.src\n"
            f"train_tgt={copy_corpus}.tgt\n"
            "embed=4\nhidden=4\nattn=4\nout=4\n"
            "epochs=1\nschedule=ALIGN:A:1\n"
        )
        assert run("train", "--config", str(cfg)) == 2

    def test_missing_config_file_fails(self, tmp_path):
        assert run("train", "--config", str(tmp_path / "nope.cfg")) == 2

    @pytest.mark.parametrize("key", ["train_src", "train_tgt"])
    def test_missing_required_key_is_one_line_error(self, copy_corpus, tmp_path, caplog, key):
        cfg = tmp_path / "train.cfg"
        write_train_config(cfg, copy_corpus, tmp_path / "m")
        lines = cfg.read_text().splitlines()
        cfg.write_text("\n".join(ln for ln in lines if not ln.startswith(key + "=")) + "\n")
        assert run("train", "--config", str(cfg)) == 2
        assert f"{cfg}: missing required key '{key}'" in caplog.text


class TestScoring:
    def test_score_align_identical_is_one(self, tmp_path, capsys):
        f = tmp_path / "links.txt"
        f.write_text("0-0 1-1\n0-1\n")
        assert run("score-align", "--hyp", str(f), "--gold", str(f)) == 0
        assert "f1=1.0000" in capsys.readouterr().out

    def test_score_align_disjoint_is_zero(self, tmp_path, capsys):
        h = tmp_path / "h.txt"
        g = tmp_path / "g.txt"
        h.write_text("0-0\n")
        g.write_text("1-1\n")
        run("score-align", "--hyp", str(h), "--gold", str(g))
        assert "f1=0.0000" in capsys.readouterr().out

    def test_score_align_hand_case_half(self, tmp_path, capsys):
        h = tmp_path / "h.txt"
        g = tmp_path / "g.txt"
        h.write_text("0-0 1-1\n")
        g.write_text("0-0 0-1\n")
        run("score-align", "--hyp", str(h), "--gold", str(g))
        out = capsys.readouterr().out
        assert "precision=0.5000 recall=0.5000 f1=0.5000" in out

    def test_score_align_malformed_token_reports_path_and_line(self, tmp_path, caplog):
        h = tmp_path / "hyp.txt"
        g = tmp_path / "gold.txt"
        h.write_text("0-0\nx-1\n")
        g.write_text("0-0\n1-1\n")
        assert run("score-align", "--hyp", str(h), "--gold", str(g)) == 2
        assert f"{h}:2: malformed alignment token 'x-1'" in caplog.text

    def test_score_bleu_identity(self, tmp_path, capsys):
        f = tmp_path / "sents.txt"
        f.write_text("a b c d e\nx y z w q\n")
        assert run("score-bleu", "--hyp", str(f), "--ref", str(f)) == 0
        assert "bleu=1.0000 bp=1.0000" in capsys.readouterr().out


class TestDecodeCommands:
    @pytest.fixture
    def trained(self, copy_corpus, tmp_path):
        run(
            "prepare",
            "--src",
            copy_corpus + ".src",
            "--tgt",
            copy_corpus + ".tgt",
            "--out-prefix",
            str(tmp_path / "v"),
        )
        cfg = tmp_path / "train.cfg"
        write_train_config(
            cfg,
            copy_corpus,
            tmp_path / "m",
            extra=f"src_vocab={tmp_path}/v.src.vocab\ntgt_vocab={tmp_path}/v.tgt.vocab\n",
        )
        assert run("train", "--config", str(cfg)) == 0
        return tmp_path

    def test_translate_writes_one_line_per_input(self, copy_corpus, trained):
        out = trained / "hyp.txt"
        rc = run(
            "translate",
            "--checkpoint",
            str(trained / "m.ckpt"),
            "--src-vocab",
            str(trained / "v.src.vocab"),
            "--tgt-vocab",
            str(trained / "v.tgt.vocab"),
            "--src",
            copy_corpus + ".src",
            "--max-len",
            "8",
            "--out",
            str(out),
        )
        assert rc == 0
        n_in = len((trained / "toy.src").read_text().splitlines())
        assert len(out.read_text().splitlines()) == n_in

    def test_dump_attn_matrices_have_pair_shapes(self, copy_corpus, trained):
        out = trained / "attn.txt"
        rc = run(
            "dump-attn",
            "--checkpoint",
            str(trained / "m.ckpt"),
            "--src-vocab",
            str(trained / "v.src.vocab"),
            "--tgt-vocab",
            str(trained / "v.tgt.vocab"),
            "--src",
            copy_corpus + ".src",
            "--tgt",
            copy_corpus + ".tgt",
            "--out",
            str(out),
            "--align-out",
            str(trained / "links.txt"),
        )
        assert rc == 0
        from attnalign.supervision import read_matrices

        mats = read_matrices(out)
        srcs = (trained / "toy.src").read_text().splitlines()
        tgts = (trained / "toy.tgt").read_text().splitlines()
        assert len(mats) == len(srcs)
        for mat, s, t in zip(mats, srcs, tgts):
            assert mat.shape == (len(t.split()) + 1, len(s.split()) + 1)
            np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-6)
        assert len((trained / "links.txt").read_text().splitlines()) == len(srcs)


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nalpha = 1\n\nbeta=x=y\n")
    assert parse_config_file(cfg) == {"alpha": "1", "beta": "x=y"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals here\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_file(bad)
