from pathlib import Path

import numpy as np
import pytest

from attnalign import corpus
from attnalign.cli import main, parse_config_file
from attnalign.corpus import EOS_ID, PAD_ID, PAD_TOKEN
from attnalign.evaluation import dump_attention_all, extract_alignment, greedy_decode_all
from attnalign.model import load_checkpoint, save_checkpoint
from attnalign.supervision import read_matrices


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sigma_is_one_line_error(self, copy_corpus, tmp_path, caplog, value):
        out = tmp_path / "out.txt"
        caplog.clear()
        assert run("transform-align", "--align", copy_corpus + ".align", "--src", copy_corpus + ".src",
                   "--tgt", copy_corpus + ".tgt", "--mode", "smooth", f"--sigma={value}",
                   "--out", str(out)) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"sigma must be positive and finite, got {value}"]
        assert not out.exists()

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

    @pytest.mark.parametrize("extra", [1, -1])
    def test_alignment_line_count_mismatch_is_one_line_error(self, copy_corpus, tmp_path, caplog, extra):
        align = tmp_path / "toy.align"
        lines = align.read_text().splitlines()
        lines = lines + ["0-0"] if extra > 0 else lines[:-1]
        align.write_text("".join(line + "\n" for line in lines))
        cfg = tmp_path / "train.cfg"
        write_train_config(cfg, copy_corpus, tmp_path / "m")
        assert run("train", "--config", str(cfg)) == 2
        assert f"line count mismatch: {align} has {12 + extra}, the corpus has 12" in caplog.text
        assert not (tmp_path / "m.ckpt").exists()

    def test_alignment_schedule_without_alignments_fails(self, copy_corpus, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"train_src={copy_corpus}.src\n"
            f"train_tgt={copy_corpus}.tgt\n"
            "embed=4\nhidden=4\nattn=4\nout=4\n"
            "epochs=1\nschedule=ALIGN:A:1\n"
        )
        assert run("train", "--config", str(cfg)) == 2

    def test_align_phase_without_alignments_fails_before_training(self, copy_corpus, tmp_path, caplog):
        # ALIGN needs supervision even at lambda=0; the config is refused up front
        cfg = tmp_path / "c.cfg"
        write_train_config(cfg, copy_corpus, tmp_path / "m",
                           extra=f"schedule=A\nlambda=0\nlog={tmp_path / 'train.log'}\n")
        cfg.write_text("".join(ln + "\n" for ln in cfg.read_text().splitlines()
                               if not ln.startswith("train_align=")))
        assert run("train", "--config", str(cfg)) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith(f"{cfg}: ")
        assert "epoch" not in caplog.text
        assert not (tmp_path / "train.log").exists()

    @pytest.mark.parametrize("case", ["empty-files", "all-over-max-len"])
    def test_no_usable_pairs_names_the_corpus_files_and_why(self, copy_corpus, tmp_path, caplog, case):
        src, tgt = copy_corpus + ".src", copy_corpus + ".tgt"
        assert run("prepare", "--src", src, "--tgt", tgt, "--out-prefix", str(tmp_path / "v")) == 0
        extra = f"src_vocab={tmp_path}/v.src.vocab\ntgt_vocab={tmp_path}/v.tgt.vocab\n"
        if case == "empty-files":
            for path in (src, tgt):
                open(path, "w").close()
            want = f"no usable training pairs: {src} and {tgt} have no lines"
        else:
            extra += "max_len=1\n"  # every copy_corpus sentence has 2 to 4 tokens
            want = (f"no usable training pairs in {src} and {tgt}: of 12 lines, 0 have an empty side "
                    "and 12 are longer than max_len 1")
        cfg = tmp_path / "train.cfg"
        write_train_config(cfg, copy_corpus, tmp_path / "m", extra=extra)
        caplog.clear()
        assert run("train", "--config", str(cfg)) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [want]
        assert not (tmp_path / "m.ckpt").exists()

    def test_checkpoint_directory_that_does_not_exist_is_refused_up_front(self, copy_corpus, tmp_path, caplog):
        ckpt = tmp_path / "nodir" / "m"
        cfg = tmp_path / "train.cfg"
        write_train_config(cfg, copy_corpus, ckpt, extra=f"log={tmp_path / 'train.log'}\n")
        n = cfg.read_text().splitlines().index(f"checkpoint={ckpt}") + 1
        caplog.clear()
        assert run("train", "--config", str(cfg)) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"{cfg}:{n}: checkpoint directory '{ckpt.parent}' does not exist"]
        assert not any(r.getMessage().startswith("epoch ") for r in caplog.records)
        assert not (tmp_path / "train.log").exists()

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


    @pytest.mark.parametrize(
        "line, reason",
        [
            ("epochs=abc", "epochs must be int, got 'abc'"),
            ("lamda=0", "unknown key 'lamda'"),
            ("hidden=0", "hidden must be >= 1, got '0'"),
            ("seed=-1", "seed must be >= 0, got '-1'"),
            ("schedule=JOINT:ALL", "malformed phase 'JOINT:ALL' (want OBJ:PART:EPOCHS)"),
        ],
    )
    def test_bad_config_line_names_file_and_line(self, copy_corpus, tmp_path, caplog, line, reason):
        cfg = tmp_path / "train.cfg"
        write_train_config(cfg, copy_corpus, tmp_path / "m", extra=line + "\n")
        n = len(cfg.read_text().splitlines())
        assert run("train", "--config", str(cfg)) == 2
        assert f"{cfg}:{n}: {reason}" in caplog.text
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["sigma", "init_scale", "lambda", "rho", "eps", "clip_norm"])
    def test_non_finite_float_key_is_one_line_error(self, copy_corpus, tmp_path, caplog, key, value):
        cfg = tmp_path / "train.cfg"
        write_train_config(cfg, copy_corpus, tmp_path / "m", extra=f"{key}={value}\n")
        n = len(cfg.read_text().splitlines())
        assert run("train", "--config", str(cfg)) == 2
        assert f"{cfg}:{n}: {key} must be finite, got '{value}'" in caplog.text
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("value", ["0", "-0.5"])
    def test_init_scale_must_be_positive(self, copy_corpus, tmp_path, caplog, value):
        cfg = tmp_path / "train.cfg"
        write_train_config(cfg, copy_corpus, tmp_path / "m", extra=f"init_scale={value}\n")
        n = len(cfg.read_text().splitlines())
        assert run("train", "--config", str(cfg)) == 2
        assert f"{cfg}:{n}: init_scale must be > 0, got '{value}'" in caplog.text

    def test_non_positive_clip_norm_turns_clipping_off(self, copy_corpus, tmp_path):
        ckpts = []
        for name, clip in (("off", "0"), ("neg", "-1"), ("huge", "1e300")):
            cfg = tmp_path / f"{name}.cfg"
            write_train_config(cfg, copy_corpus, tmp_path / name, extra=f"clip_norm={clip}\n")
            assert run("train", "--config", str(cfg)) == 0
            ckpts.append((tmp_path / f"{name}.ckpt").read_bytes())
        assert ckpts[0] == ckpts[1] == ckpts[2]


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

    def test_score_bleu_on_two_empty_files_names_both(self, tmp_path, caplog):
        h, r = tmp_path / "h.txt", tmp_path / "r.txt"
        h.write_text("")
        r.write_text("")
        assert run("score-bleu", "--hyp", str(h), "--ref", str(r)) == 2
        errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
        assert errors == [f"empty corpus: {h} and {r} have no lines"]

    def test_score_align_on_two_empty_files_names_both(self, tmp_path, caplog, capsys):
        h, g = tmp_path / "h.align", tmp_path / "g.align"
        h.write_text("")
        g.write_text("")
        assert run("score-align", "--hyp", str(h), "--gold", str(g)) == 2
        errors = [rec.getMessage() for rec in caplog.records if rec.levelname == "ERROR"]
        assert errors == [f"empty corpus: {h} and {g} have no lines"]
        assert "f1=" not in capsys.readouterr().out

    @pytest.mark.parametrize("command,ref_flag,text", [("score-bleu", "--ref", "a b"),
                                                        ("score-align", "--gold", "0-0")],
                             ids=["score-bleu", "score-align"])
    def test_line_count_mismatch_names_both_files(self, tmp_path, caplog, command, ref_flag, text):
        h, r = tmp_path / "h.txt", tmp_path / "r.txt"
        h.write_text(f"{text}\n{text}\n")
        r.write_text(f"{text}\n")
        assert run(command, "--hyp", str(h), ref_flag, str(r)) == 2
        assert f"line count mismatch: {h} has 2, {r} has 1" in caplog.text

    def test_transform_align_line_count_mismatch_names_every_file(self, tmp_path, caplog):
        src, tgt, align = tmp_path / "a.src", tmp_path / "a.tgt", tmp_path / "a.align"
        src.write_text("x y\nx y\n")
        tgt.write_text("x y\n")
        align.write_text("0-0\n1-1\n")
        assert run("transform-align", "--align", str(align), "--src", str(src), "--tgt", str(tgt),
                   "--out", str(tmp_path / "out.txt")) == 2
        assert f"line count mismatch: {src} has 2, {tgt} has 1, {align} has 2" in caplog.text
        assert not (tmp_path / "out.txt").exists()


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
        mats = read_matrices(out)
        srcs = (trained / "toy.src").read_text().splitlines()
        tgts = (trained / "toy.tgt").read_text().splitlines()
        assert len(mats) == len(srcs)
        for mat, s, t in zip(mats, srcs, tgts):
            assert mat.shape == (len(t.split()) + 1, len(s.split()) + 1)
            np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-6)
        assert len((trained / "links.txt").read_text().splitlines()) == len(srcs)

    def test_dump_attn_links_keep_one_line_per_input_line(self, copy_corpus, trained):
        # input line 3 is empty: its pair is skipped, its links line is empty
        keep = [0, 1, None, 2, 3, 4]
        for ext in ("src", "tgt", "align"):
            lines = (trained / f"toy.{ext}").read_text().splitlines()
            text = "".join(("" if k is None else lines[k]) + "\n" for k in keep)
            (trained / f"gap.{ext}").write_text(text)
        links = trained / "gap.links"
        rc = run(
            "dump-attn",
            "--checkpoint",
            str(trained / "m.ckpt"),
            "--src-vocab",
            str(trained / "v.src.vocab"),
            "--tgt-vocab",
            str(trained / "v.tgt.vocab"),
            "--src",
            str(trained / "gap.src"),
            "--tgt",
            str(trained / "gap.tgt"),
            "--out",
            str(trained / "gap.attn"),
            "--align-out",
            str(links),
        )
        assert rc == 0
        assert len(links.read_text().splitlines()) == 6
        assert links.read_text().splitlines()[2] == ""
        assert len(read_matrices(trained / "gap.attn")) == 5
        assert run("score-align", "--hyp", str(links), "--gold", str(trained / "gap.align")) == 0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_dump_attn_non_finite_threshold_is_one_line_error(self, copy_corpus, trained, caplog, value):
        out, links = trained / "attn.txt", trained / "links.txt"
        caplog.clear()
        assert run("dump-attn", "--checkpoint", str(trained / "m.ckpt"),
                   "--src-vocab", str(trained / "v.src.vocab"), "--tgt-vocab", str(trained / "v.tgt.vocab"),
                   "--src", copy_corpus + ".src", "--tgt", copy_corpus + ".tgt", "--out", str(out),
                   "--align-out", str(links), f"--threshold={value}") == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"threshold must be finite, got {value}"]
        assert not out.exists() and not links.exists()

    @pytest.mark.parametrize("command", ["translate", "dump-attn"])
    @pytest.mark.parametrize("side", ["src", "tgt"])
    @pytest.mark.parametrize("extra", [-1, 5])  # fewer and more entries than the model
    def test_vocabulary_checkpoint_mismatch_is_one_line_error(
        self, copy_corpus, trained, caplog, command, side, extra
    ):
        good = (trained / f"v.{side}.vocab").read_text().splitlines()
        words = good[:extra] if extra < 0 else good + [f"extra{k}" for k in range(extra)]
        bad = trained / f"bad.{side}.vocab"
        bad.write_text("".join(w + "\n" for w in words))
        vocabs = {s: str(trained / f"v.{s}.vocab") for s in ("src", "tgt")}
        vocabs[side] = str(bad)
        out = trained / "out.txt"
        args = [command, "--checkpoint", str(trained / "m.ckpt"), "--src-vocab", vocabs["src"],
                "--tgt-vocab", vocabs["tgt"], "--src", copy_corpus + ".src", "--out", str(out)]
        if command == "dump-attn":
            args += ["--tgt", copy_corpus + ".tgt"]
        assert run(*args) == 2
        rows = len(good) + 3  # the reserved ids come first
        assert f"{bad}: vocabulary has {rows + extra} entries, checkpoint expects {rows}" in caplog.text
        assert not out.exists()


    # r is the first tensor record: u32 name length, b"src_emb", u32 rank 2,
    # two u32 dims, then the payload
    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda b, r: b[: b.index(b"\n\n") // 2], "missing header terminator"),
            (lambda b, r: b[: r + 4 + 2], "truncated tensor name"),
            (lambda b, r: b[: r + 4 + 7 + 4 + 2], "truncated shape of 'src_emb'"),
            (lambda b, r: b[: r + 4 + 7 + 4 + 8 + 5], "truncated tensor 'src_emb'"),
            (lambda b, r: b.replace(b"format", b"f\xffrmat", 1), "can't decode byte 0xff"),
            (lambda b, r: b.replace(b"hidden=4", b"hidden=abc", 1), "hidden must be int, got 'abc'"),
            (lambda b, r: b.replace(b"seed=0", b"seed=1.5", 1), "seed must be int, got '1.5'"),
            (lambda b, r: b.replace(b"hidden=4", b"hidden=0", 1), "hidden must be >= 1"),
            (lambda b, r: b.replace(b"partition.attn.v=A", b"partition.attn.v=X", 1),
             "missing or bad partition tag for 'attn.v'"),
            (lambda b, r: b.replace(b"partition.out.W2=T", b"partition.out.W2=A", 1),
             "missing or bad partition tag for 'out.W2'"),
            (lambda b, r: b + b[r:], "duplicate tensor 'src_emb' at offset "),
        ],
        ids=["cut-header", "cut-name", "cut-shape", "cut-payload", "non-utf8", "hidden-abc",
             "seed-float", "hidden-0", "partition-X", "partition-swapped", "duplicate-record"],
    )
    def test_damaged_checkpoint_is_one_line_error_naming_it(
        self, copy_corpus, trained, caplog, damage, reason
    ):
        blob = (trained / "m.ckpt").read_bytes()
        bad = trained / "bad.ckpt"
        bad.write_bytes(damage(blob, blob.index(b"\n\n") + 2))
        out = trained / "out.txt"
        assert run("translate", "--checkpoint", str(bad), "--src-vocab", str(trained / "v.src.vocab"),
                   "--tgt-vocab", str(trained / "v.tgt.vocab"), "--src", copy_corpus + ".src",
                   "--out", str(out)) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].startswith(f"{bad}: "), errors
        assert reason in errors[0]
        assert "Traceback" not in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", ["translate", "dump-attn"])
    def test_reserved_token_in_input_is_one_line_error(self, copy_corpus, trained, caplog, command):
        lines = (trained / "toy.src").read_text().splitlines()
        lines[2] = lines[2] + " <eos>"
        src = trained / "reserved.src"
        src.write_text("".join(line + "\n" for line in lines))
        out = trained / "out.txt"
        args = [command, "--checkpoint", str(trained / "m.ckpt"), "--src-vocab",
                str(trained / "v.src.vocab"), "--tgt-vocab", str(trained / "v.tgt.vocab"),
                "--src", str(src), "--out", str(out)]
        if command == "dump-attn":
            args += ["--tgt", copy_corpus + ".tgt"]
        assert run(*args) == 2
        assert f"{src}:3: reserved token '<eos>'" in caplog.text
        assert not out.exists()


# every text file each command reads, by its key in ``files`` below
NON_UTF8_INPUTS = [
    ("prepare", "src"), ("prepare", "tgt"),
    ("transform-align", "align"), ("transform-align", "src"), ("transform-align", "tgt"),
    ("train", "config"), ("train", "src_vocab"), ("train", "tgt_vocab"), ("train", "src"),
    ("train", "tgt"), ("train", "align"),
    ("translate", "src_vocab"), ("translate", "tgt_vocab"), ("translate", "src"),
    ("dump-attn", "src_vocab"), ("dump-attn", "tgt_vocab"), ("dump-attn", "src"),
    ("dump-attn", "tgt"),
    ("score-align", "align"), ("score-align", "gold"),
    ("score-bleu", "src"), ("score-bleu", "tgt"),
]


def _command_inputs(copy_corpus, tmp_path):
    """Vocabularies and a model trained on ``copy_corpus``, a copy of every
    input each command reads under ``tmp_path/inputs`` (keyed as in
    ``NON_UTF8_INPUTS``), and each command's arguments over those copies."""
    assert run("prepare", "--src", copy_corpus + ".src", "--tgt", copy_corpus + ".tgt",
               "--out-prefix", str(tmp_path / "v")) == 0
    cfg = tmp_path / "train.cfg"
    write_train_config(cfg, copy_corpus, tmp_path / "m",
                       extra=f"src_vocab={tmp_path}/v.src.vocab\ntgt_vocab={tmp_path}/v.tgt.vocab\n")
    assert run("train", "--config", str(cfg)) == 0
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    names = {"src": "toy.src", "tgt": "toy.tgt", "align": "toy.align", "gold": "toy.align",
             "src_vocab": "v.src.vocab", "tgt_vocab": "v.tgt.vocab"}
    files = {key: inputs / ("gold.align" if key == "gold" else name) for key, name in names.items()}
    for key, name in names.items():
        files[key].write_bytes((tmp_path / name).read_bytes())
    files["config"] = inputs / "train.cfg"
    write_train_config(files["config"], inputs / "toy", tmp_path / "m2",
                       extra=f"src_vocab={files['src_vocab']}\ntgt_vocab={files['tgt_vocab']}\n")
    f = {key: str(path) for key, path in files.items()}
    out = str(tmp_path / "out")
    decode = ["--checkpoint", str(tmp_path / "m.ckpt"), "--src-vocab", f["src_vocab"],
              "--tgt-vocab", f["tgt_vocab"], "--src", f["src"], "--out", out]
    argv = {
        "prepare": ["--src", f["src"], "--tgt", f["tgt"], "--out-prefix", out],
        "transform-align": ["--align", f["align"], "--src", f["src"], "--tgt", f["tgt"], "--out", out],
        "train": ["--config", f["config"]],
        "translate": decode,
        "dump-attn": decode + ["--tgt", f["tgt"]],
        "score-align": ["--hyp", f["align"], "--gold", f["gold"]],
        "score-bleu": ["--hyp", f["src"], "--ref", f["tgt"]],
    }
    return files, argv


@pytest.mark.parametrize("command, bad", NON_UTF8_INPUTS, ids=[f"{c}-{b}" for c, b in NON_UTF8_INPUTS])
def test_non_utf8_input_is_one_line_error_naming_file_and_line(
    copy_corpus, tmp_path, caplog, command, bad
):
    files, argv = _command_inputs(copy_corpus, tmp_path)
    # one input with a 0xff byte on line 2
    lines = files[bad].read_bytes().split(b"\n")
    lines[1] = lines[1][:1] + b"\xff" + lines[1][1:]
    files[bad].write_bytes(b"\n".join(lines))
    caplog.clear()
    assert run(command, *argv[command]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{files[bad]}:2: not UTF-8"]
    assert not (tmp_path / "m2.ckpt").exists()


@pytest.mark.parametrize("command, empty", NON_UTF8_INPUTS, ids=[f"{c}-{b}" for c, b in NON_UTF8_INPUTS])
def test_empty_input_is_one_line_error_naming_the_file(copy_corpus, tmp_path, caplog, command, empty):
    files, argv = _command_inputs(copy_corpus, tmp_path)
    files[empty].write_bytes(b"")
    caplog.clear()
    rc = run(command, *argv[command])
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    if (command, empty) == ("translate", "src"):
        # no sentence to translate is not an error
        assert (rc, errors) == (0, [])
        assert (tmp_path / "out").read_bytes() == b""
        return
    assert rc == 2
    assert len(errors) == 1 and str(files[empty]) in errors[0], errors
    assert not (tmp_path / "m2.ckpt").exists()


@pytest.mark.parametrize("command, missing", NON_UTF8_INPUTS, ids=[f"{c}-{b}" for c, b in NON_UTF8_INPUTS])
def test_missing_input_is_one_line_error_naming_the_file(copy_corpus, tmp_path, caplog, command, missing):
    files, argv = _command_inputs(copy_corpus, tmp_path)
    files[missing].unlink()
    caplog.clear()
    assert run(command, *argv[command]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{files[missing]}: No such file or directory"]
    assert "Traceback" not in caplog.text
    assert not (tmp_path / "m2.ckpt").exists()


# Each row's exit status and error line once its input keeps two whole lines
# and part of the third (12 lines in every whole input), with the inputs'
# paths as {key} and the cut config line's value as {value}. What is left of
# an input to prepare, a source to translate and a vocabulary to train is
# valid, smaller input.
TRUNCATED_INPUT_OUTCOMES = {
    ("prepare", "src"): (0, None),
    ("prepare", "tgt"): (0, None),
    ("transform-align", "align"): (2, "line count mismatch: {src} has 12, {tgt} has 12, {align} has 3"),
    ("transform-align", "src"): (2, "line count mismatch: {src} has 3, {tgt} has 12, {align} has 12"),
    ("transform-align", "tgt"): (2, "line count mismatch: {src} has 12, {tgt} has 3, {align} has 12"),
    ("train", "config"): (2, "{value}: No such file or directory"),
    ("train", "src_vocab"): (0, None),
    ("train", "tgt_vocab"): (0, None),
    ("train", "src"): (2, "line count mismatch: {src} has 3, {tgt} has 12"),
    ("train", "tgt"): (2, "line count mismatch: {src} has 12, {tgt} has 3"),
    ("train", "align"): (2, "line count mismatch: {align} has 3, the corpus has 12"),
    ("translate", "src_vocab"): (2, "{src_vocab}: vocabulary has 6 entries, checkpoint expects 11"),
    ("translate", "tgt_vocab"): (2, "{tgt_vocab}: vocabulary has 6 entries, checkpoint expects 11"),
    ("translate", "src"): (0, None),
    ("dump-attn", "src_vocab"): (2, "{src_vocab}: vocabulary has 6 entries, checkpoint expects 11"),
    ("dump-attn", "tgt_vocab"): (2, "{tgt_vocab}: vocabulary has 6 entries, checkpoint expects 11"),
    ("dump-attn", "src"): (2, "line count mismatch: {src} has 3, {tgt} has 12"),
    ("dump-attn", "tgt"): (2, "line count mismatch: {src} has 12, {tgt} has 3"),
    ("score-align", "align"): (2, "line count mismatch: {align} has 3, {gold} has 12"),
    ("score-align", "gold"): (2, "line count mismatch: {align} has 12, {gold} has 3"),
    ("score-bleu", "src"): (2, "line count mismatch: {src} has 3, {tgt} has 12"),
    ("score-bleu", "tgt"): (2, "line count mismatch: {src} has 12, {tgt} has 3"),
}


@pytest.mark.parametrize("in_token", [False, True], ids=["mid-line", "mid-token"])
@pytest.mark.parametrize("command, cut", NON_UTF8_INPUTS, ids=[f"{c}-{b}" for c, b in NON_UTF8_INPUTS])
def test_truncated_input_is_valid_or_one_line_error_naming_it(
    copy_corpus, tmp_path, caplog, command, cut, in_token
):
    files, argv = _command_inputs(copy_corpus, tmp_path)
    # the third line is cut just after its first space, or inside its last
    # token; a line of one token (a vocabulary entry, a config line) has no
    # space, so both cuts fall inside it
    data = files[cut].read_bytes()
    start = data.index(b"\n", data.index(b"\n") + 1) + 1
    line = data[start : data.index(b"\n", start)]
    keep = line.index(b" ") + 1 if b" " in line and not in_token else len(line) - 1
    files[cut].write_bytes(data[: start + keep])
    caplog.clear()
    rc = run(command, *argv[command])
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    want_rc, want = TRUNCATED_INPUT_OUTCOMES[command, cut]
    value = line[:keep].decode().partition("=")[2]
    assert (rc, errors) == (want_rc, [want.format(**files, value=value)] if want else [])
    assert "Traceback" not in caplog.text


# The benchmark's fixed model, its held-out pool's synth spec and the
# translations recorded for the pool, one per line in column 2.
DECODE_FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "decode"
DECODE_POOL_SYNTH = ["--task", "copy", "--vocab-size", "30", "--min-len", "3", "--max-len", "10",
                     "--pairs", "1000", "--seed", "112"]


def test_translate_of_the_decode_pool_equals_the_recorded_translations(tmp_path):
    assert run("synth", *DECODE_POOL_SYNTH, "--out-prefix", str(tmp_path / "pool")) == 0
    out = tmp_path / "pool.hyp"
    assert run("translate", "--checkpoint", str(DECODE_FIXTURE / "model.ckpt"),
               "--src-vocab", str(DECODE_FIXTURE / "src.vocab"),
               "--tgt-vocab", str(DECODE_FIXTURE / "tgt.vocab"),
               "--src", str(tmp_path / "pool.src"), "--out", str(out)) == 0
    recorded = (DECODE_FIXTURE / "expected.tsv").read_text(encoding="utf-8").splitlines()
    assert out.read_text(encoding="utf-8").splitlines() == [row.split("\t")[1] for row in recorded]


def test_dump_attn_of_the_decode_pool_equals_the_recorded_links(tmp_path):
    assert run("synth", *DECODE_POOL_SYNTH, "--out-prefix", str(tmp_path / "pool")) == 0
    links = tmp_path / "pool.links"
    assert run("dump-attn", "--checkpoint", str(DECODE_FIXTURE / "model.ckpt"),
               "--src-vocab", str(DECODE_FIXTURE / "src.vocab"),
               "--tgt-vocab", str(DECODE_FIXTURE / "tgt.vocab"),
               "--src", str(tmp_path / "pool.src"), "--tgt", str(tmp_path / "pool.tgt"),
               "--out", str(tmp_path / "pool.attn"), "--align-out", str(links)) == 0
    recorded = (DECODE_FIXTURE / "expected.tsv").read_text(encoding="utf-8").splitlines()
    assert links.read_text(encoding="utf-8").splitlines() == [row.split("\t")[2] for row in recorded]


def test_dump_attn_text_of_the_decode_pool_reads_back_to_its_float32_matrices(tmp_path):
    assert run("synth", *DECODE_POOL_SYNTH, "--out-prefix", str(tmp_path / "pool")) == 0
    src, tgt = tmp_path / "pool.src", tmp_path / "pool.tgt"
    attn, links = tmp_path / "pool.attn", tmp_path / "pool.links"
    assert run("dump-attn", "--checkpoint", str(DECODE_FIXTURE / "model.ckpt"),
               "--src-vocab", str(DECODE_FIXTURE / "src.vocab"),
               "--tgt-vocab", str(DECODE_FIXTURE / "tgt.vocab"),
               "--src", str(src), "--tgt", str(tgt),
               "--out", str(attn), "--align-out", str(links)) == 0
    params = load_checkpoint(DECODE_FIXTURE / "model.ckpt")
    src_vocab = corpus.Vocab.load(DECODE_FIXTURE / "src.vocab")
    tgt_vocab = corpus.Vocab.load(DECODE_FIXTURE / "tgt.vocab")
    pairs, n_lines, _ = corpus.load_parallel(src, tgt, src_vocab, tgt_vocab, max_len=None)
    want = dump_attention_all(params, pairs)
    got = [mat.astype(np.float32) for mat in read_matrices(attn)]
    assert len(got) == len(want) == len(pairs)
    for g, w in zip(got, want):
        assert w.dtype == np.float32
        assert np.array_equal(g.view(np.uint32), w.view(np.uint32))
    lines = [""] * n_lines
    for pair, mat in zip(pairs, got):
        lines[pair.pair_index] = corpus.format_pharaoh(extract_alignment(mat))
    assert links.read_text(encoding="utf-8").splitlines() == lines


def test_float64_greedy_decoding_of_the_decode_pool_equals_the_recorded_translations(tmp_path):
    assert run("synth", *DECODE_POOL_SYNTH, "--out-prefix", str(tmp_path / "pool")) == 0
    params = load_checkpoint(DECODE_FIXTURE / "model.ckpt")
    params.tensors = {name: arr.astype(np.float64) for name, arr in params.tensors.items()}
    src_vocab = corpus.Vocab.load(DECODE_FIXTURE / "src.vocab")
    tgt_vocab = corpus.Vocab.load(DECODE_FIXTURE / "tgt.vocab")
    path = tmp_path / "pool.src"
    sources = [corpus.encode_line(path, n, line, src_vocab)
               for n, line in enumerate(corpus.read_lines(path), 1)]
    hyps = greedy_decode_all(params, sources)
    got = [" ".join(tgt_vocab.decode(t for t in h.token_ids if t != EOS_ID)) for h in hyps]
    recorded = (DECODE_FIXTURE / "expected.tsv").read_text(encoding="utf-8").splitlines()
    assert got == [row.split("\t")[1] for row in recorded]


def test_translate_never_writes_pad_and_its_output_reads_back(tmp_path):
    params = load_checkpoint(DECODE_FIXTURE / "model.ckpt")
    w2 = params.tensors["out.W2"]
    w2[PAD_ID] = w2[EOS_ID]  # <pad> ties eos wherever eos wins, and has the lower id
    save_checkpoint(params, tmp_path / "tied.ckpt")
    assert run("synth", *DECODE_POOL_SYNTH, "--out-prefix", str(tmp_path / "pool")) == 0
    vocabs = ["--src-vocab", str(DECODE_FIXTURE / "src.vocab"),
              "--tgt-vocab", str(DECODE_FIXTURE / "tgt.vocab")]
    out = tmp_path / "pool.hyp"
    assert run("translate", "--checkpoint", str(tmp_path / "tied.ckpt"), *vocabs,
               "--src", str(tmp_path / "pool.src"), "--out", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert not any(PAD_TOKEN in line.split() for line in lines)
    recorded = (DECODE_FIXTURE / "expected.tsv").read_text(encoding="utf-8").splitlines()
    assert lines == [row.split("\t")[1] for row in recorded]
    assert run("dump-attn", "--checkpoint", str(tmp_path / "tied.ckpt"), *vocabs,
               "--src", str(tmp_path / "pool.src"), "--tgt", str(out),
               "--out", str(tmp_path / "pool.attn")) == 0


def test_every_command_reads_the_output_of_the_one_before(tmp_path, capsys):
    d = str(tmp_path / "d")
    assert run("synth", "--task", "reverse", "--vocab-size", "8", "--min-len", "2",
               "--max-len", "5", "--pairs", "16", "--seed", "3", "--out-prefix", d) == 0
    assert run("prepare", "--src", d + ".src", "--tgt", d + ".tgt", "--out-prefix", d) == 0
    assert run("transform-align", "--align", d + ".align", "--src", d + ".src",
               "--tgt", d + ".tgt", "--mode", "smooth", "--out", d + ".sup") == 0
    assert len(read_matrices(d + ".sup")) == 16
    for precision in (32, 64):
        m = f"{d}{precision}"
        cfg = tmp_path / f"train{precision}.cfg"
        write_train_config(cfg, d, m, extra=f"src_vocab={d}.src.vocab\ntgt_vocab={d}.tgt.vocab\n"
                                            f"smoothing=1\nprecision={precision}\n")
        assert run("train", "--config", str(cfg)) == 0
        model = ["--checkpoint", m + ".ckpt", "--src-vocab", d + ".src.vocab",
                 "--tgt-vocab", d + ".tgt.vocab"]
        assert run("translate", *model, "--src", d + ".src", "--max-len", "8", "--out", m + ".hyp") == 0
        assert run("dump-attn", *model, "--src", d + ".src", "--tgt", m + ".hyp",
                   "--out", m + ".attn", "--align-out", m + ".links") == 0
        hyps = Path(m + ".hyp").read_text(encoding="utf-8").splitlines()
        assert len(read_matrices(m + ".attn")) == sum(1 for h in hyps if h)
        capsys.readouterr()
        assert run("score-align", "--hyp", m + ".links", "--gold", d + ".align") == 0
        assert run("score-bleu", "--hyp", m + ".hyp", "--ref", d + ".tgt") == 0
        out = capsys.readouterr().out
        assert "f1=" in out and "bleu=" in out


def test_prepare_rejects_a_reserved_token(copy_corpus, tmp_path, caplog):
    tgt = tmp_path / "reserved.tgt"
    tgt.write_text("a <pad>\n")
    rc = run("prepare", "--src", copy_corpus + ".src", "--tgt", str(tgt),
             "--out-prefix", str(tmp_path / "v"))
    assert rc == 2
    assert f"{tgt}:1: reserved token '<pad>'" in caplog.text


@pytest.mark.parametrize("value", ["-2", "0"])
def test_prepare_rejects_max_vocab_below_one(copy_corpus, tmp_path, caplog, value):
    rc = run("prepare", "--src", copy_corpus + ".src", "--tgt", copy_corpus + ".tgt",
             "--max-vocab", value, "--out-prefix", str(tmp_path / "v"))
    assert rc == 2
    assert f"max_vocab must be >= 1, got {value}" in caplog.text
    assert not (tmp_path / "v.src.vocab").exists()


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nalpha = 1\n\nbeta=x=y\n")
    assert parse_config_file(cfg) == {"alpha": "1", "beta": "x=y"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals here\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_file(bad)


# Each command with an output in a directory that does not exist, and the
# function that does its work, which must not be reached.
MISSING_OUT_DIR = [
    ("translate", "--out", "attnalign.evaluation.greedy_decode_all"),
    ("dump-attn", "--out", "attnalign.evaluation.dump_attention_all"),
    ("dump-attn", "--align-out", "attnalign.evaluation.dump_attention_all"),
    ("transform-align", "--out", "attnalign.supervision.supervision_matrix"),
    ("prepare", "--out-prefix", "attnalign.corpus.build_vocab"),
    ("synth", "--out-prefix", "attnalign.synth.generate"),
]


def out_path_argv(copy_corpus, tmp_path, command, flag, path):
    """``command``'s arguments with ``path`` as its ``flag`` output and
    every other output in ``tmp_path``."""
    outs = {"--out": str(tmp_path / "x.out"), "--align-out": str(tmp_path / "x.links"),
            "--out-prefix": str(tmp_path / "x")}
    outs[flag] = path
    model = ["--checkpoint", str(DECODE_FIXTURE / "model.ckpt"),
             "--src-vocab", str(DECODE_FIXTURE / "src.vocab"),
             "--tgt-vocab", str(DECODE_FIXTURE / "tgt.vocab")]
    src, tgt = ["--src", copy_corpus + ".src"], ["--tgt", copy_corpus + ".tgt"]
    return {
        "translate": [*model, *src, "--out", outs["--out"]],
        "dump-attn": [*model, *src, *tgt, "--out", outs["--out"], "--align-out", outs["--align-out"]],
        "transform-align": ["--align", copy_corpus + ".align", *src, *tgt, "--out", outs["--out"]],
        "prepare": [*src, *tgt, "--out-prefix", outs["--out-prefix"]],
        "synth": ["--pairs", "3", "--out-prefix", outs["--out-prefix"]],
    }[command]


# The first file a prefix command writes, after its prefix.
FIRST_OUT_SUFFIX = {"prepare": ".src.vocab", "synth": ".src"}


@pytest.mark.parametrize("command, flag, work", MISSING_OUT_DIR,
                         ids=[f"{c}{f}" for c, f, _ in MISSING_OUT_DIR])
def test_output_in_a_missing_directory_fails_before_the_work(
    copy_corpus, tmp_path, caplog, monkeypatch, command, flag, work
):
    def reached(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(work, reached)
    missing = str(tmp_path / "nodir" / "x")
    argv = out_path_argv(copy_corpus, tmp_path, command, flag, missing)
    before = sorted(tmp_path.rglob("*"))
    caplog.clear()
    assert run(command, *argv) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    first = FIRST_OUT_SUFFIX.get(command, "")
    assert errors == [f"{missing}{first}: No such file or directory"]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, flag, work", MISSING_OUT_DIR,
                         ids=[f"{c}{f}" for c, f, _ in MISSING_OUT_DIR])
def test_output_that_is_a_directory_fails_before_the_work(
    copy_corpus, tmp_path, caplog, monkeypatch, command, flag, work
):
    def reached(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(work, reached)
    prefix = str(tmp_path / "adir")
    first = FIRST_OUT_SUFFIX.get(command, "")
    Path(prefix + first).mkdir()
    argv = out_path_argv(copy_corpus, tmp_path, command, flag, prefix)
    before = sorted(tmp_path.rglob("*"))
    caplog.clear()
    assert run(command, *argv) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"{prefix}{first}: Is a directory"]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("value", ["0", "-3"])
def test_translate_rejects_max_len_below_one_before_loading_the_model(
    copy_corpus, tmp_path, caplog, monkeypatch, value
):
    def reached(path):
        raise AssertionError("checkpoint loaded")

    monkeypatch.setattr("attnalign.cli.load_checkpoint", reached)
    out = tmp_path / "hyp.txt"
    caplog.clear()
    assert run("translate", "--checkpoint", str(DECODE_FIXTURE / "model.ckpt"),
               "--src-vocab", str(DECODE_FIXTURE / "src.vocab"),
               "--tgt-vocab", str(DECODE_FIXTURE / "tgt.vocab"),
               "--src", copy_corpus + ".src", "--max-len", value, "--out", str(out)) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"max-len must be >= 1, got {value}"]
    assert not out.exists()
