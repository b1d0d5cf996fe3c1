"""Command-line front end.

Subcommands: synth, prepare, transform-align, train, translate, dump-attn,
score-align, score-bleu. Results go to stdout (or the --out file);
diagnostics go to stderr. Every command is deterministic given its flags
and seeds; exit status is nonzero on any error.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import corpus, evaluation, supervision, synth, training
from .model import ModelDims, init_params, load_checkpoint

log = logging.getLogger("attnalign")


def _echo_config(args):
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    log.info("resolved configuration: %s", resolved)


# ---------------------------------------------------------------------------
# config file (plain key=value lines, '#' comments)


def parse_config_file(path):
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value")
            key, _, val = line.partition("=")
            cfg[key.strip()] = val.strip()
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    spec = synth.SynthSpec(
        task=args.task,
        vocab_size=args.vocab_size,
        min_len=args.min_len,
        max_len=args.max_len,
        pairs=args.pairs,
        seed=args.seed,
    )
    paths = synth.write_corpus(spec, args.out_prefix)
    log.info("wrote %s, %s, %s", *paths)
    return 0


def cmd_prepare(args):
    src_vocab = corpus.build_vocab(args.src, args.max_vocab)
    tgt_vocab = corpus.build_vocab(args.tgt, args.max_vocab)
    src_vocab.save(args.out_prefix + ".src.vocab")
    tgt_vocab.save(args.out_prefix + ".tgt.vocab")
    log.info(
        "vocab sizes: src=%d tgt=%d (reserved ids included)", len(src_vocab), len(tgt_vocab)
    )
    return 0


def cmd_transform_align(args):
    with open(args.src, encoding="utf-8") as fh:
        src_lines = fh.read().splitlines()
    with open(args.tgt, encoding="utf-8") as fh:
        tgt_lines = fh.read().splitlines()
    with open(args.align, encoding="utf-8") as fh:
        align_lines = fh.read().splitlines()
    if not (len(src_lines) == len(tgt_lines) == len(align_lines)):
        raise ValueError(
            f"line count mismatch: src={len(src_lines)} tgt={len(tgt_lines)} "
            f"align={len(align_lines)}"
        )
    cfg = supervision.SmoothingConfig(window=args.window, sigma=args.sigma)
    smoothing = cfg if args.mode == "smooth" else None
    matrices = []
    for n, (s, t, a) in enumerate(zip(src_lines, tgt_lines, align_lines), 1):
        try:
            aln = corpus.parse_pharaoh(a, len(s.split()), len(t.split()), flip=args.flip)
        except ValueError as exc:
            raise ValueError(f"{args.align}:{n}: {exc}") from None
        matrices.append(supervision.supervision_matrix(aln, smoothing))
    supervision.write_matrices(matrices, args.out)
    log.info("wrote %d supervision matrices to %s", len(matrices), args.out)
    return 0


def cmd_train(args):
    cfg = parse_config_file(args.config)
    for key in ("train_src", "train_tgt"):
        if key not in cfg:
            raise ValueError(f"{args.config}: missing required key {key!r}")

    def get(key, default=None, cast=str):
        return cast(cfg[key]) if key in cfg else default

    seed = get("seed", 0, int)
    smoothing = bool(get("smoothing", 0, int))
    smoothing_cfg = supervision.SmoothingConfig(
        window=get("window", 2, int), sigma=get("sigma", 0.5, float)
    )
    align_weight = get("lambda", 1.0, float)
    epochs = get("epochs", 10, int)
    schedule = training.parse_schedule(get("schedule", "J"), total_epochs=epochs)
    train_cfg = training.TrainConfig(
        schedule=schedule,
        batch_size=get("batch_size", 80, int),
        seed=seed,
        align_weight=align_weight,
        rho=get("rho", 0.95, float),
        eps=get("eps", 1e-6, float),
        clip_norm=get("clip_norm", training.DEFAULT_CLIP_NORM, float),
    )

    if "src_vocab" in cfg:
        src_vocab = corpus.Vocab.load(cfg["src_vocab"])
    else:
        src_vocab = corpus.build_vocab(cfg["train_src"], get("max_vocab", 50000, int))
    if "tgt_vocab" in cfg:
        tgt_vocab = corpus.Vocab.load(cfg["tgt_vocab"])
    else:
        tgt_vocab = corpus.build_vocab(cfg["train_tgt"], get("max_vocab", 50000, int))

    pairs, _ = corpus.load_parallel(
        cfg["train_src"], cfg["train_tgt"], src_vocab, tgt_vocab, max_len=get("max_len", 50, int)
    )
    if not pairs:
        raise ValueError("no usable training pairs")

    needs_supervision = align_weight != 0.0 and any(
        p.objective in (training.ALIGNMENT, training.JOINT) for p in schedule
    )
    sup = None
    if "train_align" in cfg:
        alignments = corpus.load_pharaoh_file(
            cfg["train_align"], pairs, flip=bool(get("pharaoh_flip", 0, int))
        )
        smooth = smoothing_cfg if smoothing else None
        sup = [supervision.supervision_matrix(a, smooth) for a in alignments]
    elif needs_supervision:
        raise ValueError("schedule needs alignment supervision but train_align is not set")

    dims = ModelDims(
        src_vocab=len(src_vocab),
        tgt_vocab=len(tgt_vocab),
        embed=get("embed", 64, int),
        hidden=get("hidden", 64, int),
        attn=get("attn", 64, int),
        out=get("out", 64, int),
    )
    dtype = np.float32 if get("precision", 64, int) == 32 else np.float64
    params = init_params(dims, seed=seed, dtype=dtype, init_scale=get("init_scale", 0.08, float))

    log.info("training config: %s", cfg)
    log_fh = open(cfg["log"], "w", encoding="utf-8") if "log" in cfg else None
    try:
        training.run_schedule(
            params, pairs, sup, train_cfg, checkpoint_prefix=get("checkpoint"), log_fh=log_fh
        )
    finally:
        if log_fh is not None:
            log_fh.close()
    if "checkpoint" not in cfg:
        log.warning("no checkpoint path configured; trained model discarded")
    return 0


def _load_model_and_vocabs(args):
    params = load_checkpoint(args.checkpoint)
    src_vocab = corpus.Vocab.load(args.src_vocab)
    tgt_vocab = corpus.Vocab.load(args.tgt_vocab)
    return params, src_vocab, tgt_vocab


def cmd_translate(args):
    params, src_vocab, tgt_vocab = _load_model_and_vocabs(args)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        with open(args.src, encoding="utf-8") as fh:
            for line in fh:
                tokens = line.split()
                if not tokens:
                    out.write("\n")
                    continue
                ids = src_vocab.encode(tokens) + [corpus.EOS_ID]
                hyp = evaluation.greedy_decode(params, ids, max_len=args.max_len)
                words = tgt_vocab.decode(t for t in hyp.token_ids if t != corpus.EOS_ID)
                out.write(" ".join(words) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_dump_attn(args):
    params, src_vocab, tgt_vocab = _load_model_and_vocabs(args)
    pairs, _ = corpus.load_parallel(args.src, args.tgt, src_vocab, tgt_vocab, max_len=None)
    matrices = [evaluation.dump_attention(params, p) for p in pairs]
    supervision.write_matrices(matrices, args.out)
    if args.align_out:
        with open(args.align_out, "w", encoding="utf-8") as fh:
            for mat in matrices:
                links = evaluation.extract_alignment(mat, threshold=args.threshold)
                fh.write(corpus.format_pharaoh(links, flip=args.flip) + "\n")
    log.info("dumped %d attention matrices to %s", len(matrices), args.out)
    return 0


def _read_link_sets(path, flip):
    sets = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            try:
                links = [corpus.parse_pharaoh_token(tok, flip) for tok in line.split()]
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None
            sets.append({(j + 1, i + 1) for i, j in links})
    return sets


def cmd_score_align(args):
    hyp_sets = _read_link_sets(args.hyp, args.flip)
    gold_sets = _read_link_sets(args.gold, args.flip)
    if len(hyp_sets) != len(gold_sets):
        raise ValueError(
            f"line count mismatch: hyp={len(hyp_sets)} gold={len(gold_sets)}"
        )
    report = evaluation.corpus_alignment_f1(hyp_sets, gold_sets)
    print(report.format_line())
    return 0


def cmd_score_bleu(args):
    with open(args.hyp, encoding="utf-8") as fh:
        hyps = [line.split() for line in fh.read().splitlines()]
    with open(args.ref, encoding="utf-8") as fh:
        refs = [line.split() for line in fh.read().splitlines()]
    report = evaluation.bleu(hyps, refs)
    print(report.format_line())
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="attnalign",
        description="Train and evaluate attention-supervised translation models.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic parallel corpus")
    p.add_argument("--task", choices=synth.TASKS, default="copy")
    p.add_argument("--vocab-size", type=int, default=30)
    p.add_argument("--min-len", type=int, default=3)
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prepare", help="build vocabulary files")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--max-vocab", type=int, default=50000)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("transform-align", help="alignments -> supervision matrices")
    p.add_argument("--align", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--mode", choices=("simple", "smooth"), default="simple")
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--flip", action="store_true", help="Pharaoh pairs are tgt-src")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform_align)

    p = sub.add_parser("train", help="train per a key=value config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("translate", help="greedy decoding")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--max-len", type=int, default=80)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("dump-attn", help="teacher-forced attention matrices")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--align-out", default=None, help="also extract Pharaoh links")
    p.add_argument("--threshold", type=float, default=evaluation.EXTRACT_THRESHOLD)
    p.add_argument("--flip", action="store_true")
    p.set_defaults(func=cmd_dump_attn)

    p = sub.add_parser("score-align", help="corpus alignment F1")
    p.add_argument("--hyp", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--flip", action="store_true")
    p.set_defaults(func=cmd_score_align)

    p = sub.add_parser("score-bleu", help="corpus BLEU with brevity penalty")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.set_defaults(func=cmd_score_bleu)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    _echo_config(args)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
