"""Command-line front end.

Subcommands: synth, prepare, transform-align, train, translate, dump-attn,
score-align, score-bleu. Results go to stdout (or the --out file);
diagnostics go to stderr. Every command is deterministic given its flags
and seeds; exit status is nonzero on any error.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
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


class Config(dict):
    """key -> value text, plus ``lines``: key -> the line that set it."""

    def __init__(self):
        super().__init__()
        self.lines = {}


def parse_config_file(path):
    cfg = Config()
    for ln, line in enumerate(corpus.read_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value")
        key, _, val = line.partition("=")
        cfg[key.strip()] = val.strip()
        cfg.lines[key.strip()] = ln
    return cfg


REQUIRED = object()
_POSITIVE = (lambda v: v >= 1, "must be >= 1")
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_FLAG = (lambda v: v in (0, 1), "must be 0 or 1")

# Every key a train config may set: key -> (type, default, check).
TRAIN_KEYS = {
    "train_src": (str, REQUIRED, None),
    "train_tgt": (str, REQUIRED, None),
    "train_align": (str, None, None),
    "src_vocab": (str, None, None),
    "tgt_vocab": (str, None, None),
    "checkpoint": (str, None, None),
    "log": (str, None, None),
    "max_vocab": (int, 50000, _POSITIVE),
    "max_len": (int, 50, _POSITIVE),
    "pharaoh_flip": (int, 0, _FLAG),
    "smoothing": (int, 0, _FLAG),
    "window": (int, 2, _NON_NEGATIVE),
    "sigma": (float, 0.5, (lambda v: v > 0, "must be > 0")),
    "embed": (int, 64, _POSITIVE),
    "hidden": (int, 64, _POSITIVE),
    "attn": (int, 64, _POSITIVE),
    "out": (int, 64, _POSITIVE),
    "precision": (int, 64, (lambda v: v in (32, 64), "must be 32 or 64")),
    "init_scale": (float, 0.08, (lambda v: v > 0, "must be > 0")),
    "seed": (int, 0, _NON_NEGATIVE),
    "schedule": (str, "J", None),
    "epochs": (int, 10, _NON_NEGATIVE),
    "lambda": (float, 1.0, _NON_NEGATIVE),
    "batch_size": (int, 80, _POSITIVE),
    "rho": (float, 0.95, (lambda v: 0 < v < 1, "must be in (0, 1)")),
    "eps": (float, 1e-6, (lambda v: v > 0, "must be > 0")),
    "clip_norm": (float, training.DEFAULT_CLIP_NORM, None),  # <= 0 turns clipping off
}


def train_settings(path, cfg):
    """Every TRAIN_KEYS value, typed and checked, defaults filled in, and
    the schedule parsed; an unknown key or a bad value, such as a float
    that is not finite, raises ``path:LINE: reason``."""
    for key in cfg:
        if key not in TRAIN_KEYS:
            raise ValueError(f"{path}:{cfg.lines[key]}: unknown key {key!r}")
    out = {}
    for key, (cast, default, check) in TRAIN_KEYS.items():
        if key not in cfg:
            if default is REQUIRED:
                raise ValueError(f"{path}: missing required key {key!r}")
            out[key] = default
            continue
        where = f"{path}:{cfg.lines[key]}"
        try:
            value = cast(cfg[key])
        except ValueError:
            raise ValueError(f"{where}: {key} must be {cast.__name__}, got {cfg[key]!r}") from None
        if cast is float and not np.isfinite(value):
            raise ValueError(f"{where}: {key} must be finite, got {cfg[key]!r}")
        if check is not None and not check[0](value):
            raise ValueError(f"{where}: {key} {check[1]}, got {cfg[key]!r}")
        out[key] = value
    try:
        out["schedule"] = training.parse_schedule(out["schedule"], total_epochs=out["epochs"])
    except ValueError as exc:
        line = cfg.lines.get("schedule", cfg.lines.get("epochs"))
        raise ValueError(f"{path}:{line}: {exc}" if line else f"{path}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# subcommands


def _check_out_dir(path):
    """Raise the error that opening ``path`` for writing would raise for a
    missing directory or for a directory at ``path``, such as ``PATH: No
    such file or directory``, before a command reads its input."""
    try:
        os.stat(os.path.dirname(path) or ".")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def cmd_synth(args):
    spec = synth.SynthSpec(
        task=args.task,
        vocab_size=args.vocab_size,
        min_len=args.min_len,
        max_len=args.max_len,
        pairs=args.pairs,
        seed=args.seed,
    )
    _check_out_dir(args.out_prefix + ".src")
    paths = synth.write_corpus(spec, args.out_prefix)
    log.info("wrote %s, %s, %s", *paths)
    return 0


def cmd_prepare(args):
    if args.max_vocab < 1:
        raise ValueError(f"max_vocab must be >= 1, got {args.max_vocab}")
    _check_out_dir(args.out_prefix + ".src.vocab")
    src_vocab = corpus.build_vocab(args.src, args.max_vocab)
    tgt_vocab = corpus.build_vocab(args.tgt, args.max_vocab)
    src_vocab.save(args.out_prefix + ".src.vocab")
    tgt_vocab.save(args.out_prefix + ".tgt.vocab")
    log.info(
        "vocab sizes: src=%d tgt=%d (reserved ids included)", len(src_vocab), len(tgt_vocab)
    )
    return 0


def cmd_transform_align(args):
    _check_out_dir(args.out)
    src_lines, tgt_lines, align_lines = corpus.read_line_pair(args.src, args.tgt, args.align)
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
    c = train_settings(args.config, cfg)
    train_cfg = training.TrainConfig(
        schedule=c["schedule"],
        batch_size=c["batch_size"],
        seed=c["seed"],
        align_weight=c["lambda"],
        rho=c["rho"],
        eps=c["eps"],
        clip_norm=c["clip_norm"],
    )

    vocabs = []
    for side in ("src", "tgt"):
        if c[f"{side}_vocab"] is not None:
            vocabs.append(corpus.Vocab.load(c[f"{side}_vocab"]))
        else:
            vocabs.append(corpus.build_vocab(c[f"train_{side}"], c["max_vocab"]))
    src_vocab, tgt_vocab = vocabs

    src, tgt = c["train_src"], c["train_tgt"]
    pairs, n_lines, (empty, long) = corpus.load_parallel(src, tgt, src_vocab, tgt_vocab,
                                                         max_len=c["max_len"])
    if not n_lines:
        raise ValueError(f"no usable training pairs: {src} and {tgt} have no lines")
    if not pairs:
        raise ValueError(f"no usable training pairs in {src} and {tgt}: of {n_lines} lines, {empty} "
                         f"have an empty side and {long} are longer than max_len {c['max_len']}")

    sup = None
    if c["train_align"] is not None:
        alignments = corpus.load_pharaoh_file(c["train_align"], pairs, n_lines, flip=bool(c["pharaoh_flip"]))
        smooth = None
        if c["smoothing"]:
            smooth = supervision.SmoothingConfig(window=c["window"], sigma=c["sigma"])
        sup = [supervision.supervision_matrix(a, smooth) for a in alignments]
    elif any(training.needs_supervision(p.objective, c["lambda"]) for p in c["schedule"]):
        raise ValueError(f"{args.config}: schedule needs alignment supervision but train_align is not set")
    ckpt_dir = os.path.dirname(c["checkpoint"] or "")
    if ckpt_dir and not os.path.isdir(ckpt_dir):
        raise ValueError(f"{args.config}:{cfg.lines['checkpoint']}: "
                         f"checkpoint directory {ckpt_dir!r} does not exist")

    dims = ModelDims(
        src_vocab=len(src_vocab),
        tgt_vocab=len(tgt_vocab),
        embed=c["embed"],
        hidden=c["hidden"],
        attn=c["attn"],
        out=c["out"],
    )
    dtype = np.float32 if c["precision"] == 32 else np.float64
    params = init_params(dims, seed=c["seed"], dtype=dtype, init_scale=c["init_scale"])

    log.info("training config: %s", dict(cfg))
    log_fh = open(c["log"], "w", encoding="utf-8") if c["log"] is not None else None
    try:
        training.run_schedule(
            params, pairs, sup, train_cfg, checkpoint_prefix=c["checkpoint"], log_fh=log_fh
        )
    finally:
        if log_fh is not None:
            log_fh.close()
    if c["checkpoint"] is None:
        log.warning("no checkpoint path configured; trained model discarded")
    return 0


def _load_model_and_vocabs(args):
    """The checkpoint and both vocabularies, which must match its dims."""
    params = load_checkpoint(args.checkpoint)
    vocabs = []
    for path, rows in ((args.src_vocab, params.dims.src_vocab),
                       (args.tgt_vocab, params.dims.tgt_vocab)):
        vocab = corpus.Vocab.load(path)
        if len(vocab) != rows:
            raise ValueError(f"{path}: vocabulary has {len(vocab)} entries, checkpoint expects {rows}")
        vocabs.append(vocab)
    return (params, *vocabs)


def cmd_translate(args):
    if args.max_len < 1:
        raise ValueError(f"max-len must be >= 1, got {args.max_len}")
    if args.out:
        _check_out_dir(args.out)
    params, src_vocab, tgt_vocab = _load_model_and_vocabs(args)
    lines = corpus.read_lines(args.src)
    sources = [corpus.encode_line(args.src, n, line, src_vocab) for n, line in enumerate(lines, 1)]
    kept = [k for k, ids in enumerate(sources) if ids is not None]
    hyps = evaluation.greedy_decode_all(params, [sources[k] for k in kept], max_len=args.max_len)
    out_lines = [""] * len(lines)
    for k, hyp in zip(kept, hyps):
        out_lines[k] = " ".join(tgt_vocab.decode(t for t in hyp.token_ids if t != corpus.EOS_ID))
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        out.writelines(line + "\n" for line in out_lines)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_dump_attn(args):
    if not np.isfinite(args.threshold):
        raise ValueError(f"threshold must be finite, got {args.threshold}")
    for path in (args.out, args.align_out):
        if path:
            _check_out_dir(path)
    params, src_vocab, tgt_vocab = _load_model_and_vocabs(args)
    pairs, n_lines, _ = corpus.load_parallel(args.src, args.tgt, src_vocab, tgt_vocab, max_len=None)
    matrices = evaluation.dump_attention_all(params, pairs)
    supervision.write_matrices(matrices, args.out)
    if args.align_out:
        # one links line per input line, empty for a skipped pair (as translate does)
        lines = [""] * n_lines
        for pair, mat in zip(pairs, matrices):
            links = evaluation.extract_alignment(mat, threshold=args.threshold)
            lines[pair.pair_index] = corpus.format_pharaoh(links, flip=args.flip)
        with open(args.align_out, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
    log.info("dumped %d attention matrices to %s", len(matrices), args.out)
    return 0


def _read_link_sets(path, lines, flip):
    sets = []
    for n, line in enumerate(lines, 1):
        try:
            links = [corpus.parse_pharaoh_token(tok, flip) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
        sets.append({(j + 1, i + 1) for i, j in links})
    return sets


def _scored_line_pair(hyp, ref):
    """read_line_pair of a hypothesis and a reference file, which must
    hold at least one line: no sentence has no score."""
    lines = corpus.read_line_pair(hyp, ref)
    if not lines[0]:
        raise ValueError(f"empty corpus: {hyp} and {ref} have no lines")
    return lines


def cmd_score_align(args):
    hyp_lines, gold_lines = _scored_line_pair(args.hyp, args.gold)
    hyp_sets = _read_link_sets(args.hyp, hyp_lines, args.flip)
    gold_sets = _read_link_sets(args.gold, gold_lines, args.flip)
    report = evaluation.corpus_alignment_f1(hyp_sets, gold_sets)
    print(report.format_line())
    return 0


def cmd_score_bleu(args):
    hyp_lines, ref_lines = _scored_line_pair(args.hyp, args.ref)
    report = evaluation.bleu([h.split() for h in hyp_lines], [r.split() for r in ref_lines])
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
        if isinstance(exc, OSError) and exc.filename is not None:
            log.error("%s: %s", exc.filename, exc.strerror)
        else:
            log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
