"""The benchmark workloads and the run that drives one of them.

Every run sets up its inputs from the seed, repeats the workload's round
until the time is up, then runs a post phase. Every workload yields every
end-to-end metric, so every round also runs a short command of the other
kind: the train workloads decode a chunk of the decode set with the fixed
model, and ``decode`` trains one small epoch of the fixed model's recipe.
Each command is timed on its own, one at a time, and every rate is a
median over the whole run: host speed drifts within a minute, so a rate
sampled over a few seconds only would swing with it.
"""

from __future__ import annotations

import math
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from attnalign.model import load_checkpoint

from . import fixture
from .session import Session, sha256_file

SETUP_REPS = 5
DECODE_SET_SIZE = 300
DECODE_CHUNK = 150
DECODE_TRAIN_PAIRS = 100
PROBE_SEED = 20161  # the train workloads' probe is the same for every --seed
PROBE_THRESHOLD = 0  # see TrainWorkload.post
TRAIN_PARAMS = {"epochs": 1, "batch_size": 20, "schedule": "J", "lambda": 1,
                "smoothing": 1, "init_scale": 0.5, "seed": 1}


@dataclass
class RunRecord:
    session: Session
    setup_seconds: list = field(default_factory=list)
    rounds: int = 0
    seconds: float = 0.0  # timed rounds plus post phase
    outputs: list = field(default_factory=list)  # what the traced run must reproduce
    quality: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)  # metric name -> one rate per command

    def add_rate(self, name, units, cmd):
        if cmd.rc == 0:
            self.rates.setdefault(name, []).append(units / cmd.seconds)


# ---------------------------------------------------------------------------
# shared steps


@dataclass
class TrainSet:
    """A corpus, its vocabularies and a one-epoch ``train`` config."""

    prefix: object
    config: object
    checkpoint: object
    log: object
    pairs: int
    tokens: int  # target tokens, eos included

    @property
    def batches(self):
        return math.ceil(self.pairs / TRAIN_PARAMS["batch_size"])


def make_train_set(work, prefix, src_vocab, tgt_vocab, params):
    tgt_lines = read_lines(f"{prefix}.tgt")
    train = TrainSet(prefix, work / "train.cfg", work / "model.ckpt", work / "train.log",
                     len(tgt_lines), sum(len(line.split()) + 1 for line in tgt_lines))
    train.config.write_text(fixture.config_text(
        params, train_src=f"{prefix}.src", train_tgt=f"{prefix}.tgt",
        train_align=f"{prefix}.align", src_vocab=src_vocab, tgt_vocab=tgt_vocab,
        checkpoint=work / "model", log=train.log,
    ), encoding="utf-8")
    return train


def train_once(session, train, record):
    """One ``train`` command, checked; returns (nll per token, distance)."""
    cmd = session.run("train", ["--config", train.config])
    session.train_batches += train.batches
    record.add_rate("train_tok_per_s", train.tokens, cmd)
    if cmd.rc != 0:
        return None
    lines = read_lines(train.log)
    fields = lines[-1].split("\t") if lines else []
    if len(lines) != 1 or len(fields) != 5:
        session.fail(f"expected one epoch line in {train.log}, got {lines!r}", cmd)
        return None
    nll, dist = float(fields[2]), float(fields[3])
    if not (math.isfinite(nll) and math.isfinite(dist)):
        session.fail(f"non-finite loss in {fields!r}", cmd)
    try:
        load_checkpoint(train.checkpoint)
    except (OSError, ValueError) as exc:
        session.fail(f"checkpoint does not reload: {exc}", cmd)
    # the last field is the epoch's wall time; everything else must repeat
    outcome = ("train", tuple(fields[:4]), sha256_file(train.checkpoint))
    _expect_repeat(session, record, outcome, cmd)
    return nll * train.pairs / train.tokens, dist


class DecodeSet:
    """Pool lines ``order`` written to ``prefix``.*, with their recorded outputs."""

    def __init__(self, prefix, order, pool, expected):
        self.size = len(order)
        self.expected_hyp = "".join(expected[i][0] + "\n" for i in order)
        self.expected_links = "".join(expected[i][1] + "\n" for i in order)
        for ext in ("src", "tgt", "align", "hyp", "links", "attn"):
            setattr(self, ext, Path(f"{prefix}.{ext}"))
        for lines, path in zip(pool, (self.src, self.tgt, self.align)):
            path.write_text("".join(lines[i] + "\n" for i in order), encoding="utf-8")


def make_decode_sets(session, work, seed, manifest, expected):
    """The seed's sample of the held-out pool, whole and in chunks."""
    prefix = work / "pool"
    cmd = session.run("synth", fixture.synth_args(fixture.POOL_SYNTH, prefix))
    files = fixture.pool_files(prefix)
    if cmd.rc == 0 and any(sha256_file(p) != manifest["pool"]["sha256"][p.name] for p in files):
        session.fail("the held-out pool differs from the one the outputs were recorded on", cmd)
    pool = [read_lines(p) for p in files]
    order = fixture.sample_indices(seed, DECODE_SET_SIZE, len(expected))
    chunks = [DecodeSet(work / f"chunk{k}", order[k:k + DECODE_CHUNK], pool, expected)
              for k in range(0, DECODE_SET_SIZE, DECODE_CHUNK)]
    return DecodeSet(work / "decode", order, pool, expected), chunks


def decode_pass(session, ds, record):
    """translate and dump-attn with the fixed model, checked against the
    recorded outputs; returns their digests."""
    model = fixture.model_args()
    cmd = session.run("translate", [*model, "--src", ds.src, "--out", ds.hyp])
    record.add_rate("translate_sent_per_s", ds.size, cmd)
    hyp = _check_file(session, cmd, ds.hyp, ds.expected_hyp, "translation")
    cmd = session.run("dump-attn", [*model, "--src", ds.src, "--tgt", ds.tgt, "--out", ds.attn,
                                    "--align-out", ds.links])
    record.add_rate("dump_attn_sent_per_s", ds.size, cmd)
    links = _check_file(session, cmd, ds.links, ds.expected_links, "links")
    return hyp, links


def decode_round(session, ds, record):
    """decode_pass, then score-align and score-bleu; returns (f1, bleu)."""
    hyp, links = decode_pass(session, ds, record)
    f1 = score(session, "score-align", ["--hyp", ds.links, "--gold", ds.align], "f1")
    cmd = session.commands[-1]
    bleu = score(session, "score-bleu", ["--hyp", ds.hyp, "--ref", ds.tgt], "bleu")
    _expect_repeat(session, record, ("decode", hyp, links, f1, bleu), cmd)
    return f1, bleu


def score(session, stage, args, key):
    cmd = session.run(stage, args)
    found = re.search(rf"\b{key}=([0-9.]+)", cmd.stdout)
    if found is None:
        if cmd.rc == 0:
            session.fail(f"no {key}= in {cmd.stdout!r}", cmd)
        return 0.0
    return float(found.group(1))


def _check_file(session, cmd, path, expected, what):
    if cmd.rc != 0:
        return None
    text = path.read_text(encoding="utf-8")
    if text != expected:
        got, want = text.splitlines(), expected.splitlines()
        line = next((n for n, (a, b) in enumerate(zip(got, want), 1) if a != b),
                    min(len(got), len(want)) + 1)
        session.fail(f"{what} differs from the recorded output at line {line}", cmd)
    return sha256_file(path)


def _expect_repeat(session, record, outcome, cmd):
    """Repeats of one command on one input must give identical outputs."""
    same_kind = [o for o in record.outputs if o[0] == outcome[0]]
    if same_kind and same_kind[0] != outcome:
        session.fail(f"output differs from the first repeat: {outcome!r} vs {same_kind[0]!r}", cmd)
    record.outputs.append(outcome)


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class TrainWorkload:
    """Timed rounds: one ``attnalign train`` epoch on a seeded synthetic
    corpus, then translate and dump-attn with the fixed model on the next
    chunk of the decode set, so decode rates are sampled across the run.

    Post phase: align the fixed probe with the trained checkpoint and score
    it; one decode round over the whole decode set for BLEU.
    """

    task: str
    synth_vocab: int
    pairs: int
    hidden: int
    full_vocab: bool  # vocab files list every synth word, not only those seen
    probe_pairs: int

    def synth_spec(self, pairs, seed):
        return {"task": self.task, "vocab-size": self.synth_vocab, "min-len": 3,
                "max-len": 20, "pairs": pairs, "seed": seed}

    def setup(self, session, work, seed, manifest, expected, overrides=None):
        corpus, probe = work / "corpus", work / "probe"
        session.run("synth", fixture.synth_args(self.synth_spec(self.pairs, seed), corpus))
        session.run("synth", fixture.synth_args(self.synth_spec(self.probe_pairs, PROBE_SEED), probe))
        if self.full_vocab:
            words = "".join(f"w{k}\n" for k in range(self.synth_vocab))
            for side in ("src", "tgt"):
                (work / f"corpus.{side}.vocab").write_text(words, encoding="utf-8")
        else:
            session.run("prepare", ["--src", f"{corpus}.src", "--tgt", f"{corpus}.tgt",
                                    "--out-prefix", corpus])
        params = {"embed": 32, "hidden": self.hidden, "attn": 32, "out": 32,
                  **TRAIN_PARAMS, **(overrides or {})}
        train = make_train_set(work, corpus, f"{corpus}.src.vocab", f"{corpus}.tgt.vocab", params)
        return (train, probe, *make_decode_sets(session, work, seed, manifest, expected))

    def round(self, session, state, record):
        train, _, _, chunks = state
        result = train_once(session, train, record)
        if result is not None and "final_nll" not in record.quality:
            record.quality["final_nll"], record.quality["final_align_dist"] = result
        k = record.rounds % len(chunks)
        record.outputs.append(("chunk", k, *decode_pass(session, chunks[k], record)))

    def post(self, session, state, record):
        train, probe, decode_set, _ = state
        # After one epoch the attention is still close to uniform, so few
        # rows clear the default 0.2 extraction threshold and F1 would rest
        # on a few dozen links. The probe keeps every row's max link instead.
        links = f"{probe}.links"
        cmd = session.run("dump-attn", [
            "--checkpoint", train.checkpoint, "--src-vocab", f"{train.prefix}.src.vocab",
            "--tgt-vocab", f"{train.prefix}.tgt.vocab", "--src", f"{probe}.src",
            "--tgt", f"{probe}.tgt", "--out", f"{probe}.attn", "--align-out", links,
            "--threshold", PROBE_THRESHOLD,
        ])
        f1 = score(session, "score-align", ["--hyp", links, "--gold", f"{probe}.align"], "f1")
        record.outputs.append(("probe", sha256_file(links) if cmd.rc == 0 else None, f1))
        record.quality["align_f1"] = f1
        _, record.quality["bleu"] = decode_round(session, decode_set, record)


@dataclass(frozen=True)
class DecodeWorkload:
    """Rounds: translate, dump-attn and both scorers with the fixed model
    on the decode set, then one epoch of the fixed model's training recipe
    on its first pairs, into a checkpoint of its own; the fixed model is
    only read. No post phase.
    """

    def setup(self, session, work, seed, manifest, expected):
        decode_set, _ = make_decode_sets(session, work, seed, manifest, expected)
        for ext in ("src", "tgt", "align"):
            head = read_lines(getattr(decode_set, ext))[:DECODE_TRAIN_PAIRS]
            (work / f"head.{ext}").write_text("".join(line + "\n" for line in head), encoding="utf-8")
        params = {**fixture.RECIPE_CONFIG, "epochs": 1}
        train = make_train_set(work, work / "head", fixture.SRC_VOCAB, fixture.TGT_VOCAB, params)
        return train, decode_set

    def round(self, session, state, record):
        train, decode_set = state
        f1, bleu = decode_round(session, decode_set, record)
        result = train_once(session, train, record)
        if not record.rounds:
            record.quality["align_f1"], record.quality["bleu"] = f1, bleu
            if result is not None:
                record.quality["final_nll"], record.quality["final_align_dist"] = result

    def post(self, session, state, record):
        pass


WORKLOADS = {
    # Tape bookkeeping dominates: small vocabulary and dims, wide length spread.
    "train-small": TrainWorkload("local-shuffle", 30, 200, 32, False, 300),
    # Vocabulary-sized costs dominate: dense embedding gradients and updates.
    "train-bigvocab": TrainWorkload("reverse", 20000, 40, 64, True, 150),
    # Decoding dominates; translate and dump-attn never train.
    "decode": DecodeWorkload(),
}


def run(workload, seed, work, seconds=None, rounds=None, setup_reps=SETUP_REPS, tracer=None):
    """Set up, then repeat rounds until ``seconds`` pass or ``rounds`` are done."""
    session = Session(tracer)
    record = RunRecord(session)
    try:
        for rep in range(setup_reps):
            rep_dir = work / f"setup{rep}"
            shutil.rmtree(rep_dir, ignore_errors=True)
            rep_dir.mkdir(parents=True)
            start = time.perf_counter()
            manifest = fixture.load_manifest()
            expected = fixture.read_expected()
            load_checkpoint(fixture.MODEL)
            state = workload.setup(session, rep_dir, seed, manifest, expected)
            record.setup_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        while True:
            workload.round(session, state, record)
            record.rounds += 1
            if rounds is not None and record.rounds >= rounds:
                break
            if rounds is None and time.perf_counter() - start >= seconds:
                break
        workload.post(session, state, record)
        record.seconds = time.perf_counter() - start
    finally:
        session.close()
    return record
