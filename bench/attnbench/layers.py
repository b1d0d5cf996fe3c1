"""Per-layer metrics from the spans and counters of a traced run.

Times are self times (a span minus its children) unless a metric says it
covers whole calls. "Per token" divides by the target tokens the decoder
stepped through: every teacher-forced or greedy decoder step is one call
of ``model.decode_step``. A metric whose layer did no work in the run
reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from . import stats
from .trace import self_times

UNITS = {
    "tensor.nodes_per_tok": "nodes/tok",
    "tensor.backward_ms_per_tok": "ms/tok",
    "tensor.log_softmax_ms_per_tok": "ms/tok",
    "model.forward_ms_per_tok": "ms/tok",
    "model.encode_ms_per_sent": "ms/sent",
    "model.attend_ms_per_tok": "ms/tok",
    "model.decode_step_self_ms_per_tok": "ms/tok",
    "model.checkpoint_ms": "ms",
    "training.batch_step_ms_p50": "ms",
    "training.batch_step_ms_tail": "ms",
    "training.batch_step_tail_pct": "pct",
    "training.batch_step_n": "count",
    "training.batch_step_self_ms": "ms",
    "training.clip_ms": "ms",
    "training.adadelta_ms": "ms",
    "training.clip_fired_frac": "frac",
    "corpus.make_batches_ms": "ms",
    "corpus.src_pad_frac": "frac",
    "corpus.tgt_pad_frac": "frac",
    "supervision.transform_ms": "ms",
    "supervision.distance_calls_per_sent": "calls/sent",
    "supervision.distance_ms_per_sent": "ms/sent",
    "evaluation.greedy_decode_ms_p50": "ms",
    "evaluation.greedy_decode_ms_tail": "ms",
    "evaluation.greedy_decode_tail_pct": "pct",
    "evaluation.greedy_decode_n": "count",
    "evaluation.steps_per_sent": "steps/sent",
    "evaluation.truncated_frac": "frac",
    "evaluation.dump_attention_ms_per_sent": "ms/sent",
    "evaluation.extract_ms": "ms",
    "evaluation.score_ms": "ms",
    "cli.overhead_ms": "ms",
    "synth.generate_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

# Calls that run the model forward; nested ones are not counted twice.
FORWARD = {"model.forward_teacher_forced", "model.greedy_step_inputs", "model.decode_step"}


def _ratio(num, den):
    return num / den if den else 0.0


class SpanIndex:
    """Sums and counts over spans, optionally restricted to those inside a
    span of a given name."""

    def __init__(self, spans):
        self.names = [s[0] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        self.self = self_times(spans)
        self.by_name = defaultdict(list)
        for idx, name in enumerate(self.names):
            self.by_name[name].append(idx)
        # ancestors[i]: names of the spans enclosing span i. Parents are
        # recorded before their children, so one forward pass fills it.
        self.ancestors = []
        interned = {}
        for _, _, _, parent, _ in spans:
            if parent < 0:
                self.ancestors.append(frozenset())
                continue
            key = (self.ancestors[parent], self.names[parent])
            if key not in interned:
                interned[key] = key[0] | {key[1]}
            self.ancestors.append(interned[key])

    def select(self, name, inside=None, outside=None):
        return [i for i in self.by_name.get(name, ())
                if (inside is None or inside in self.ancestors[i])
                and (outside is None or not (outside & self.ancestors[i]))]

    def count(self, name, **where):
        return len(self.select(name, **where))

    def total(self, name, own=False, **where):
        values = self.self if own else self.dur
        return sum(values[i] for i in self.select(name, **where))

    def mean_ms(self, *names):
        calls = sum(self.count(n) for n in names)
        return 1e3 * _ratio(sum(self.total(n) for n in names), calls)

    def durations_ms(self, name):
        return [1e3 * self.dur[i] for i in self.select(name)]


def per_layer(tracer, overhead_ratio):
    """Every metric in UNITS, as {name: value}."""
    ix = SpanIndex(tracer.spans)
    counts = tracer.counts
    ms = 1e3
    tokens = ix.count("model.decode_step")
    train_tokens = ix.count("model.decode_step", inside="training.batch_step")
    train_sents = ix.count("model.forward_teacher_forced", inside="training.batch_step")
    greedy = ix.count("evaluation.greedy_decode")
    greedy_steps = ix.count("model.decode_step", inside="evaluation.greedy_decode")
    commands = ix.count("cli.main")
    forward = sum(ix.total(n, outside=FORWARD) for n in FORWARD)
    batch_tail_pct, batch_tail, batch_n = stats.tail(ix.durations_ms("training.batch_step"))
    greedy_ms = ix.durations_ms("evaluation.greedy_decode")
    greedy_tail_pct, greedy_tail, greedy_n = stats.tail(greedy_ms)
    cli_self = sum(ix.total(n, own=True) for n in ix.by_name if n.startswith("cli."))
    transforms = ("supervision.complete_alignment", "supervision.simple_transform",
                  "supervision.smoothed_transform")
    scorers = ("evaluation.corpus_alignment_f1", "evaluation.bleu")
    values = {
        "tensor.nodes_per_tok": _ratio(counts["tape_nodes"], tokens),
        "tensor.backward_ms_per_tok": ms * _ratio(ix.total("tensor.backward", own=True), train_tokens),
        "tensor.log_softmax_ms_per_tok": ms * _ratio(ix.total("tensor.log_softmax", own=True), tokens),
        "model.forward_ms_per_tok": ms * _ratio(forward, tokens),
        "model.encode_ms_per_sent": ix.mean_ms("model.encode"),
        "model.attend_ms_per_tok": ix.mean_ms("model.attend"),
        "model.decode_step_self_ms_per_tok": ms * _ratio(ix.total("model.decode_step", own=True), tokens),
        "model.checkpoint_ms": ix.mean_ms("model.save_checkpoint", "model.load_checkpoint"),
        "training.batch_step_ms_p50": stats.percentile(ix.durations_ms("training.batch_step"), 50),
        "training.batch_step_ms_tail": batch_tail,
        "training.batch_step_tail_pct": batch_tail_pct,
        "training.batch_step_n": batch_n,
        "training.batch_step_self_ms": ms * _ratio(ix.total("training.batch_step", own=True), batch_n),
        "training.clip_ms": ix.mean_ms("training.clip_gradients"),
        "training.adadelta_ms": ix.mean_ms("training.adadelta_update"),
        "training.clip_fired_frac": _ratio(counts["clip_fired"], ix.count("training.clip_gradients")),
        "corpus.make_batches_ms": ix.mean_ms("corpus.make_batches"),
        "corpus.src_pad_frac": 1 - _ratio(counts["src_real"], counts["src_cells"]) if counts["src_cells"] else 0.0,
        "corpus.tgt_pad_frac": 1 - _ratio(counts["tgt_real"], counts["tgt_cells"]) if counts["tgt_cells"] else 0.0,
        "supervision.transform_ms": ms * _ratio(sum(ix.total(n) for n in transforms), ix.count("cli.cmd_train")),
        "supervision.distance_calls_per_sent": _ratio(
            ix.count("supervision.attention_distance", inside="training.batch_step"), train_sents),
        "supervision.distance_ms_per_sent": ms * _ratio(
            ix.total("supervision.attention_distance", inside="training.batch_step"), train_sents),
        "evaluation.greedy_decode_ms_p50": stats.percentile(greedy_ms, 50),
        "evaluation.greedy_decode_ms_tail": greedy_tail,
        "evaluation.greedy_decode_tail_pct": greedy_tail_pct,
        "evaluation.greedy_decode_n": greedy_n,
        "evaluation.steps_per_sent": _ratio(greedy_steps, greedy),
        "evaluation.truncated_frac": _ratio(counts["greedy_truncated"], greedy),
        "evaluation.dump_attention_ms_per_sent": ix.mean_ms("evaluation.dump_attention"),
        "evaluation.extract_ms": ms * _ratio(ix.total("evaluation.extract_alignment"),
                                             ix.count("cli.cmd_dump_attn")),
        "evaluation.score_ms": ms * _ratio(sum(ix.total(n) for n in scorers),
                                           ix.count("cli.cmd_score_align") + ix.count("cli.cmd_score_bleu")),
        "cli.overhead_ms": ms * _ratio(cli_self, commands),
        "synth.generate_ms": ix.mean_ms("synth.generate"),
        "trace.overhead_ratio": overhead_ratio,
        "trace.spans": len(tracer.spans),
    }
    return values
