"""Spans around the public functions of every attnalign layer.

``Tracer.install`` replaces module attributes with timing wrappers, in
every attnalign module that holds a reference to the function, so calls
through ``from .model import decode_step`` are seen too. The wrappers pass
arguments and results through untouched. Spans stay in memory as
``(name, start, end, parent, command)`` tuples; a span's parent is the
innermost wrapped call it ran inside, and ``command`` numbers the CLI
command it belongs to.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter, defaultdict

from attnalign.corpus import EOS_ID

# Public functions wrapped per layer. The elementwise tensor primitives
# (add, mul, matvec, ...) run about 90 times per target token; wrapping
# them would cost more than the work they do, so the tensor layer is seen
# through backward, gradients, softmax, log_softmax and a count of the
# nodes every tape records.
WRAPPED = {
    "tensor": ("backward", "gradients", "softmax", "log_softmax"),
    "corpus": ("build_vocab", "load_parallel", "load_pharaoh_file", "parse_pharaoh",
               "format_pharaoh", "make_batches", "Vocab.load", "Vocab.save"),
    "supervision": ("complete_alignment", "simple_transform", "smoothed_transform",
                    "attention_distance", "write_matrices", "read_matrices"),
    "model": ("init_params", "bind", "encode", "attention_projection", "attend",
              "initial_state", "attention_context", "decode_step", "forward_teacher_forced",
              "greedy_step_inputs", "partition_filter", "save_checkpoint", "load_checkpoint"),
    "training": ("parse_schedule", "sentence_loss", "sentence_loss_parts", "adadelta_update",
                 "clip_gradients", "batch_step", "train_phase", "run_schedule"),
    "evaluation": ("greedy_decode", "dump_attention", "extract_alignment",
                   "corpus_alignment_f1", "bleu"),
    "cli": ("main", "parse_config_file", "cmd_synth", "cmd_prepare", "cmd_transform_align",
            "cmd_train", "cmd_translate", "cmd_dump_attn", "cmd_score_align", "cmd_score_bleu"),
    "synth": ("generate", "write_corpus"),
}


def _count_truncated(counts, args, result):
    counts["greedy_truncated"] += result.token_ids[-1] != EOS_ID


def _count_clip(counts, args, result):
    counts["clip_fired"] += result < 1.0


def _count_padding(counts, args, result):
    for batch in result:
        counts["src_cells"] += batch.src_mask.size
        counts["src_real"] += int(batch.src_mask.sum())
        counts["tgt_cells"] += batch.tgt_mask.size
        counts["tgt_real"] += int(batch.tgt_mask.sum())


# Counters taken at span boundaries: (layer, function) -> hook(counts, args, result).
COUNTERS = {
    ("evaluation", "greedy_decode"): _count_truncated,
    ("training", "clip_gradients"): _count_clip,
    ("corpus", "make_batches"): _count_padding,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.command = 0
        self._stack = []
        self._undo = []
        self._tape_finalizers = []

    def wrap(self, name, fn, hook=None):
        """``fn`` with a span recorded around each call."""
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self.command)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    # -- installing and removing the wrappers

    def install(self):
        modules = {n: importlib.import_module(f"attnalign.{n}") for n in WRAPPED}
        holders = [m for k, m in sys.modules.items() if k.startswith("attnalign.") and m]
        for layer, attrs in WRAPPED.items():
            for attr in attrs:
                hook = COUNTERS.get((layer, attr))
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(modules[layer], cls_name)
                    orig = vars(cls)[meth]
                    if isinstance(orig, classmethod):
                        wrapped = classmethod(self.wrap(f"{layer}.{attr}", orig.__func__, hook))
                    else:
                        wrapped = self.wrap(f"{layer}.{attr}", orig, hook)
                    self._set(cls, meth, orig, wrapped)
                    continue
                orig = getattr(modules[layer], attr)
                wrapped = self.wrap(f"{layer}.{attr}", orig, hook)
                for mod in holders:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, key, orig, wrapped)
        tensor = modules["tensor"]
        self._set(tensor, "Tape", tensor.Tape, self._counting_tape(tensor.Tape))

    def _set(self, owner, key, orig, new):
        setattr(owner, key, new)
        self._undo.append((owner, key, orig))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)
        for fin in self._tape_finalizers:
            fin()  # counts the nodes of tapes still alive
        self._tape_finalizers.clear()

    def _counting_tape(self, base):
        counts, finalizers = self.counts, self._tape_finalizers

        def add_nodes(nodes):
            counts["tape_nodes"] += len(nodes)

        class CountingTape(base):
            """Adds the tape's final node count to ``tape_nodes`` when it dies."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                finalizers.append(weakref.finalize(self, add_nodes, self._nodes))

        return CountingTape

    def write(self, path):
        """Write the spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tcommand\n")
            for name, start, end, parent, command in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{command}\n")


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out
