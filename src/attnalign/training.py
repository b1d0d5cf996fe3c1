"""Training: translation / alignment / joint objectives, AdaDelta updates,
partitioned phase schedules, and the training loop.

The joint objective per sentence is the negative reference log-likelihood
plus lambda times the Euclidean distance between the attention matrix and
its supervision matrix. Phases train one parameter partition ("A", "T", or
"ALL") against one objective; tensors outside the trainable partition stay
bit-identical. AdaDelta state is reset at every phase boundary.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .corpus import make_batches
from .model import forward_teacher_forced, partition_filter, save_checkpoint
from .supervision import attention_distance

log = logging.getLogger(__name__)

TRANSLATION = "TRANS"
ALIGNMENT = "ALIGN"
JOINT = "JOINT"

OBJECTIVES = (TRANSLATION, ALIGNMENT, JOINT)
PARTITIONS = ("A", "T", "ALL")

DEFAULT_CLIP_NORM = 5.0

# Entries per block of the AdaDelta step: a block's four operands and its
# temporaries (64 KiB each in float64, below malloc's mmap threshold) stay
# in cache through the formula's passes.
ADADELTA_BLOCK = 1 << 13


@dataclass
class Phase:
    objective: str
    trainable: str
    epochs: int

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.trainable not in PARTITIONS:
            raise ValueError(f"unknown partition {self.trainable!r}")
        if self.epochs < 0:
            raise ValueError("epoch count must be >= 0")


@dataclass
class TrainConfig:
    schedule: list
    batch_size: int = 80
    seed: int = 0
    align_weight: float = 1.0
    rho: float = 0.95
    eps: float = 1e-6
    clip_norm: float = DEFAULT_CLIP_NORM

    def __post_init__(self):
        if not self.schedule:
            raise ValueError("schedule must contain at least one phase")
        if self.align_weight < 0:
            raise ValueError("alignment weight must be >= 0")
        if not (0 < self.rho < 1):
            raise ValueError("rho must be in (0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")


def parse_schedule(text, total_epochs=10):
    """Parse a schedule string into Phases.

    Explicit syntax: "OBJ:PART:EPOCHS" phases joined by "->", e.g.
    "ALIGN:A:2->JOINT:ALL:10". Shorthand "J", "A->J", "A->T", "A->T->J"
    expands with equal epoch splits of ``total_epochs`` (remainder to the
    last phase): "A" means alignment-only on partition A, "T"
    translation-only on partition T, "J" joint on everything.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty schedule")
    steps = [s.strip() for s in text.split("->")]
    shorthand = {"A": (ALIGNMENT, "A"), "T": (TRANSLATION, "T"), "J": (JOINT, "ALL")}
    if all(s in shorthand for s in steps):
        n = len(steps)
        split = total_epochs // n
        phases = []
        for k, s in enumerate(steps):
            obj, part = shorthand[s]
            epochs = split if k < n - 1 else total_epochs - split * (n - 1)
            phases.append(Phase(obj, part, epochs))
        return phases
    phases = []
    for s in steps:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed phase {s!r} (want OBJ:PART:EPOCHS)")
        phases.append(Phase(parts[0].upper(), parts[1].upper(), int(parts[2])))
    return phases


# ---------------------------------------------------------------------------
# objectives


def needs_supervision(objective, align_weight):
    """Whether ``objective`` reads supervision matrices: ALIGN always does,
    JOINT unless its alignment weight is 0, TRANS never."""
    return objective == ALIGNMENT or (objective == JOINT and align_weight != 0.0)


def sentence_loss(trace, sup, kind, align_weight=1.0):
    """Scalar loss Tensor, summed over the trace's sentences.

    TRANS: negative sum of reference log-probabilities. ALIGN: weighted
    attention distance, one per sentence. JOINT: their sum. With weight 0,
    JOINT skips the alignment term entirely and is bit-identical to TRANS.
    ``sup`` is the batch's list of supervision matrices, one (m, l) array
    per sentence, or None.
    """
    if kind not in OBJECTIVES:
        raise ValueError(f"unknown objective {kind!r}")
    if not needs_supervision(kind, align_weight):
        return trace.nll
    if sup is None:
        raise ValueError(f"{kind} objective requires a supervision matrix")
    align = T.mul(T.sumall(_distances(trace, sup)), align_weight)
    return align if kind == ALIGNMENT else T.add(trace.nll, align)


def _distances(trace, sup, attention=None):
    """The (B,) attention distances of ``attention`` (by default the
    trace's own), each over its sentence's real (target, source) cells."""
    attention = trace.attention if attention is None else attention
    target = np.zeros(attention.data.shape, dtype=attention.data.dtype)
    mask = np.zeros_like(target)
    for k, (m, l) in enumerate(zip(trace.tgt_lens, trace.src_lens)):
        if np.shape(sup[k]) != (m, l):
            raise T.ShapeError(
                f"attention_distance: shapes {(m, l)} and {np.shape(sup[k])} differ"
            )
        target[k, :m, :l] = sup[k]
        mask[k, :m, :l] = 1.0
    return attention_distance(attention, target, mask)


def sentence_loss_parts(trace, sup):
    """(translation nll, alignment distance) summed over the trace's
    sentences in order, as plain floats, for logging. The distances are
    the loss's masked ones on an untracked float64 view of the attention,
    so a float32 run logs float64 sums as well."""
    nll = 0.0
    for k, m in enumerate(trace.tgt_lens):
        nll += -sum(trace.log_probs[k, :m].tolist())
    if sup is None:
        return nll, 0.0
    attention = T.Tensor(trace.attention.data.astype(np.float64, copy=False))
    return nll, sum(_distances(trace, sup, attention).data.tolist())


# ---------------------------------------------------------------------------
# AdaDelta


@dataclass
class AdaDeltaState:
    """Running averages of squared gradients and squared updates."""

    avg_sq_grad: dict = field(default_factory=dict)
    avg_sq_delta: dict = field(default_factory=dict)
    skipped_batches: int = 0

    def ensure(self, name, like):
        if name not in self.avg_sq_grad:
            self.avg_sq_grad[name] = np.zeros_like(like)
            self.avg_sq_delta[name] = np.zeros_like(like)


def adadelta_update(params, grads, state, names, rho=0.95, eps=1e-6):
    """In-place AdaDelta step on the named tensors.

    Non-finite gradients skip the whole update (counter incremented).

    A 2-D gradient of more than ``ADADELTA_BLOCK`` entries whose rows are
    not all touched (an embedding table's at a large vocabulary) runs the
    update on its touched rows only and decays both running averages of
    the other rows by rho. That is bit-identical to the dense
    update: a row of +0.0 gradients gives ``eg2*rho + 0.0``, a delta of
    -0.0, ``ed2*rho + 0.0`` and ``p + -0.0 == p``.
    """
    for name in names:
        if not np.all(np.isfinite(grads[name])):
            state.skipped_batches += 1
            log.warning("non-finite gradient for %s; batch skipped", name)
            return False
    for name in names:
        g = grads[name]
        p = params.tensors[name]
        state.ensure(name, p)
        eg2 = state.avg_sq_grad[name]
        ed2 = state.avg_sq_delta[name]
        rows = _touched_rows(g)
        if rows is None:
            _adadelta_dense(p, g, eg2, ed2, rho, eps)
            continue
        p_rows, eg2_rows, ed2_rows = p[rows], eg2[rows], ed2[rows]
        eg2 *= rho
        ed2 *= rho
        _adadelta_dense(p_rows, g[rows], eg2_rows, ed2_rows, rho, eps)
        p[rows], eg2[rows], ed2[rows] = p_rows, eg2_rows, ed2_rows
    return True


def _touched_rows(g):
    """Indices of the rows of a 2-D gradient holding any bit other than
    +0.0 (a -0.0 would flip the sign of a -0.0 parameter), or None when
    every row does. Gradients of at most one block (or not 2-D) get None
    without a look: on them the dense step costs no more than the check."""
    if g.ndim != 2 or g.size <= ADADELTA_BLOCK:
        return None
    rows = np.flatnonzero(np.bitwise_or.reduce(g.view(f"u{g.itemsize}"), axis=1))
    return None if len(rows) == len(g) else rows


def _adadelta_dense(p, g, eg2, ed2, rho, eps):
    """The AdaDelta step on every entry, in place. A tensor of more than
    ``ADADELTA_BLOCK`` entries goes block by block (whole rows), so that a
    block's operands and temporaries stay in cache through the formula's
    passes."""
    if p.size <= ADADELTA_BLOCK:
        _adadelta_formula(p, g, eg2, ed2, rho, eps)
        return
    step = max(1, ADADELTA_BLOCK * len(p) // p.size)
    for a in range(0, len(p), step):
        rows = slice(a, a + step)
        _adadelta_formula(p[rows], g[rows], eg2[rows], ed2[rows], rho, eps)


def _adadelta_formula(p, g, eg2, ed2, rho, eps):
    eg2 *= rho
    eg2 += (1.0 - rho) * g * g
    delta = -np.sqrt(ed2 + eps) / np.sqrt(eg2 + eps) * g
    ed2 *= rho
    ed2 += (1.0 - rho) * delta * delta
    p += delta


def clip_gradients(grads, names, max_norm):
    """Scale the named gradients in place so their global norm is at most
    max_norm."""
    if max_norm <= 0:
        return 1.0
    total = sum(float(np.square(grads[n]).sum()) for n in names)
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for n in names:
            grads[n] *= factor
        return factor
    return 1.0


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochReport:
    epoch: int
    phase: str
    mean_translation_loss: float
    mean_alignment_distance: float
    seconds: float

    def format_line(self):
        return (
            f"{self.epoch}\t{self.phase}\t{self.mean_translation_loss:.6f}"
            f"\t{self.mean_alignment_distance:.6f}\t{self.seconds:.2f}"
        )


@dataclass
class PhaseReport:
    phase: Phase
    epochs: list = field(default_factory=list)

    @property
    def final_translation_loss(self):
        return self.epochs[-1].mean_translation_loss if self.epochs else float("nan")


def batch_step(params, batch, phase, config, state, trainable):
    """Forward and backward over the whole batch on one tape, whose leaves
    are the ``trainable`` tensors, then one AdaDelta update. A loss that
    reads none of them (ALIGN on partition T) gives zero gradients.

    Batch loss is the mean of per-sentence losses; returns summed
    (translation nll, alignment distance) for logging.
    """
    trace = forward_teacher_forced(params, batch, nll_grad=phase.objective != ALIGNMENT,
                                   trainable=trainable)
    loss = sentence_loss(trace, batch.supervision, phase.objective, config.align_weight)
    g = T.gradients(trace.tape, loss, {n: trace.leaves[n] for n in trainable})
    # scaled into new arrays (leaf adjoints may share memory), releasing each
    # adjoint as soon as it is scaled
    inv = 1.0 / len(batch.pairs)
    grads = {n: g.pop(n) * inv for n in trainable}
    clip_gradients(grads, trainable, config.clip_norm)
    adadelta_update(params, grads, state, trainable, config.rho, config.eps)
    return sentence_loss_parts(trace, batch.supervision)


def train_phase(params, pairs, supervision, phase, config, epoch_offset=0, log_fh=None):
    """Run one phase in place; only tensors in phase.trainable change."""
    if needs_supervision(phase.objective, config.align_weight) and supervision is None:
        raise ValueError(f"{phase.objective} phase requires supervision matrices")
    trainable = partition_filter(params, phase.trainable)
    state = AdaDeltaState()
    report = PhaseReport(phase)
    phase_tag = f"{phase.objective}:{phase.trainable}"
    for e in range(phase.epochs):
        start = time.perf_counter()
        batches = make_batches(
            pairs,
            config.batch_size,
            seed=config.seed + epoch_offset + e,
            supervision=supervision,
        )
        total_nll = 0.0
        total_dist = 0.0
        for batch in batches:
            nll, dist = batch_step(params, batch, phase, config, state, trainable)
            total_nll += nll
            total_dist += dist
        n = len(pairs)
        ep = EpochReport(
            epoch_offset + e + 1,
            phase_tag,
            total_nll / n,
            total_dist / n,
            time.perf_counter() - start,
        )
        report.epochs.append(ep)
        log.info("epoch %s", ep.format_line())
        if log_fh is not None:
            log_fh.write(ep.format_line() + "\n")
            log_fh.flush()
    log.info("phase %s: skipped %d batches with non-finite gradients",
             phase_tag, state.skipped_batches)
    return report


def run_schedule(params, pairs, supervision, config, checkpoint_prefix=None, log_fh=None):
    """Execute every phase in order; checkpoint after each phase.

    AdaDelta state is reset at phase boundaries (each phase optimizes a
    different objective, so stale curvature estimates would mislead).
    """
    reports = []
    epoch_offset = 0
    for k, phase in enumerate(config.schedule):
        reports.append(
            train_phase(params, pairs, supervision, phase, config, epoch_offset, log_fh)
        )
        epoch_offset += phase.epochs
        if checkpoint_prefix is not None:
            save_checkpoint(params, f"{checkpoint_prefix}.phase{k + 1}.ckpt")
    if checkpoint_prefix is not None:
        save_checkpoint(params, f"{checkpoint_prefix}.ckpt")
    return params, reports
