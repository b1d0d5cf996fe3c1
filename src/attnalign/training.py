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


def sentence_loss(trace, sup, kind, align_weight=1.0):
    """Scalar loss Tensor for one sentence.

    TRANS: negative sum of reference log-probabilities. ALIGN: weighted
    attention distance. JOINT: their sum. With weight 0, JOINT skips the
    alignment term entirely and is bit-identical to TRANS.
    """
    if kind not in OBJECTIVES:
        raise ValueError(f"unknown objective {kind!r}")
    need_align = kind == ALIGNMENT or (kind == JOINT and align_weight != 0.0)
    if need_align and sup is None:
        raise ValueError(f"{kind} objective requires a supervision matrix")

    def translation_term():
        total = trace.log_probs[0]
        for lp in trace.log_probs[1:]:
            total = T.add(total, lp)
        return T.neg(total)

    def alignment_term():
        return T.scale(attention_distance(trace.attention, sup), align_weight)

    if kind == TRANSLATION:
        return translation_term()
    if kind == ALIGNMENT:
        return alignment_term()
    if align_weight == 0.0:
        return translation_term()
    return T.add(translation_term(), alignment_term())


def sentence_loss_parts(trace, sup):
    """(translation nll, alignment distance) as plain floats, for logging."""
    nll = -sum(float(lp.data) for lp in trace.log_probs)
    dist = attention_distance(trace.attention.data, sup) if sup is not None else 0.0
    return nll, dist


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
        eg2 *= rho
        eg2 += (1.0 - rho) * g * g
        delta = -np.sqrt(ed2 + eps) / np.sqrt(eg2 + eps) * g
        ed2 *= rho
        ed2 += (1.0 - rho) * delta * delta
        p += delta
    return True


def clip_gradients(grads, names, max_norm):
    """Scale the named gradients so their global norm is at most max_norm."""
    if max_norm is None or max_norm <= 0:
        return 1.0
    total = sum(float((grads[n] ** 2).sum()) for n in names)
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for n in names:
            grads[n] = grads[n] * factor
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
    """Forward/backward every sentence in a batch, then one AdaDelta update.

    Batch loss is the mean of per-sentence losses; returns summed
    (translation nll, alignment distance) for logging.
    """
    grads = {n: np.zeros_like(v) for n, v in params.tensors.items()}
    sum_nll = 0.0
    sum_dist = 0.0
    for k, pair in enumerate(batch.pairs):
        sup = batch.supervision[k] if batch.supervision is not None else None
        trace = forward_teacher_forced(params, pair)
        loss = sentence_loss(trace, sup, phase.objective, config.align_weight)
        g = T.gradients(trace.tape, loss, trace.leaves)
        for n in trainable:
            grads[n] += g[n]
        nll, dist = sentence_loss_parts(trace, sup)
        sum_nll += nll
        sum_dist += dist
    inv = 1.0 / len(batch.pairs)
    for n in trainable:
        grads[n] *= inv
    clip_gradients(grads, trainable, config.clip_norm)
    adadelta_update(params, grads, state, trainable, config.rho, config.eps)
    return sum_nll, sum_dist


def train_phase(params, pairs, supervision, phase, config, epoch_offset=0, log_fh=None):
    """Run one phase in place; only tensors in phase.trainable change."""
    if phase.objective in (ALIGNMENT, JOINT) and config.align_weight != 0.0 and supervision is None:
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
            bucket_by_length=True,
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
