"""End-to-end acceptance checks.

Each test exercises one numbered behavioral guarantee and records a
pass/fail line printed in the terminal summary. The two training-based
checks (6 and 7) share one corpus and a few minutes of CPU; everything
else runs in seconds.
"""

import math

import numpy as np
import pytest

from attnalign import tensor as T
from attnalign import model as M
from attnalign import synth, training
from attnalign.corpus import (
    EOS_ID,
    build_vocab,
    load_parallel,
    load_pharaoh_file,
    parse_pharaoh,
)
from attnalign.evaluation import (
    alignment_f1,
    bleu,
    corpus_alignment_f1,
    dump_attention,
    extract_alignment,
)
from attnalign.model import (
    ModelDims,
    forward_teacher_forced,
    init_params,
    load_checkpoint,
    partition_filter,
    save_checkpoint,
)
from attnalign.supervision import (
    HardAlignment,
    SmoothingConfig,
    attention_distance,
    complete_alignment,
    simple_transform,
    smoothed_transform,
)
from attnalign.training import (
    AdaDeltaState,
    Phase,
    TrainConfig,
    adadelta_update,
    parse_schedule,
    run_schedule,
    sentence_loss,
    train_phase,
)

from criteria import record_criterion


def check(number, description, condition):
    record_criterion(number, description, bool(condition))
    assert condition, f"criterion {number}: {description}"


# ---------------------------------------------------------------------------
# 1. smoothing worked example


def test_criterion_1_smoothing_worked_example():
    aligned = complete_alignment(HardAlignment(2, 6, {(1, 1)}))
    raw = smoothed_transform(aligned, SmoothingConfig(window=2, sigma=1.0), normalize=False)
    got = raw[0, :3]
    expected = np.array([1.0, 0.61, 0.14])
    check(
        1,
        "single-link Gaussian increments are (1, 0.61, 0.14) within 0.005",
        np.all(np.abs(got - expected) <= 0.005),
    )


# ---------------------------------------------------------------------------
# 2. transform invariants on random alignments


def _random_alignment(rng):
    m = int(rng.integers(2, 9))
    l = int(rng.integers(2, 9))
    links = {
        (t, i)
        for t in range(1, m)
        for i in range(1, l)
        if rng.random() < 0.3
    }
    return complete_alignment(HardAlignment(m, l, links))


def test_criterion_2_transform_invariants():
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(1000):
        a = _random_alignment(rng)
        simple = simple_transform(a)
        smoothed = smoothed_transform(a, SmoothingConfig(window=2, sigma=0.5))
        degenerate = smoothed_transform(a, SmoothingConfig(window=0, sigma=0.5))
        for mat in (simple, smoothed):
            ok &= bool(np.all(np.abs(mat.sum(axis=1) - 1.0) < 1e-6))
            ok &= bool(mat[-1, -1] == 1.0 and mat[-1, :-1].sum() == 0.0)
        ok &= np.array_equal(degenerate, simple)
    check(
        2,
        "1000 random alignments: row-stochastic, eos row one-hot, w=0 == simple bitwise",
        ok,
    )


# ---------------------------------------------------------------------------
# 3. gradient correctness of the full joint objective


def _joint_objective(leaves, dims, pair, sup, lam):
    """Joint loss rebuilt from the given leaf tensors (for gradient checking)."""
    enc = M.encode(pair.src_ids, leaves, dims)
    h_proj = M.attention_projection(enc, leaves)
    s = M.initial_state(enc, leaves)
    y_prev = leaves["bos_emb"]
    nll = None
    alphas = []
    for y_t in pair.tgt_ids:
        s, lp, alpha = M.decode_step(s, y_prev, enc, leaves, h_proj)
        term = T.neg(T.pick(lp, y_t))
        nll = term if nll is None else T.add(nll, term)
        alphas.append(alpha)
        y_prev = T.row(leaves["tgt_emb"], y_t)
    dist = attention_distance(T.stack_rows(alphas), sup)
    return T.add(nll, T.scale(dist, lam))


def _random_tiny_model(rng):
    dims = ModelDims(
        src_vocab=int(rng.integers(5, 13)),
        tgt_vocab=int(rng.integers(5, 13)),
        embed=int(rng.integers(2, 5)),
        hidden=int(rng.integers(2, 5)),
        attn=int(rng.integers(2, 5)),
        out=int(rng.integers(2, 5)),
    )
    params = init_params(dims, seed=int(rng.integers(0, 10_000)), init_scale=0.5)
    src_len = int(rng.integers(1, 5))
    tgt_len = int(rng.integers(1, 5))
    from attnalign.corpus import SentencePair

    pair = SentencePair(
        [int(rng.integers(3, dims.src_vocab)) for _ in range(src_len)] + [EOS_ID],
        [int(rng.integers(3, dims.tgt_vocab)) for _ in range(tgt_len)] + [EOS_ID],
    )
    links = {
        (t, int(rng.integers(1, pair.src_len)))
        for t in range(1, pair.tgt_len)
        if rng.random() < 0.7
    }
    sup = simple_transform(complete_alignment(HardAlignment(pair.tgt_len, pair.src_len, links)))
    return dims, params, pair, sup


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(7)
    worst = 0.0
    t_grads_zero = True
    for _ in range(20):
        dims, params, pair, sup = _random_tiny_model(rng)

        def f(leaves, dims=dims, pair=pair, sup=sup):
            return _joint_objective(leaves, dims, pair, sup, 1.0)

        # denom_eps=1e-4 turns the check absolute (|diff| < 1e-8) for
        # coordinates whose gradient is smaller than 1e-4, where the
        # relative quotient would measure finite-difference noise
        report = T.finite_diff_check(f, dict(params.tensors), tolerance=1e-4, denom_eps=1e-4)
        worst = max(worst, report.worst)

        trace = forward_teacher_forced(params, pair)
        dist = attention_distance(trace.attention, sup)
        grads = T.gradients(trace.tape, dist, trace.leaves)
        for name in partition_filter(params, "T"):
            t_grads_zero &= bool(np.all(grads[name] == 0.0))
    check(
        3,
        "20 tiny models: joint-objective gradients match finite differences "
        f"(worst rel err {worst:.2e} < 1e-4) and alignment loss has zero "
        "gradient on the output partition",
        worst < 1e-4 and t_grads_zero,
    )


# ---------------------------------------------------------------------------
# 4. partition freezing


def test_criterion_4_partition_freezing():
    from attnalign.corpus import SentencePair

    dims = ModelDims(src_vocab=8, tgt_vocab=8, embed=4, hidden=4, attn=4, out=4)
    rng = np.random.default_rng(1)
    pairs, sup = [], []
    for k in range(6):
        n = int(rng.integers(2, 5))
        ids = [int(rng.integers(3, 8)) for _ in range(n)]
        pairs.append(SentencePair(ids + [EOS_ID], ids + [EOS_ID], k))
        links = {(t, t) for t in range(1, n + 1)}
        sup.append(simple_transform(complete_alignment(HardAlignment(n + 1, n + 1, links))))

    ok = True
    for trainable, frozen, objective in (
        ("T", "A", training.TRANSLATION),
        ("A", "T", training.ALIGNMENT),
    ):
        params = init_params(dims, seed=3, init_scale=0.5)
        before = {n: params.tensors[n].copy() for n in params.names()}
        cfg = TrainConfig(schedule=[Phase(objective, trainable, 1)], batch_size=3)
        train_phase(params, pairs, sup, cfg.schedule[0], cfg)
        for name in partition_filter(params, frozen):
            ok &= np.array_equal(params.tensors[name], before[name])
        ok &= any(
            not np.array_equal(params.tensors[name], before[name])
            for name in partition_filter(params, trainable)
        )
    check(4, "T-only phases leave A tensors bit-identical and vice versa", ok)


# ---------------------------------------------------------------------------
# 5. AdaDelta behavior


def test_criterion_5_adadelta():
    class P:
        def __init__(self, w):
            self.tensors = {"w": np.asarray(w, dtype=np.float64)}

    p = P([0.0])
    adadelta_update(p, {"w": np.array([1.0])}, AdaDeltaState(), ["w"])
    first_step_ok = abs(abs(p.tensors["w"][0]) - 4.4719e-3) <= 1e-6

    p = P([5.0])
    state = AdaDeltaState()
    steps = 0
    while abs(p.tensors["w"][0]) >= 0.5 and steps < 2000:
        adadelta_update(p, {"w": 2 * p.tensors["w"]}, state, ["w"])
        steps += 1
    bowl_ok = abs(p.tensors["w"][0]) < 0.5
    check(
        5,
        f"first step magnitude 4.4719e-3 and quadratic bowl solved in {steps} <= 2000 steps",
        first_step_ok and bowl_ok,
    )


# ---------------------------------------------------------------------------
# 6 and 7. trend reproduction on a synthetic copy corpus
#
# One shared corpus, three training runs with identical initialization:
# JOINT with smoothed supervision, a lambda=0 baseline, and an A->T
# schedule at the same epoch budget. A few minutes of CPU.

TREND_DIMS = dict(embed=32, hidden=32, attn=32, out=32)
TREND_EPOCHS = 5


@pytest.fixture(scope="module")
def trend(tmp_path_factory):
    root = tmp_path_factory.mktemp("trend")
    prefix = str(root / "copy")
    spec = synth.SynthSpec(
        task="copy", vocab_size=30, min_len=3, max_len=10, pairs=3000, seed=0
    )
    synth.write_corpus(spec, prefix)

    src_vocab = build_vocab(prefix + ".src", 50)
    tgt_vocab = build_vocab(prefix + ".tgt", 50)
    pairs, _ = load_parallel(prefix + ".src", prefix + ".tgt", src_vocab, tgt_vocab)
    alignments = load_pharaoh_file(prefix + ".align", pairs)
    sup = [
        smoothed_transform(complete_alignment(a), SmoothingConfig()) for a in alignments
    ]
    gold = [set(a.links) for a in alignments]

    dims = ModelDims(src_vocab=len(src_vocab), tgt_vocab=len(tgt_vocab), **TREND_DIMS)

    def train(schedule, lam):
        params = init_params(dims, seed=1, init_scale=0.5)
        cfg = TrainConfig(
            schedule=schedule, batch_size=20, seed=1, align_weight=lam
        )
        _, reports = run_schedule(params, pairs, sup, cfg)
        return params, reports

    joint_params, joint_reports = train([Phase(training.JOINT, "ALL", TREND_EPOCHS)], 1.0)
    base_params, _ = train([Phase(training.JOINT, "ALL", TREND_EPOCHS)], 0.0)
    _, at_reports = train(parse_schedule("A->T", total_epochs=TREND_EPOCHS), 1.0)

    def corpus_f1(params):
        hyp = [extract_alignment(dump_attention(params, p)) for p in pairs]
        return corpus_alignment_f1(hyp, gold).f1

    return {
        "joint_f1": corpus_f1(joint_params),
        "base_f1": corpus_f1(base_params),
        "joint_loss": joint_reports[-1].final_translation_loss,
        "at_loss": at_reports[-1].final_translation_loss,
    }


def test_criterion_6_supervision_improves_alignment_f1(trend):
    check(
        6,
        f"joint training F1 {trend['joint_f1']:.3f} beats baseline "
        f"{trend['base_f1']:.3f} and reaches >= 0.90",
        trend["joint_f1"] > trend["base_f1"] and trend["joint_f1"] >= 0.90,
    )


def test_criterion_7_joint_beats_two_stage_schedule(trend):
    check(
        7,
        f"final joint translation loss {trend['joint_loss']:.3f} <= "
        f"A->T schedule loss {trend['at_loss']:.3f} at equal epochs",
        trend["joint_loss"] <= trend["at_loss"],
    )


# ---------------------------------------------------------------------------
# 8. distance metric laws against a scalar oracle


def _scalar_distance(a, b):
    total = 0.0
    for t in range(a.shape[0]):
        for i in range(a.shape[1]):
            total += (a[t, i] - b[t, i]) ** 2
    return math.sqrt(total)


def test_criterion_8_distance_metric_laws():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(1000):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        a, b, c = (rng.random(shape) for _ in range(3))
        dab = attention_distance(a, b)
        ok &= abs(dab - _scalar_distance(a, b)) < 1e-10
        ok &= dab >= 0.0
        ok &= attention_distance(a, a) == 0.0
        ok &= abs(dab - attention_distance(b, a)) < 1e-10
        ok &= dab <= attention_distance(a, c) + attention_distance(c, b) + 1e-10
    check(
        8,
        "1000 random triples: non-negativity, identity, symmetry, triangle "
        "inequality, scalar-loop agreement to 1e-10",
        ok,
    )


# ---------------------------------------------------------------------------
# 9. scoring hand cases


def test_criterion_9_scoring_hand_cases():
    sents = [["a", "b", "c", "d", "e"], ["x", "y", "z"]]
    b = bleu(sents, sents)
    f = alignment_f1({(1, 1), (2, 2)}, {(1, 1), (2, 1)})
    check(
        9,
        "identity BLEU is 1.0 with BP 1.0; F1 hand case is exactly 0.5/0.5/0.5",
        b.bleu == pytest.approx(1.0)
        and b.brevity_penalty == 1.0
        and (f.precision, f.recall, f.f1) == (0.5, 0.5, 0.5),
    )


# ---------------------------------------------------------------------------
# 10. checkpoint round trip


def test_criterion_10_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    ok = True
    for k in range(10):
        dims = ModelDims(
            src_vocab=int(rng.integers(4, 20)),
            tgt_vocab=int(rng.integers(4, 20)),
            embed=int(rng.integers(2, 8)),
            hidden=int(rng.integers(2, 8)),
            attn=int(rng.integers(2, 8)),
            out=int(rng.integers(2, 8)),
        )
        params = init_params(
            dims, seed=int(rng.integers(0, 10_000)), dtype=np.float32, init_scale=0.3
        )
        first = tmp_path / f"m{k}.ckpt"
        second = tmp_path / f"m{k}.again.ckpt"
        save_checkpoint(params, first)
        save_checkpoint(load_checkpoint(first), second)
        ok &= first.read_bytes() == second.read_bytes()
    check(10, "save -> load -> save is byte-identical on 10 random models", ok)
