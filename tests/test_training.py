import copy
from types import SimpleNamespace

import numpy as np
import pytest

from attnalign import tensor as T
from attnalign import training
from attnalign.corpus import EOS_ID, SentencePair, make_batch, make_batches
from attnalign.model import ModelDims, forward_teacher_forced, init_params, partition_filter
from attnalign.supervision import HardAlignment, complete_alignment, simple_transform
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


DIMS = ModelDims(src_vocab=8, tgt_vocab=8, embed=4, hidden=4, attn=4, out=4)


def make_params(seed=0):
    return init_params(DIMS, seed=seed, init_scale=0.5)


def tiny_corpus(n=6, seed=0):
    rng = np.random.default_rng(seed)
    pairs, sup = [], []
    for k in range(n):
        length = int(rng.integers(2, 5))
        ids = [int(rng.integers(3, 8)) for _ in range(length)]
        pairs.append(SentencePair(ids + [EOS_ID], ids + [EOS_ID], k))
        links = {(t, t) for t in range(1, length + 1)}
        a = complete_alignment(HardAlignment(length + 1, length + 1, links))
        sup.append(simple_transform(a))
    return pairs, sup


class TestSentenceLoss:
    def trace_and_sup(self):
        pairs, sup = tiny_corpus(1, seed=3)
        trace = forward_teacher_forced(make_params(1), make_batch(pairs))
        return trace, sup

    def test_joint_with_zero_weight_equals_translation(self):
        trace, sup = self.trace_and_sup()
        joint = sentence_loss(trace, sup, training.JOINT, 0.0)
        trans = sentence_loss(trace, None, training.TRANSLATION)
        assert float(joint.data) == float(trans.data)

    def test_alignment_loss_zero_at_perfect_match(self):
        trace, _ = self.trace_and_sup()
        sup = [trace.attention.data[0]]
        loss = sentence_loss(trace, sup, training.ALIGNMENT, 1.0)
        assert float(loss.data) == 0.0

    def test_joint_is_sum_of_parts(self):
        trace, sup = self.trace_and_sup()
        joint = float(sentence_loss(trace, sup, training.JOINT, 1.0).data)
        trans = float(sentence_loss(trace, None, training.TRANSLATION).data)
        align = float(sentence_loss(trace, sup, training.ALIGNMENT, 1.0).data)
        assert joint == pytest.approx(trans + align, rel=1e-12)

    def test_missing_supervision_rejected(self):
        trace, _ = self.trace_and_sup()
        with pytest.raises(ValueError, match="supervision"):
            sentence_loss(trace, None, training.ALIGNMENT)
        with pytest.raises(ValueError, match="supervision"):
            sentence_loss(trace, None, training.JOINT, 1.0)


class TestAdaDelta:
    class P:
        def __init__(self, w):
            self.tensors = {"w": np.asarray(w, dtype=np.float64)}

    def test_zero_gradient_leaves_params_and_decays_state(self):
        p = self.P([1.0, 2.0])
        state = AdaDeltaState()
        state.ensure("w", p.tensors["w"])
        state.avg_sq_grad["w"][:] = 0.4
        adadelta_update(p, {"w": np.zeros(2)}, state, ["w"])
        np.testing.assert_array_equal(p.tensors["w"], [1.0, 2.0])
        np.testing.assert_allclose(state.avg_sq_grad["w"], 0.4 * 0.95)

    def test_first_step_magnitude(self):
        # rho=0.95, eps=1e-6, g=1: sqrt(eps)/sqrt(0.05 + eps)
        p = self.P([0.0])
        adadelta_update(p, {"w": np.array([1.0])}, AdaDeltaState(), ["w"])
        expected = -np.sqrt(1e-6) / np.sqrt(0.05 + 1e-6)
        assert p.tensors["w"][0] == pytest.approx(expected, abs=1e-12)
        assert p.tensors["w"][0] == pytest.approx(-4.4719e-3, abs=1e-6)

    def test_scale_equivariance_on_first_step(self):
        deltas = []
        for scale in (1.0, 10.0):
            p = self.P([0.0])
            adadelta_update(p, {"w": np.array([scale])}, AdaDeltaState(), ["w"])
            deltas.append(abs(p.tensors["w"][0]))
        assert deltas[1] / deltas[0] == pytest.approx(1.0, rel=0.01)

    def test_non_finite_gradient_skips_batch(self):
        p = self.P([1.0])
        state = AdaDeltaState()
        ok = adadelta_update(p, {"w": np.array([np.nan])}, state, ["w"])
        assert not ok
        assert state.skipped_batches == 1
        np.testing.assert_array_equal(p.tensors["w"], [1.0])

    def test_quadratic_bowl_convergence(self):
        p = self.P([5.0])
        state = AdaDeltaState()
        for _ in range(2000):
            adadelta_update(p, {"w": 2 * p.tensors["w"]}, state, ["w"])
            if abs(p.tensors["w"][0]) < 0.5:
                break
        assert abs(p.tensors["w"][0]) < 0.5


def dense_adadelta(params, grads, state, names, rho=0.95, eps=1e-6):
    """Oracle: the AdaDelta step over every entry of every tensor."""
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


@pytest.mark.parametrize("block", [None, 4])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_touched_row_adadelta_equals_dense_oracle(monkeypatch, dtype, block):
    if block is not None:
        monkeypatch.setattr(training, "ADADELTA_BLOCK", block)  # several blocks per tensor
    rng = np.random.default_rng(12)
    shapes = {"emb": (9, 3), "zero": (4, 3), "w": (3, 5), "b": (5,)}
    fast = SimpleNamespace(tensors={n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()})
    fast.tensors["emb"][8, 0] = -0.0
    slow = SimpleNamespace(tensors={n: v.copy() for n, v in fast.tensors.items()})
    fast_state, slow_state = AdaDeltaState(), AdaDeltaState()
    names = list(fast.tensors)
    for step in range(4):
        grads = {n: rng.normal(size=v.shape).astype(dtype) for n, v in fast.tensors.items()}
        grads["emb"][[0, 4, 7, 8]] = 0.0  # rows never touched
        grads["emb"][8] = -0.0 if step == 3 else 0.0  # flips a -0.0 parameter to +0.0
        grads["emb"][5] *= step < 2  # touched, then zero
        grads["emb"][6, 1] = 0.0  # a touched row with a zero entry
        grads["zero"][:] = 0.0  # an all-zero 2-D gradient
        assert adadelta_update(fast, {n: g.copy() for n, g in grads.items()}, fast_state, names)
        dense_adadelta(slow, grads, slow_state, names)
        for n in names:
            for got, want in ((fast.tensors, slow.tensors), (fast_state.avg_sq_grad, slow_state.avg_sq_grad),
                              (fast_state.avg_sq_delta, slow_state.avg_sq_delta)):
                assert got[n].dtype == dtype
                assert np.array_equal(got[n], want[n]), (step, n)
                assert got[n].tobytes() == want[n].tobytes(), (step, n)  # signs of zeros too
    assert not np.signbit(fast.tensors["emb"][8, 0])


class TestSchedule:
    def test_shorthand_single_joint(self):
        (phase,) = parse_schedule("J", total_epochs=6)
        assert phase == Phase(training.JOINT, "ALL", 6)

    def test_shorthand_chains(self):
        phases = parse_schedule("A->T->J", total_epochs=9)
        assert [(p.objective, p.trainable, p.epochs) for p in phases] == [
            (training.ALIGNMENT, "A", 3),
            (training.TRANSLATION, "T", 3),
            (training.JOINT, "ALL", 3),
        ]

    def test_explicit_syntax(self):
        phases = parse_schedule("ALIGN:A:2->JOINT:ALL:10")
        assert phases == [Phase(training.ALIGNMENT, "A", 2), Phase(training.JOINT, "ALL", 10)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_schedule("")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(schedule=[])
        with pytest.raises(ValueError):
            TrainConfig(schedule=[Phase("JOINT", "ALL", 1)], rho=1.5)


class TestTrainPhase:
    def test_t_only_phase_freezes_a_tensors(self):
        params = make_params(2)
        pairs, sup = tiny_corpus()
        before = {n: params.tensors[n].copy() for n in params.names()}
        cfg = TrainConfig(schedule=[Phase(training.TRANSLATION, "T", 2)], batch_size=3, seed=0)
        train_phase(params, pairs, sup, cfg.schedule[0], cfg)
        for n in partition_filter(params, "A"):
            assert np.array_equal(params.tensors[n], before[n]), n
        assert any(
            not np.array_equal(params.tensors[n], before[n])
            for n in partition_filter(params, "T")
        )

    def test_a_only_phase_freezes_t_tensors(self):
        params = make_params(2)
        pairs, sup = tiny_corpus()
        before = {n: params.tensors[n].copy() for n in params.names()}
        cfg = TrainConfig(schedule=[Phase(training.ALIGNMENT, "A", 2)], batch_size=3, seed=0)
        train_phase(params, pairs, sup, cfg.schedule[0], cfg)
        for n in partition_filter(params, "T"):
            assert np.array_equal(params.tensors[n], before[n]), n

    def test_zero_epoch_phase_is_noop(self):
        params = make_params(2)
        pairs, sup = tiny_corpus()
        before = {n: params.tensors[n].copy() for n in params.names()}
        cfg = TrainConfig(schedule=[Phase(training.JOINT, "ALL", 0)], batch_size=3)
        report = train_phase(params, pairs, sup, cfg.schedule[0], cfg)
        assert report.epochs == []
        for n in params.names():
            assert np.array_equal(params.tensors[n], before[n])

    def test_missing_supervision_fails_before_training(self):
        params = make_params()
        pairs, _ = tiny_corpus()
        cfg = TrainConfig(schedule=[Phase(training.ALIGNMENT, "A", 1)], batch_size=3)
        with pytest.raises(ValueError, match="supervision"):
            train_phase(params, pairs, None, cfg.schedule[0], cfg)

    def test_loss_decreases_on_small_corpus(self):
        params = make_params(5)
        pairs, sup = tiny_corpus(10, seed=1)
        cfg = TrainConfig(schedule=[Phase(training.JOINT, "ALL", 30)], batch_size=5, seed=1)
        report = train_phase(params, pairs, sup, cfg.schedule[0], cfg)
        first = report.epochs[0].mean_translation_loss + report.epochs[0].mean_alignment_distance
        last = report.epochs[-1].mean_translation_loss + report.epochs[-1].mean_alignment_distance
        assert last < first


class TestRunSchedule:
    def test_a_then_t_preserves_phase1_a_tensors(self):
        params = make_params(3)
        pairs, sup = tiny_corpus()
        cfg = TrainConfig(
            schedule=parse_schedule("ALIGN:A:1->TRANS:T:1"), batch_size=3, seed=0
        )
        phase1 = TrainConfig(schedule=[cfg.schedule[0]], batch_size=3, seed=0)
        snapshot = copy.deepcopy(params)
        train_phase(snapshot, pairs, sup, phase1.schedule[0], phase1)
        run_schedule(params, pairs, sup, cfg)
        for n in partition_filter(params, "A"):
            assert np.array_equal(params.tensors[n], snapshot.tensors[n]), n

    def test_lambda_zero_joint_reproduces_translation_bitwise(self):
        pairs, sup = tiny_corpus(8, seed=2)
        pj = make_params(4)
        cfg_j = TrainConfig(
            schedule=[Phase(training.JOINT, "ALL", 2)], batch_size=4, seed=7, align_weight=0.0
        )
        run_schedule(pj, pairs, sup, cfg_j)
        pt = make_params(4)
        cfg_t = TrainConfig(
            schedule=[Phase(training.TRANSLATION, "ALL", 2)], batch_size=4, seed=7
        )
        run_schedule(pt, pairs, None, cfg_t)
        for n in pj.names():
            assert np.array_equal(pj.tensors[n], pt.tensors[n]), n

    def test_checkpoints_written_per_phase(self, tmp_path):
        params = make_params()
        pairs, sup = tiny_corpus()
        cfg = TrainConfig(schedule=parse_schedule("ALIGN:A:1->JOINT:ALL:1"), batch_size=3)
        run_schedule(params, pairs, sup, cfg, checkpoint_prefix=str(tmp_path / "m"))
        assert (tmp_path / "m.phase1.ckpt").exists()
        assert (tmp_path / "m.phase2.ckpt").exists()
        assert (tmp_path / "m.ckpt").exists()


def test_batch_loss_matches_scalar_oracle():
    # the logged epoch means equal a direct per-sentence recomputation
    params = make_params(6)
    pairs, sup = tiny_corpus(5, seed=4)
    snapshot = copy.deepcopy(params)
    cfg = TrainConfig(schedule=[Phase(training.JOINT, "ALL", 1)], batch_size=5, seed=9)
    report = train_phase(params, pairs, sup, cfg.schedule[0], cfg)

    total_nll = total_dist = 0.0
    for pair, s in zip(pairs, sup):
        trace = forward_teacher_forced(snapshot, make_batch([pair]))
        total_nll += -sum(float(lp) for lp in trace.log_probs[0])
        total_dist += float(np.sqrt(((np.asarray(trace.attention.data[0]) - s) ** 2).sum()))
    assert report.epochs[0].mean_translation_loss == pytest.approx(total_nll / 5, rel=1e-12)
    assert report.epochs[0].mean_alignment_distance == pytest.approx(total_dist / 5, rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_translation_phase_logs_match_scalar_oracle(dtype):
    # supervision is given but not in the loss; the logged distance is still
    # each sentence's own, summed in float64 at either parameter precision
    params = init_params(DIMS, seed=6, dtype=dtype, init_scale=0.5)
    pairs, sup = tiny_corpus(5, seed=4)
    cfg = TrainConfig(schedule=[Phase(training.TRANSLATION, "T", 1)], batch_size=5, seed=9)
    (batch,) = make_batches(pairs, 5, seed=9, supervision=sup)
    trace = forward_teacher_forced(params, batch)  # the epoch's one forward, before its update
    report = train_phase(params, pairs, sup, cfg.schedule[0], cfg)

    total_nll = total_dist = 0.0
    for k, (pair, s) in enumerate(zip(batch.pairs, batch.supervision)):
        m, l = pair.tgt_len, pair.src_len
        total_nll += -sum(float(lp) for lp in trace.log_probs[k, :m])
        attn = trace.attention.data[k, :m, :l].astype(np.float64)
        total_dist += float(np.sqrt(((attn - s) ** 2).sum()))
    assert total_dist > 0.0
    assert report.epochs[0].mean_translation_loss == pytest.approx(total_nll / 5, rel=1e-12)
    assert report.epochs[0].mean_alignment_distance == pytest.approx(total_dist / 5, rel=1e-12)


@pytest.mark.parametrize("objective,products", [(training.ALIGNMENT, 1), (training.JOINT, 2)])
def test_output_layer_takes_gradient_products_only_for_an_objective_that_reads_the_nll(
        monkeypatch, objective, products):
    # ALIGN takes only each chunk's logits product, and logs the same NLL;
    # JOINT adds the product for h, but none for the frozen out.W2
    params = make_params(6)
    pairs, sup = tiny_corpus(5, seed=4)
    (batch,) = make_batches(pairs, 5, seed=9, supervision=sup)
    want = training.sentence_loss_parts(forward_teacher_forced(params, batch), batch.supervision)[0]
    monkeypatch.setattr(T, "PICK_CHUNK_BYTES", 3 * DIMS.tgt_vocab * 8)
    chunks = -(-int(batch.tgt_mask.sum()) // 3)
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(1) or matmul(*a, **k))
    phase = Phase(objective, "A", 1)
    cfg = TrainConfig(schedule=[phase], batch_size=5)
    trainable = partition_filter(params, "A")
    nll, _ = training.batch_step(params, batch, phase, cfg, AdaDeltaState(), trainable)
    assert chunks > 1 and len(calls) == products * chunks
    assert nll == want


def test_translation_step_on_the_output_partition_runs_backward_into_it_only(monkeypatch):
    params = make_params(6)
    pairs, sup = tiny_corpus(5, seed=4)
    (batch,) = make_batches(pairs, 5, seed=9, supervision=sup)
    trainable = partition_filter(params, "T")
    recurrent_tracked, runs = [], []
    gradients = T.gradients

    def watched(primitive):
        def run(*args):
            out = primitive(*args)
            recurrent_tracked.append(out.tape is not None)
            return out

        return run

    def kept_gradients(tape, loss, wrt):
        runs.append(gradients(tape, loss, wrt))
        return dict(runs[-1])

    for name in ("attention_decoder", "gru_sequence"):
        monkeypatch.setattr(T, name, watched(getattr(T, name)))
    monkeypatch.setattr(T, "gradients", kept_gradients)
    trace = forward_teacher_forced(params, batch)  # every parameter a leaf
    T.gradients(trace.tape, sentence_loss(trace, None, training.TRANSLATION),
                {n: trace.leaves[n] for n in trainable})
    assert recurrent_tracked == [True] * 3
    recurrent_tracked.clear()
    phase = Phase(training.TRANSLATION, "T", 1)
    cfg = TrainConfig(schedule=[phase], batch_size=5)
    training.batch_step(params, batch, phase, cfg, AdaDeltaState(), trainable)
    # the step's tape records neither encoder direction nor the decoder
    assert sorted(trainable) == ["out.W1", "out.W2", "out.b1"]
    assert recurrent_tracked == [False] * 3
    full, step = runs
    for n in trainable:
        assert step[n].tobytes() == full[n].tobytes(), n


def test_alignment_phase_on_the_output_partition_changes_nothing():
    # the attention reads no output-layer tensor: the loss is untracked and
    # every gradient is zero
    params = make_params(7)
    before = copy.deepcopy(params.tensors)
    pairs, sup = tiny_corpus(6, seed=5)
    phase = Phase(training.ALIGNMENT, "T", 2)
    cfg = TrainConfig(schedule=[phase], batch_size=3)
    report = train_phase(params, pairs, sup, phase, cfg)
    assert len(report.epochs) == 2 and report.epochs[-1].mean_alignment_distance > 0
    for n, arr in before.items():
        assert params.tensors[n].tobytes() == arr.tobytes(), n


def test_phase_reports_skipped_batches(caplog):
    params = make_params(2)
    pairs, sup = tiny_corpus(3, seed=1)
    sup[1] = np.full_like(sup[1], np.nan)  # one batch gets a non-finite gradient
    cfg = TrainConfig(schedule=[Phase(training.JOINT, "ALL", 1)], batch_size=1, seed=0)
    with caplog.at_level("INFO", logger="attnalign.training"):
        train_phase(params, pairs, sup, cfg.schedule[0], cfg)
    infos = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    assert "phase JOINT:ALL: skipped 1 batches with non-finite gradients" in infos
    assert not any("batch skipped" in m for m in infos)


def test_clip_gradients_scales_to_max_norm():
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}
    training.clip_gradients(grads, ["a", "b"], 5.0)
    total = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
    assert total == pytest.approx(5.0)
    # direction preserved
    assert grads["a"][1] / grads["a"][0] == pytest.approx(4.0 / 3.0)


def test_clip_gradients_scales_in_place_and_keeps_the_dtype():
    a = np.array([3.0, 4.0], dtype=np.float32)
    grads = {"a": a, "b": np.array([12.0], dtype=np.float32)}
    factor = training.clip_gradients(grads, ["a", "b"], 5.0)
    assert grads["a"] is a and a.dtype == np.float32
    np.testing.assert_array_equal(a, np.array([3.0, 4.0], dtype=np.float32) * np.float32(factor))


def uneven_batch():
    from attnalign.corpus import make_batch

    pairs = [
        SentencePair([3, 4, 5, 6, EOS_ID], [3, 6, 6, EOS_ID]),
        SentencePair([5, EOS_ID], [4, 7, 5, 2, 6, EOS_ID]),
        SentencePair([6, 3, 3, EOS_ID], [EOS_ID]),
    ]
    sup = [np.full((p.tgt_len, p.src_len), 1.0 / p.src_len) for p in pairs]
    return make_batch(pairs, sup)


def test_sentence_loss_and_gradient_do_not_depend_on_batch_mates():
    # the padded batch gives each sentence the numbers of its own B=1 run
    params = make_params(8)
    batch = uneven_batch()
    trace = forward_teacher_forced(params, batch)
    loss = sentence_loss(trace, batch.supervision, training.JOINT, 0.7)
    grads = T.gradients(trace.tape, loss, trace.leaves)
    want = {n: np.zeros_like(v) for n, v in params.tensors.items()}
    want_loss = 0.0
    for k, (pair, sup) in enumerate(zip(batch.pairs, batch.supervision)):
        m, l = pair.tgt_len, pair.src_len
        one = forward_teacher_forced(params, make_batch([pair]))
        nll, dist = training.sentence_loss_parts(one, [sup])
        assert -sum(trace.log_probs[k, :m].tolist()) == pytest.approx(nll, rel=1e-12)
        got_dist = float(np.sqrt(((trace.attention.data[k, :m, :l] - sup) ** 2).sum()))
        assert got_dist == pytest.approx(dist, rel=1e-12)
        one_loss = sentence_loss(one, [sup], training.JOINT, 0.7)
        want_loss += float(one_loss.data)
        for n, g in T.gradients(one.tape, one_loss, one.leaves).items():
            want[n] += g
    assert float(loss.data) == pytest.approx(want_loss, rel=1e-12)
    for n in params.names():
        assert np.abs(grads[n] - want[n]).max() <= 1e-12 * np.abs(want[n]).max(), n


def test_pad_rows_get_exactly_zero_gradient():
    params = make_params(9)
    batch = uneven_batch()
    assert (batch.src_ids == 0).any() and (batch.tgt_ids[:, :-1] == 0).any()
    trace = forward_teacher_forced(params, batch)
    loss = sentence_loss(trace, batch.supervision, training.JOINT, 1.0)
    grads = T.gradients(trace.tape, loss, trace.leaves)
    assert np.all(grads["src_emb"][0] == 0.0)
    assert np.all(grads["tgt_emb"][0] == 0.0)
    assert np.any(grads["src_emb"][3] != 0.0)
