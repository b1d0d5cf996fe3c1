import copy

import numpy as np
import pytest

from attnalign import tensor as T
from attnalign import model as M
from attnalign.corpus import EOS_ID, SentencePair, make_batch
from attnalign.model import (
    ModelDims,
    attend,
    attention_context,
    encode,
    forward_teacher_forced,
    init_params,
    load_checkpoint,
    partition_filter,
    save_checkpoint,
    CheckpointError,
)
from attnalign.supervision import attention_distance
from gradcheck import finite_diff_check
from oracles import output_log_probs


DIMS = ModelDims(src_vocab=7, tgt_vocab=9, embed=4, hidden=4, attn=4, out=4)


def make_params(seed=0, scale=0.5, dims=DIMS):
    return init_params(dims, seed=seed, init_scale=scale)


def make_pair():
    return SentencePair([3, 4, 5, EOS_ID], [3, 6, EOS_ID])


# ---------------------------------------------------------------------------
# independent scalar/numpy re-implementation, used as an oracle


def oracle_forward(params, pair):
    """Plain numpy forward pass, written independently of the tensor library."""
    p = params.tensors
    d = params.dims

    def gru(prefix, x, h):
        z = 1 / (1 + np.exp(-(p[f"{prefix}.Wz"] @ x + p[f"{prefix}.Uz"] @ h + p[f"{prefix}.bz"])))
        r = 1 / (1 + np.exp(-(p[f"{prefix}.Wr"] @ x + p[f"{prefix}.Ur"] @ h + p[f"{prefix}.br"])))
        c = np.tanh(p[f"{prefix}.Wc"] @ x + p[f"{prefix}.Uc"] @ (r * h) + p[f"{prefix}.bc"])
        return (1 - z) * h + z * c

    src_emb = [p["src_emb"][i] for i in pair.src_ids]
    l = len(src_emb)
    fwd, h = [], np.zeros(d.hidden)
    for x in src_emb:
        h = gru("enc_fwd", x, h)
        fwd.append(h)
    bwd, h = [None] * l, np.zeros(d.hidden)
    for k in range(l - 1, -1, -1):
        h = gru("enc_bwd", src_emb[k], h)
        bwd[k] = h
    h_mat = np.stack([np.concatenate([fwd[i], bwd[i]]) for i in range(l)])

    s = np.tanh(p["init.W"] @ bwd[0])
    ey = p["bos_emb"]
    total_logp = 0.0
    attn = []
    for y in pair.tgt_ids:
        scores = np.tanh(h_mat @ p["attn.Wh"] + p["attn.Ws"] @ s + p["attn.Wy"] @ ey + p["attn.b"]) @ p["attn.v"]
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        ctx = np.concatenate([alpha @ np.stack(bwd), alpha @ np.stack(fwd)])
        s = gru("dec", np.concatenate([ey, ctx]), s)
        o = np.tanh(p["out.W1"] @ np.concatenate([s, ey]) + p["out.b1"])
        logits = p["out.W2"] @ o
        shifted = logits - logits.max()
        logp = shifted - np.log(np.exp(shifted).sum())
        total_logp += logp[y]
        attn.append(alpha)
        ey = p["tgt_emb"][y]
    return total_logp, np.stack(attn)


def reference_backward(tape, loss):
    """Out-of-place ``a + g`` accumulation over every node, nothing released."""
    adjoints = [None] * len(tape._nodes)
    adjoints[loss.node] = np.asarray(1.0, dtype=loss.data.dtype)
    for nid in range(loss.node, -1, -1):
        a = adjoints[nid]
        if a is None:
            continue
        for pid, vjp in tape._nodes[nid]:
            g = vjp(a)
            adjoints[pid] = g if adjoints[pid] is None else adjoints[pid] + g
    return adjoints


# ---------------------------------------------------------------------------


class TestInit:
    def test_deterministic(self):
        p1, p2 = make_params(3), make_params(3)
        for name in p1.names():
            assert np.array_equal(p1.tensors[name], p2.tensors[name])

    def test_partition_tags(self):
        p = make_params()
        assert "out.W2" in partition_filter(p, "T")
        assert "attn.v" in partition_filter(p, "A")

    def test_exactly_three_output_tensors_in_t(self):
        p = make_params()
        assert sorted(partition_filter(p, "T")) == ["out.W1", "out.W2", "out.b1"]

    def test_all_finite(self):
        p = make_params()
        for v in p.tensors.values():
            assert np.all(np.isfinite(v))


class TestEncoder:
    def test_single_token_shape(self):
        p = make_params()
        tape = T.Tape()
        enc = encode([[EOS_ID]], M.bind(p, tape))
        assert enc.h_mat.data.shape == (1, 1, 2 * p.dims.hidden)

    def test_zero_weights_give_zero_states(self):
        p = make_params()
        for k in p.tensors:
            p.tensors[k] = np.zeros_like(p.tensors[k])
        tape = T.Tape()
        enc = encode([[3, 4, EOS_ID]], M.bind(p, tape))
        np.testing.assert_array_equal(enc.h_mat.data, np.zeros((1, 3, 2 * p.dims.hidden)))

    def test_direction_symmetry_under_input_reversal(self):
        p = make_params(5)
        src = [3, 4, 5, 6, EOS_ID]
        tape = T.Tape()
        enc = encode([src], M.bind(p, tape))
        h = p.dims.hidden

        swapped = copy.deepcopy(p)
        for gate in ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wc", "Uc", "bc"):
            swapped.tensors[f"enc_fwd.{gate}"] = p.tensors[f"enc_bwd.{gate}"]
            swapped.tensors[f"enc_bwd.{gate}"] = p.tensors[f"enc_fwd.{gate}"]
        tape2 = T.Tape()
        enc2 = encode([src[::-1]], M.bind(swapped, tape2))
        # run2's backward chain reads the original order with run1's forward
        # weights, so its states mirror run1's forward states
        for k in range(len(src)):
            np.testing.assert_allclose(
                enc2.h_mat.data[0, len(src) - 1 - k, h:], enc.h_mat.data[0, k, :h], atol=1e-12
            )


class TestAttention:
    def test_single_position_gives_certainty(self):
        p = make_params()
        tape = T.Tape()
        tv = M.bind(p, tape)
        enc = encode([[EOS_ID]], tv)
        y_att = M.target_projections(tv["bos_emb"], tv)[0]
        att = attend(tape.var(np.zeros((1, p.dims.hidden))), enc, y_att, tv)
        np.testing.assert_array_equal(att.data, [[1.0]])

    def test_identical_states_give_uniform_attention(self):
        p = make_params()
        tape = T.Tape()
        tv = M.bind(p, tape)
        enc = encode([[3, 3, 3]], tv)
        # identical tokens: forward states differ, so force identical rows
        h = T.Tensor(np.tile(enc.h_mat.data[:, :1], (1, 3, 1)))
        enc_same = M.EncoderStates(h, enc.ctx_mat, enc.first_bwd, enc.mask)
        y_att = M.target_projections(tv["bos_emb"], tv)[0]
        att = attend(tape.var(np.zeros((1, p.dims.hidden))), enc_same, y_att, tv)
        np.testing.assert_allclose(att.data, np.full((1, 3), 1 / 3))

    def test_gradient_of_weighted_alpha(self):
        src = [3, 4, EOS_ID]
        weights = np.array([0.3, -1.0, 0.5])
        base = make_params(2)

        def f(leaves):
            enc = encode([src], leaves)
            y_att = M.target_projections(leaves["bos_emb"], leaves)[0]
            att = attend(T.const(np.zeros((1, base.dims.hidden))), enc, y_att, leaves)
            return T.sumall(T.mul(att, T.const(weights)))

        names = ["attn.Ws", "attn.Wh", "attn.Wy", "attn.b", "attn.v", "bos_emb"]
        sub = {k: base.tensors[k] for k in names}

        def g(leaves):
            full = {k: T.Tensor(v) for k, v in base.tensors.items()}
            full.update(leaves)
            return f(full)

        report = finite_diff_check(g, sub, tolerance=1e-5)
        assert report.passed, report.max_rel_error

    def test_point_mass_context_selects_state(self):
        p = make_params(7)
        tape = T.Tape()
        tv = M.bind(p, tape)
        enc = encode([[3, 4, 5, EOS_ID]], tv)
        alpha = T.const(np.array([[0.0, 0.0, 1.0, 0.0]]))
        ctx = attention_context(alpha, enc)
        h = p.dims.hidden
        expected = np.concatenate([enc.h_mat.data[0, 2, h:], enc.h_mat.data[0, 2, :h]])
        np.testing.assert_allclose(ctx.data[0], expected, atol=1e-15)


class TestForward:
    def test_log_likelihood_matches_numpy_oracle(self):
        p = make_params(11)
        pair = make_pair()
        trace = forward_teacher_forced(p, make_batch([pair]))
        got = sum(float(lp) for lp in trace.log_probs[0])
        want_logp, want_attn = oracle_forward(p, pair)
        assert got == pytest.approx(want_logp, rel=1e-12)
        np.testing.assert_allclose(trace.attention.data[0], want_attn, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        trace = forward_teacher_forced(make_params(1), make_batch([make_pair()]))
        np.testing.assert_allclose(trace.attention.data[0].sum(axis=1), 1.0, atol=1e-6)

    def test_log_probs_non_positive(self):
        trace = forward_teacher_forced(make_params(1), make_batch([make_pair()]))
        assert all(float(lp) <= 0 for lp in trace.log_probs[0])

    def test_log_softmax_normalized(self):
        p = make_params(1)
        # recompute one step's full distribution and check logsumexp == 0
        tape = T.Tape()
        tv = M.bind(p, tape)
        enc = encode([make_pair().src_ids], tv)
        s = M.initial_state(enc, tv)
        y = T.const(p.tensors["bos_emb"][None])
        s, _ = M.decode_step(s, M.target_projections(y, tv), enc, tv)
        lp = output_log_probs(M.output_states(s, y, tv), tv)
        assert np.log(np.exp(lp.data).sum()) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gradients_equal_reference_backward(self, dtype):
        p = init_params(DIMS, seed=4, dtype=dtype, init_scale=0.5)
        pair = SentencePair([3, 5, 3, 3, EOS_ID], [4, 4, 7, 4, EOS_ID])  # repeated ids
        def loss_of(trace):
            return T.add(trace.nll,
                         attention_distance(T.take(trace.attention, 0), np.full((5, 5), 0.2)))

        trace = forward_teacher_forced(p, make_batch([pair]))
        grads = T.gradients(trace.tape, loss_of(trace), trace.leaves)
        again = forward_teacher_forced(p, make_batch([pair]))  # backward released the first tape
        want = reference_backward(again.tape, loss_of(again))
        for name, leaf in trace.leaves.items():
            assert want[leaf.node] is not None, name
            assert np.array_equal(grads[name], want[leaf.node]), name

    def test_greedy_step_inputs_record_no_tape(self):
        tv, enc, h_proj, s, *_ = M.greedy_step_inputs(make_params(1), [make_pair().src_ids])
        assert all(t.tape is None for t in tv.values())
        assert enc.h_mat.tape is None and h_proj.tape is None and s.tape is None

    def test_deterministic(self):
        p = make_params(9)
        t1 = forward_teacher_forced(p, make_batch([make_pair()]))
        t2 = forward_teacher_forced(p, make_batch([make_pair()]))
        assert np.array_equal(t1.attention.data, t2.attention.data)
        assert [float(a) for a in t1.log_probs[0]] == [float(b) for b in t2.log_probs[0]]


class TestPartition:
    def test_all_is_everything(self):
        p = make_params()
        assert set(partition_filter(p, "ALL")) == set(p.names())

    def test_disjoint_and_exhaustive(self):
        p = make_params()
        a, t = set(partition_filter(p, "A")), set(partition_filter(p, "T"))
        assert a & t == set()
        assert a | t == set(p.names())

    def test_alignment_loss_has_zero_gradient_on_t_partition(self):
        p = make_params(4)
        pair = make_pair()
        trace = forward_teacher_forced(p, make_batch([pair]))
        attention = T.take(trace.attention, 0)
        target = np.full(attention.data.shape, 1.0 / attention.data.shape[1])
        d = attention_distance(attention, target)
        grads = T.gradients(trace.tape, d, trace.leaves)
        for name in partition_filter(p, "T"):
            assert np.all(grads[name] == 0.0), name
        # and it does reach the attention parameters
        assert np.any(grads["attn.v"] != 0.0)


class TestCheckpoint:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_params(1), path)
        before = path.read_bytes()
        broken = make_params(2)
        broken.tensors["out.W2"] = np.array([["not a number"]], dtype=object)  # last tensor
        with pytest.raises(ValueError):
            save_checkpoint(broken, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_round_trip_bit_exact(self, tmp_path):
        p = init_params(DIMS, seed=13, dtype=np.float32, init_scale=0.3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        again = load_checkpoint(path)
        assert again.names() == p.names()
        for name in p.names():
            assert np.array_equal(again.tensors[name], p.tensors[name])
        assert [partition_filter(again, w) for w in "AT"] == [partition_filter(p, w) for w in "AT"]
        # save -> load -> save produces byte-identical files
        path2 = tmp_path / "m2.ckpt"
        save_checkpoint(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        p = make_params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_dims_mismatch_rejected(self, tmp_path):
        p = make_params()
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = bytearray(path.read_bytes())
        # corrupt the header's hidden size so payload shapes disagree
        fixed = blob.replace(b"hidden=4", b"hidden=5")
        path.write_bytes(fixed)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_padded_batch_matches_numpy_oracle():
    from attnalign.corpus import make_batch

    p = make_params(12)
    pairs = [
        SentencePair([3, 4, 5, 6, EOS_ID], [3, 6, EOS_ID]),
        SentencePair([5, EOS_ID], [4, 7, 8, 2, 6, EOS_ID]),
        SentencePair([6, 3, EOS_ID], [EOS_ID]),
    ]
    trace = forward_teacher_forced(p, make_batch(pairs))
    assert trace.attention.data.shape == (3, 6, 5)
    for k, pair in enumerate(pairs):
        want_logp, want_attn = oracle_forward(p, pair)
        m, l = pair.tgt_len, pair.src_len
        got = trace.log_probs[k]
        assert sum(float(lp) for lp in got[:m]) == pytest.approx(want_logp, rel=1e-12)
        assert np.all(got[m:] == 0.0)
        np.testing.assert_allclose(trace.attention.data[k, :m, :l], want_attn, atol=1e-12)
        assert np.all(trace.attention.data[k, :, l:] == 0.0)
