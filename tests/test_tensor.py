import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnalign import model as M
from attnalign import tensor as T
from gradcheck import finite_diff_check
from oracles import neg, stack


def square(x):
    """x * x as one mul node, whose two equal adjoints sum to 2 * x * g."""
    return T.mul(x, x)


def test_softmax_symmetry():
    out = T.softmax(T.const([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_activation_identity_points():
    assert T.tanh(T.const(np.array([0.0]))).data[0] == 0.0
    assert T.sigmoid(T.const(np.array([0.0]))).data[0] == 0.5


def test_matvec_identity():
    v = np.array([1.5, -2.0, 0.25])
    out = T.matvec(T.const(np.eye(3)), T.const(v))
    np.testing.assert_array_equal(out.data, v)


def test_shape_mismatch_reports_both_shapes():
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4,\)"):
        T.matvec(T.const(np.zeros((2, 3))), T.const(np.zeros(4)))


def test_backward_quadratic():
    tape = T.Tape()
    w = tape.var([1.0, 2.0])
    loss = T.sumall(T.mul(w, w))
    grads = T.gradients(tape, loss, {"w": w})
    np.testing.assert_allclose(grads["w"], [2.0, 4.0])


def test_backward_constant_loss_gives_zero_gradients():
    tape = T.Tape()
    w = tape.var([1.0, 2.0])
    c = tape.var(np.asarray(3.0))
    grads = T.gradients(tape, c, {"w": w})
    np.testing.assert_array_equal(grads["w"], np.zeros(2))


def test_backward_rejects_non_scalar_loss():
    tape = T.Tape()
    w = tape.var([1.0, 2.0])
    with pytest.raises(T.ShapeError, match="scalar"):
        T.backward(tape, T.mul(w, w))


def test_backward_deterministic():
    def run():
        tape = T.Tape()
        w = tape.var([0.3, -0.7, 1.1])
        m = tape.var(np.arange(9.0).reshape(3, 3) / 10)
        loss = T.sumall(square(T.tanh(T.matvec(m, w))))
        return T.gradients(tape, loss, {"w": w, "m": m})

    g1, g2 = run(), run()
    assert np.array_equal(g1["w"], g2["w"])
    assert np.array_equal(g1["m"], g2["m"])


def test_three_layer_tanh_network_matches_finite_differences():
    rng = np.random.default_rng(42)
    params = {
        "w1": rng.normal(scale=0.7, size=(4, 5)),
        "w2": rng.normal(scale=0.7, size=(3, 4)),
        "w3": rng.normal(scale=0.7, size=(3,)),
        "x": rng.normal(size=5),
    }

    def net(v):
        h1 = T.tanh(T.matvec(v["w1"], v["x"]))
        h2 = T.tanh(T.matvec(v["w2"], h1))
        return T.sumall(T.mul(v["w3"], h2))

    report = finite_diff_check(net, params, step=1e-5, tolerance=1e-6)
    assert report.passed, report.max_rel_error


# distinct weights per entry, so repeated rows receive different gradients
W32 = [[1.0, 2.0], [3.0, 4.0], [-0.5, 1.5]]
W23 = [[1.0, -2.0, 0.5], [3.0, 0.25, -1.5]]
W232 = [[[1.0, 2.0], [3.0, -4.0], [-0.5, 1.5]], [[0.7, -1.2], [2.5, 0.3], [-2.0, 1.1]]]
MASK23 = np.array([[1, 1, 0], [1, 1, 1]])


SEQ_SHAPES = {"xz": (2, 3, 2), "xr": (2, 3, 2), "xc": (2, 3, 2), "uz": (2, 2), "ur": (2, 2), "uc": (2, 2)}


def _composed_gru(x, h, u):
    """The GRU step written with the elementwise and product primitives."""
    z, r = (T.sigmoid(T.add(xg, T.matvec(ug, h))) for xg, ug in zip(x[:2], u[:2]))
    c = T.tanh(T.add(x[2], T.matvec(u[2], T.mul(r, h))))
    return T.add(T.mul(T.sub(1.0, z), h), T.mul(z, c))


def per_step_gru_sequence(x_parts, u, mask, reverse=False, step=_composed_gru):
    """Oracle: gru_sequence as one ``step`` node per position on the
    position's slice of the inputs, the carry m*new + (1-m)*prev where a
    column of ``mask`` has zeros, and the states stacked."""
    n, steps, hid = x_parts[0].data.shape
    dtype = x_parts[0].data.dtype
    h = T.const(np.zeros((n, hid)), dtype)
    states = [None] * steps
    for t in range(steps - 1, -1, -1) if reverse else range(steps):
        h_new = step([T.take(p, np.s_[:, t]) for p in x_parts], h, u)
        if mask[:, t].all():
            h = h_new
        else:
            m = T.const(mask[:, t, None], dtype)
            h = T.add(T.mul(h_new, m), T.mul(h, T.sub(1.0, m)))
        states[t] = h
    return stack(states, axis=1)


# B=2 sources of L=3 (MASK23), M=2 steps, H=2, A=2, C=3
DEC_SHAPES = {"s0": (2, 2), "ya": (2, 2, 2), "yz": (2, 2, 2), "yr": (2, 2, 2), "yc": (2, 2, 2),
              "hp": (2, 3, 2), "cm": (2, 3, 3), "ws": (2, 2), "va": (2,), "uz": (2, 2),
              "ur": (2, 2), "uc": (2, 2), "wz": (2, 3), "wr": (2, 3), "wc": (2, 3)}
W_DEC = np.linspace(-1.0, 1.5, 20).reshape(2, 2, 5)


def per_step_attention_decoder(s0, y_parts, h_proj, ctx_mat, mask, ws, v, u, w_ctx):
    """Oracle: attention_decoder as ``model.decode_step`` looped over the
    steps on each step's slice of the target projections, its states and
    attention rows stacked side by side."""
    enc = M.EncoderStates(None, ctx_mat, None, mask)
    tv = {"attn.Ws": ws, "attn.v": v, **{f"dec.U{g}": w for g, w in zip(M.GATES, u)}}
    s, states, alphas = s0, [], []
    for t in range(y_parts[0].data.shape[1]):
        s, alpha = M.decode_step(s, [T.take(p, np.s_[:, t]) for p in y_parts], enc, tv, h_proj, w_ctx)
        states.append(s)
        alphas.append(alpha)
    return T.concat([stack(states, axis=1), stack(alphas, axis=1)])


def _attention_decoder_of(v, decoder=T.attention_decoder, mask=MASK23):
    return decoder(v["s0"], [v["ya"], v["yz"], v["yr"], v["yc"]], v["hp"], v["cm"], mask,
                   v["ws"], v["va"], [v["uz"], v["ur"], v["uc"]], [v["wz"], v["wr"], v["wc"]])


def _gru_sequence_of(v, reverse, seq=T.gru_sequence, mask=None):
    mask = MASK23 if mask is None else mask
    return seq([v["xz"], v["xr"], v["xc"]], [v["uz"], v["ur"], v["uc"]], mask, reverse)


# A case's test id ends in its list position: add new cases at the end, and
# let a replacement take a deleted case's slot, so other ids do not shift.
GRADCHECK_CASES = [
    ("matvec", lambda v: T.sumall(square(T.matvec(v["a"], v["b"]))), {"a": (3, 4), "b": (4,)}),
    ("vecmat", lambda v: T.sumall(square(T.vecmat(v["b"], v["c"]))), {"b": (3,), "c": (3, 2)}),
    ("matmul", lambda v: T.sumall(square(T.matmul(v["a"], v["d"]))), {"a": (3, 4), "d": (4, 2)}),
    ("softmax", lambda v: T.sumall(T.mul(T.softmax(v["b"]), T.const([1.0, 2.0, 3.0]))), {"b": (3,)}),
    ("log_softmax", lambda v: T.sumall(T.mul(T.log_softmax(v["b"]), T.const([0.5, -1.0, 2.0]))), {"b": (3,)}),
    ("concat", lambda v: T.sumall(square(T.concat([v["b"], v["e"]]))), {"b": (3,), "e": (2,)}),
    ("sub_float_left", lambda v: T.sumall(square(T.sub(1.0, v["b"]))), {"b": (3,)}),
    ("stack", lambda v: T.sumall(square(stack([v["b"], v["g"]]))), {"b": (3,), "g": (3,)}),
    ("sigmoid", lambda v: T.sumall(T.sigmoid(v["b"])), {"b": (3,)}),
    ("sqrt_sum_square", lambda v: T.sqrt(T.sumall(square(v["b"]))), {"b": (3,)}),
    ("embed", lambda v: T.sumall(T.mul(square(T.embed(v["c"], [2, 0, 2])), T.const(W32))), {"c": (3, 2)}),
    ("add_rowvec", lambda v: T.sumall(square(T.add(v["c"], v["i"]))), {"c": (3, 2), "i": (2,)}),
    ("row", lambda v: T.sumall(square(T.take(v["c"], 1))), {"c": (3, 2)}),
    ("log_softmax_rows", lambda v: T.sumall(T.mul(T.log_softmax(v["c"]), T.const(W32))), {"c": (3, 2)}),
    ("pick_rows", lambda v: T.pick_nll(v["k"], v["l"], [[2, 0]], [2])[0], {"k": (1, 2, 2), "l": (3, 2)}),
    ("gru_sequence", lambda v: T.sumall(T.mul(_gru_sequence_of(v, reverse=True), T.const(W232))), SEQ_SHAPES),
    ("attention_decoder", lambda v: T.sumall(T.mul(_attention_decoder_of(v), T.const(W_DEC))), DEC_SHAPES),
    ("pick_log_softmax_blocks", lambda v: T.mul(T.pick_nll(v["h"], v["l"], [[1, 1, 3], [0, 2, 0]], [3, 2])[0], 0.7), {"h": (2, 3, 2), "l": (4, 2)}),
    ("softmax_masked", lambda v: T.sumall(T.mul(T.softmax(v["p"], MASK23), T.const(W23))), {"p": (2, 3)}),
    ("matvec_nd", lambda v: T.sumall(square(T.matvec(v["a"], v["h"]))), {"a": (3, 2), "h": (2, 3, 2)}),
    ("embed_2d_ids", lambda v: T.sumall(T.mul(T.embed(v["c"], [[2, 0, 2], [1, 2, 0]]), T.const(W232))), {"c": (3, 2)}),
    ("vecmat_batched", lambda v: T.sumall(square(T.vecmat(v["p"], v["h"]))), {"p": (2, 3), "h": (2, 3, 2)}),
    ("matmul_nd", lambda v: T.sumall(square(T.matmul(v["h"], v["q"]))), {"h": (2, 3, 2), "q": (2, 4)}),
    ("concat_axis1", lambda v: T.sumall(square(T.concat([v["h"], v["r"]], axis=1))), {"h": (2, 3, 2), "r": (2, 1, 2)}),
    ("stack_axis1", lambda v: T.sumall(T.mul(stack([v["p"], v["o"]], axis=1), T.const(np.transpose(W232, (0, 2, 1))))), {"p": (2, 3), "o": (2, 3)}),
    ("take_step", lambda v: T.sumall(square(T.take(v["h"], np.s_[:, 1]))), {"h": (2, 3, 2)}),
    ("sqrt_sum_axes", lambda v: T.sumall(T.sqrt(T.sumall(square(v["h"]), axis=(-2, -1)))), {"h": (2, 3, 2)}),
    ("mul_broadcast", lambda v: T.sumall(square(T.mul(v["h"], v["r"]))), {"h": (2, 3, 2), "r": (2, 1, 2)}),
]


@pytest.mark.parametrize("name,f,shapes", GRADCHECK_CASES)
def test_primitive_gradients_match_finite_differences(name, f, shapes):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params = {k: rng.normal(scale=0.8, size=s) for k, s in shapes.items()}
    report = finite_diff_check(f, params, step=1e-5, tolerance=1e-6)
    assert report.passed, (name, report.max_rel_error)


def test_shared_identity_adjoint_is_not_mutated():
    # add() is the last consumer of a and b, so backward reaches it first
    # and its VJP hands one array to both as their first adjoint. Both are
    # then summed into again by their earlier consumers; an in-place add
    # into the shared array would leak b's gradient into a's.
    def f(v):
        a = T.tanh(v["x"])
        b = T.sigmoid(v["y"])
        early = T.add(T.mul(a, b), T.mul(b, b))
        shared = T.add(a, b)
        return T.sumall(T.add(square(shared), early))

    rng = np.random.default_rng(5)
    params = {"x": rng.normal(size=4), "y": rng.normal(size=4)}
    report = finite_diff_check(f, params, step=1e-5, tolerance=1e-6)
    assert report.passed, report.max_rel_error


def test_backward_releases_the_tape():
    tape = T.Tape()
    w = tape.var([0.5, -1.5])
    loss = T.sumall(T.tanh(w))
    T.backward(tape, loss)
    with pytest.raises(ValueError, match="released"):
        T.backward(tape, loss)


def test_backward_returns_only_leaf_adjoints():
    tape = T.Tape()
    w = tape.var([0.5, -1.5])
    h = T.tanh(w)
    loss = T.sumall(T.mul(h, h))
    adjoints = T.backward(tape, loss)
    assert adjoints[w.node] is not None
    assert adjoints[h.node] is None and adjoints[loss.node] is None


def test_pick_needs_one_id_per_row():
    with pytest.raises(T.ShapeError):
        T.pick_nll(T.const(np.zeros((1, 2, 3))), T.const(np.zeros((4, 3))), [[0, 1, 2]], [2])


@pytest.mark.parametrize("lengths", [[2], [2, 1, 0], [2, 3], [-1, 2]])
def test_pick_needs_one_length_per_block_within_its_rows(lengths):
    h, w = T.const(np.zeros((2, 2, 3))), T.const(np.zeros((4, 3)))
    with pytest.raises(T.ShapeError, match="lengths"):
        T.pick_nll(h, w, [[0, 1], [2, 3]], lengths)


def pick_log_softmax(h, w, ids, lengths):
    """Oracle, the output layer before ``T.pick_nll``: the (B, M) tensor
    ``log_softmax(h[k, t] @ w.T)[ids[k, t]]`` over the first ``lengths[k]``
    rows of every block, 0 past them, over the packed real rows in chunks
    of ``T.PICK_CHUNK_BYTES`` worth of logits. Only each row's max and
    log-sum-exp are kept; the VJP recomputes a chunk's logits to take its
    gradient products."""
    hd, wd = h.data, w.data
    ids = np.asarray(ids, dtype=np.intp)
    lens = np.asarray(lengths)
    real = np.arange(hd.shape[1]) < lens[:, None]
    rows, picks = hd[real], ids[real]
    n_rows = len(rows)
    dtype = np.result_type(hd, wd)
    step = max(1, T.PICK_CHUNK_BYTES // (wd.shape[0] * dtype.itemsize))
    chunks = [(a, min(a + step, n_rows)) for a in range(0, n_rows, step)]
    top = np.empty(n_rows, dtype=hd.dtype)
    lse = np.empty(n_rows, dtype=hd.dtype)
    picked = np.empty(n_rows, dtype=hd.dtype)
    buf = np.empty((min(step, n_rows), wd.shape[0]), dtype=dtype)
    for a, b in chunks:
        z = np.matmul(rows[a:b], wd.T, out=buf[: b - a])
        top[a:b] = z.max(axis=1)
        z -= top[a:b, None]
        picked[a:b] = z[np.arange(b - a), picks[a:b]]
        lse[a:b] = np.log(np.exp(z, out=z).sum(axis=1))
    out = np.zeros(ids.shape, dtype=hd.dtype)
    out[real] = picked - lse

    def compute(g):
        g = g[real]
        gh_rows = np.empty_like(rows)
        gw = np.zeros_like(wd)
        part = np.empty_like(wd)
        buf = np.empty((min(step, n_rows), wd.shape[0]), dtype=dtype)
        for a, b in chunks:
            d = np.matmul(rows[a:b], wd.T, out=buf[: b - a])
            d -= top[a:b, None]
            d -= lse[a:b, None]
            np.exp(d, out=d)
            d *= -g[a:b, None]
            d[np.arange(b - a), picks[a:b]] += g[a:b]
            np.matmul(d, wd, out=gh_rows[a:b])
            gw += np.matmul(d.T, rows[a:b], out=part)
        gh = np.zeros_like(hd)
        gh[real] = gh_rows
        return gh, gw

    return T._record(out, (h, w), compute)


def per_block_pick_log_softmax(hd, wd, ids, lengths, g):
    """Oracle: the log-probs and the (h, w) gradients of the output layer
    against an adjoint ``g`` of its log-probs, one block of rows at a time."""
    out = np.zeros(ids.shape)
    gh, gw = np.zeros_like(hd), np.zeros_like(wd)
    for k, n in enumerate(lengths):
        rows = hd[k, :n]
        logits = rows @ wd.T
        z = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1))
        out[k, :n] = z[np.arange(n), ids[k, :n]] - lse
        d = -np.exp(z - lse[:, None]) * g[k, :n, None]
        d[np.arange(n), ids[k, :n]] += g[k, :n]
        gh[k, :n] = d @ wd
        gw += d.T @ rows
    return out, gh, gw


def nll_and_gradients(layer, hd, wd, ids, lengths, adjoint):
    """(nll, log-probs, h gradient, w gradient) of ``adjoint`` times the
    summed NLL, from ``T.pick_nll`` or from the ``pick_log_softmax`` oracle."""
    tape = T.Tape()
    h, w = tape.var(hd), tape.var(wd)
    if layer is T.pick_nll:
        nll, log_probs = T.pick_nll(h, w, ids, lengths)
    else:
        out = layer(h, w, ids, lengths)
        nll, log_probs = neg(T.sumall(out)), out.data
    loss = nll if adjoint == 1.0 else T.mul(nll, adjoint)
    grads = T.gradients(tape, loss, {"h": h, "w": w})
    return nll.data, log_probs, grads["h"], grads["w"]


@pytest.mark.parametrize("rows_per_chunk", [None, 3])
@pytest.mark.parametrize("vocab", [30, 5000])
def test_packed_pick_log_softmax_equals_per_block_oracle(monkeypatch, vocab, rows_per_chunk):
    if rows_per_chunk is not None:
        monkeypatch.setattr(T, "PICK_CHUNK_BYTES", rows_per_chunk * vocab * 8)
    rng = np.random.default_rng(vocab)
    lengths = [5, 0, 7, 1]
    hd = rng.normal(size=(4, 7, 6))
    wd = rng.normal(scale=0.5, size=(vocab, 6))
    ids = rng.integers(0, vocab, size=(4, 7))
    real = np.arange(7) < np.array(lengths)[:, None]
    # at adjoint 1.0 the fused layer does the oracle's arithmetic in its order
    for dtype in (np.float64, np.float32):
        args = (hd.astype(dtype), wd.astype(dtype), ids, lengths, 1.0)
        got = nll_and_gradients(T.pick_nll, *args)
        for a, b in zip(got, nll_and_gradients(pick_log_softmax, *args)):
            assert a.dtype == dtype and np.array_equal(a, b)
        assert np.all(got[1][~real] == 0.0) and np.all(got[2][~real] == 0.0)
    got = nll_and_gradients(T.pick_nll, hd, wd, ids, lengths, 0.37)
    oracle = nll_and_gradients(pick_log_softmax, hd, wd, ids, lengths, 0.37)
    blocks = per_block_pick_log_softmax(hd, wd, ids, lengths, np.full(ids.shape, -0.37))
    for a, b in [*zip(got, oracle), *zip(got[1:], blocks)]:
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_broadcast_operand_gets_summed_adjoint():
    tape = T.Tape()
    s = tape.var(3.0)
    v = tape.var([1.0, -2.0])
    grads = T.gradients(tape, T.sumall(T.add(s, v)), {"s": s, "v": v})
    assert grads["s"].shape == () and grads["s"] == 2.0
    np.testing.assert_array_equal(grads["v"], [1.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=12))
def test_softmax_is_a_distribution(xs):
    out = T.softmax(T.const(np.array(xs)))
    assert np.all(out.data >= 0)
    assert abs(out.data.sum() - 1.0) < 1e-9


def test_finite_diff_simple_quadratic():
    report = finite_diff_check(
        lambda v: T.sumall(square(v["w"])), {"w": np.array([1.0])}, step=1e-5, tolerance=1e-8
    )
    assert report.passed


def test_finite_diff_constant_function_passes():
    report = finite_diff_check(
        lambda v: T.sumall(T.mul(v["w"], T.const(np.zeros(2)))),
        {"w": np.array([1.0, 2.0])},
    )
    assert report.passed
    assert report.worst == 0.0


def test_untracked_inputs_record_nothing():
    tape = T.Tape()
    out = T.add(T.const([1.0]), T.const([2.0]))
    assert out.tape is None
    assert len(tape) == 0


def test_tape_dtype_float32():
    tape = T.Tape()
    w = tape.var(np.array([1.0, 2.0], dtype=np.float32))
    assert w.data.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mul_squares_and_scales_by_a_float_bit_for_bit(dtype):
    # mul(x, x) gives x its two adjoints g * x, summed to 2 * x * g exactly,
    # and mul(x, c) with a python float c rounds c to x's dtype, as x * c does
    rng = np.random.default_rng(11)
    x, g = (rng.normal(size=(3, 4)).astype(dtype) for _ in range(2))
    c = 0.7
    for f, want, want_grad in [(square, x * x, 2.0 * x * g), (lambda w: T.mul(w, c), x * c, g * c)]:
        tape = T.Tape()
        w = tape.var(x)
        out = f(w)
        grad = T.gradients(tape, T.sumall(T.mul(out, T.const(g, dtype))), {"w": w})["w"]
        assert out.data.dtype == grad.dtype == dtype
        assert np.array_equal(out.data, want) and np.array_equal(grad, want_grad)


# float32 runs both sides in single precision, summed in different orders;
# over 60 random draws the gap was at most 3.5e-7 of each array's largest
# entry (about 3 ulps), so 1e-5 leaves a wide margin.
@pytest.mark.parametrize("dtype,rel", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("step", [_composed_gru], ids=["composed"])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_gru_sequence_equals_per_step_oracle(reverse, step, dtype, rel):
    rng = np.random.default_rng(23 + reverse)
    lengths = np.array([3, 6, 1, 4, 2, 5])  # every length 1..L in a padded batch
    n, steps, hid = len(lengths), lengths.max(), 4
    mask = (np.arange(steps) < lengths[:, None]).astype(np.int8)
    shapes = {k: (n, steps, hid) for k in ("xz", "xr", "xc")}
    shapes.update({k: (hid, hid) for k in ("uz", "ur", "uc")})
    values = {k: rng.normal(scale=0.8, size=s) for k, s in shapes.items()}
    g = rng.normal(size=(n, steps, hid))

    def oracle(x, u, m, rev):
        return per_step_gru_sequence(x, u, m, rev, step)

    results = []
    for seq in (T.gru_sequence, oracle):
        tape = T.Tape()
        leaves = {k: tape.var(v.astype(dtype)) for k, v in values.items()}
        out = _gru_sequence_of(leaves, reverse, seq, mask)
        loss = T.sumall(T.mul(out, T.const(g, dtype)))
        results.append((out.data, T.gradients(tape, loss, leaves)))
        with pytest.raises(ValueError, match="released"):
            T.backward(tape, loss)
    (out, grads), (want_out, want_grads) = results
    assert out.dtype == dtype and all(grads[k].dtype == dtype for k in grads)
    assert np.abs(out - want_out).max() <= rel * np.abs(want_out).max()
    for k in values:
        assert np.abs(grads[k] - want_grads[k]).max() <= rel * np.abs(want_grads[k]).max(), k
    # padded positions: the state is carried (forward) or stays zero
    # (reverse), and their input adjoints are zero
    pad = mask == 0
    assert np.all(grads["xz"][pad] == 0) and np.all(grads["xc"][pad] == 0)
    if reverse:
        assert np.all(out[pad] == 0)
    else:
        last = out[np.arange(n), lengths - 1]
        assert np.array_equal(out[pad], np.repeat(last, steps - lengths, axis=0))


def test_gru_sequence_needs_one_mask_entry_per_position():
    v = {k: T.const(np.zeros(s)) for k, s in SEQ_SHAPES.items()}
    with pytest.raises(T.ShapeError, match=r"\(2, 3, 2\).*\(2, 2\)"):
        _gru_sequence_of(v, False, mask=np.ones((2, 2)))


# The states and attention must be bit-identical. The gradients are not:
# the primitive sums each weight gradient over all steps in one product,
# where the oracle adds one product per step. Over 40 random draws the gap
# was at most 9.3e-16 (float64) and 2.7e-7 (float32) of each array's
# largest entry.
@pytest.mark.parametrize("dtype,rel", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("src_lens,tgt_lens", [([3, 1, 5, 2, 4], [2, 4, 1, 3, 4]), ([3], [2])],
                         ids=["padded", "one"])
def test_attention_decoder_equals_per_step_oracle(src_lens, tgt_lens, dtype, rel):
    rng = np.random.default_rng(len(src_lens))
    n, length, steps, hid, att, ctx = len(src_lens), max(src_lens), max(tgt_lens), 4, 3, 5
    mask = (np.arange(length) < np.array(src_lens)[:, None]).astype(np.int8)
    shapes = {"s0": (n, hid), "ya": (n, steps, att), "hp": (n, length, att), "cm": (n, length, ctx),
              "ws": (att, hid), "va": (att,)}
    shapes.update({k: (n, steps, hid) for k in ("yz", "yr", "yc")})
    shapes.update({k: (hid, hid) for k in ("uz", "ur", "uc")})
    shapes.update({k: (hid, ctx) for k in ("wz", "wr", "wc")})
    values = {k: rng.normal(scale=0.8, size=s) for k, s in shapes.items()}
    # the loss reads each sentence's real steps only, as in training
    g = rng.normal(size=(n, steps, hid + length))
    g[np.arange(steps) >= np.array(tgt_lens)[:, None]] = 0.0
    results = []
    for decoder in (T.attention_decoder, per_step_attention_decoder):
        tape = T.Tape()
        leaves = {k: tape.var(v.astype(dtype)) for k, v in values.items()}
        out = _attention_decoder_of(leaves, decoder, mask)
        loss = T.sumall(T.mul(out, T.const(g, dtype)))
        results.append((out.data, T.gradients(tape, loss, leaves)))
        with pytest.raises(ValueError, match="released"):
            T.backward(tape, loss)
    (out, grads), (want_out, want_grads) = results
    assert out.dtype == dtype and np.array_equal(out, want_out)
    assert np.all(out[..., hid:][(mask == 0)[:, None, :].repeat(steps, axis=1)] == 0.0)
    for k in values:
        assert grads[k].dtype == dtype and np.any(grads[k] != 0), k
        assert np.abs(grads[k] - want_grads[k]).max() <= rel * np.abs(want_grads[k]).max(), k


def test_attention_decoder_needs_one_mask_entry_per_source_position():
    v = {k: T.const(np.zeros(s)) for k, s in DEC_SHAPES.items()}
    with pytest.raises(T.ShapeError, match=r"\(2, 3, 2\).*\(2, 2\)"):
        _attention_decoder_of(v, mask=np.ones((2, 2)))
