import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnalign import tensor as T


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
        loss = T.sumall(T.square(T.tanh(T.matvec(m, w))))
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

    report = T.finite_diff_check(net, params, step=1e-5, tolerance=1e-6)
    assert report.passed, report.max_rel_error


@pytest.mark.parametrize(
    "name,f,shapes",
    [
        ("matvec", lambda v: T.sumall(T.square(T.matvec(v["a"], v["b"]))), {"a": (3, 4), "b": (4,)}),
        ("vecmat", lambda v: T.sumall(T.square(T.vecmat(v["b"], v["c"]))), {"b": (3,), "c": (3, 2)}),
        ("matmul", lambda v: T.sumall(T.square(T.matmul(v["a"], v["d"]))), {"a": (3, 4), "d": (4, 2)}),
        ("softmax", lambda v: T.sumall(T.mul(T.softmax(v["b"]), T.const([1.0, 2.0, 3.0]))), {"b": (3,)}),
        ("log_softmax", lambda v: T.pick(T.log_softmax(v["b"]), 1), {"b": (3,)}),
        ("concat", lambda v: T.sumall(T.square(T.concat([v["b"], v["e"]]))), {"b": (3,), "e": (2,)}),
        ("sub_float_left", lambda v: T.sumall(T.square(T.sub(1.0, v["b"]))), {"b": (3,)}),
        ("stack", lambda v: T.sumall(T.square(T.stack_rows([v["b"], v["g"]]))), {"b": (3,), "g": (3,)}),
        ("sigmoid", lambda v: T.sumall(T.sigmoid(v["b"])), {"b": (3,)}),
        ("sqrt_sum_square", lambda v: T.sqrt(T.sumall(T.square(v["b"]))), {"b": (3,)}),
        ("row", lambda v: T.sumall(T.square(T.row(v["c"], 1))), {"c": (3, 2)}),
        ("add_rowvec", lambda v: T.sumall(T.square(T.add_rowvec(v["c"], v["i"]))), {"c": (3, 2), "i": (2,)}),
    ],
)
def test_primitive_gradients_match_finite_differences(name, f, shapes):
    rng = np.random.default_rng(hash(name) % 2**32)
    params = {k: rng.normal(scale=0.8, size=s) for k, s in shapes.items()}
    report = T.finite_diff_check(f, params, step=1e-5, tolerance=1e-6)
    assert report.passed, (name, report.max_rel_error)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=12))
def test_softmax_is_a_distribution(xs):
    out = T.softmax(T.const(np.array(xs)))
    assert np.all(out.data >= 0)
    assert abs(out.data.sum() - 1.0) < 1e-9


def test_finite_diff_simple_quadratic():
    report = T.finite_diff_check(
        lambda v: T.sumall(T.square(v["w"])), {"w": np.array([1.0])}, step=1e-5, tolerance=1e-8
    )
    assert report.passed


def test_finite_diff_constant_function_passes():
    report = T.finite_diff_check(
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
    tape = T.Tape(np.float32)
    w = tape.var([1.0, 2.0])
    assert w.data.dtype == np.float32
