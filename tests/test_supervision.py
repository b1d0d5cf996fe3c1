import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnalign import tensor as T
from attnalign.supervision import (
    HardAlignment,
    SmoothingConfig,
    attention_distance,
    complete_alignment,
    format_matrix,
    parse_matrix,
    simple_transform,
    smoothed_transform,
)
from gradcheck import finite_diff_check


def random_alignment(rng, max_m=8, max_l=8):
    m = int(rng.integers(2, max_m + 1))
    l = int(rng.integers(2, max_l + 1))
    links = set()
    for t in range(1, m):
        for i in range(1, l):
            if rng.random() < 0.3:
                links.add((t, i))
    return HardAlignment(m, l, links)


def per_cell_smoothed_transform(aligned, cfg, normalize=True):
    """Oracle: smoothed_transform as one += per link and offset, in the
    link set's iteration order."""
    m, l = aligned.m, aligned.l
    out = np.zeros((m, l), dtype=np.float64)
    for t, i in aligned.links:
        if i == l:
            out[t - 1, l - 1] += 1.0
            continue
        for delta in range(-cfg.window, cfg.window + 1):
            j = i + delta
            if 1 <= j <= l - 1:
                out[t - 1, j - 1] += cfg.kernel(delta)
    if not normalize:
        return out
    return out / out.sum(axis=1, keepdims=True)


class TestCompleteAlignment:
    def test_unaligned_word_attaches_to_eos(self):
        # target word 3 has no link: it gains the single link to source eos
        raw = HardAlignment(4, 5, {(1, 1), (2, 2), (4, 4)})
        done = complete_alignment(raw)
        assert (3, 5) in done.links
        assert (4, 5) in done.links  # eos-to-eos always added
        assert raw.links <= done.links

    def test_fully_aligned_input_only_gains_eos_link(self):
        raw = HardAlignment(2, 3, {(1, 1), (2, 2)})
        done = complete_alignment(raw)
        assert done.links == {(1, 1), (2, 2), (2, 3)}
        assert complete_alignment(done).links == done.links  # idempotent

    def test_empty_link_set(self):
        done = complete_alignment(HardAlignment(2, 2, set()))
        assert done.links == {(1, 2), (2, 2)}


class TestSimpleTransform:
    def test_row_normalization(self):
        a = complete_alignment(HardAlignment(2, 4, {(1, 1), (1, 3)}))
        mat = simple_transform(a)
        np.testing.assert_allclose(mat[0], [0.5, 0, 0.5, 0])

    def test_single_link_row_is_one_hot(self):
        a = complete_alignment(HardAlignment(2, 3, {(1, 2)}))
        np.testing.assert_array_equal(simple_transform(a)[0], [0, 1, 0])

    def test_last_row_one_hot_at_eos(self):
        a = complete_alignment(HardAlignment(3, 4, {(1, 1), (2, 2)}))
        np.testing.assert_array_equal(simple_transform(a)[2], [0, 0, 0, 1])

    def test_uncompleted_alignment_rejected(self):
        with pytest.raises(ValueError, match="empty target row"):
            simple_transform(HardAlignment(2, 2, {(1, 1)}))


class TestSmoothedTransform:
    def test_kernel_values_match_hand_computation(self):
        cfg = SmoothingConfig(window=2, sigma=1.0)
        assert cfg.kernel(0) == 1.0
        assert round(cfg.kernel(1), 2) == 0.61
        assert round(cfg.kernel(2), 2) == 0.14

    def test_single_link_raw_increments(self):
        a = HardAlignment(2, 6, {(1, 1)})
        done = complete_alignment(a)
        raw = smoothed_transform(done, SmoothingConfig(window=2, sigma=1.0), normalize=False)
        expected = [1.0, math.exp(-0.5), math.exp(-2.0), 0.0, 0.0]
        np.testing.assert_allclose(raw[0, :5], expected)

    def test_window_zero_equals_simple_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = complete_alignment(random_alignment(rng))
            smoothed = smoothed_transform(a, SmoothingConfig(window=0, sigma=1.0))
            assert np.array_equal(smoothed, simple_transform(a))

    def test_two_link_overlap_adds(self):
        # links at source 2 and 4 with w=1: kernels overlap on column 3
        a = HardAlignment(2, 6, {(1, 2), (1, 4)})
        done = complete_alignment(a)
        raw = smoothed_transform(done, SmoothingConfig(window=1, sigma=1.0), normalize=False)
        k1 = math.exp(-0.5)
        np.testing.assert_allclose(raw[0], [k1, 1.0, 2 * k1, 1.0, k1, 0.0])

    def test_eos_links_are_point_masses(self):
        a = complete_alignment(HardAlignment(3, 4, {(1, 1)}))  # row 2 unaligned
        mat = smoothed_transform(a, SmoothingConfig(window=2, sigma=1.0))
        np.testing.assert_array_equal(mat[1], [0, 0, 0, 1])
        np.testing.assert_array_equal(mat[2], [0, 0, 0, 1])

    def test_smoothing_never_bleeds_into_eos_column(self):
        # link adjacent to the eos column: the kernel is truncated there
        a = complete_alignment(HardAlignment(2, 4, {(1, 3)}))
        mat = smoothed_transform(a, SmoothingConfig(window=2, sigma=1.0))
        assert mat[0, 3] == 0.0

    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    def test_equals_per_cell_loop_bytes(self, window):
        # links anywhere on the grid, eos column included, on grids narrow
        # enough that most kernels are truncated at a boundary
        rng = np.random.default_rng(100 + window)
        for _ in range(200):
            m, l = (int(v) for v in rng.integers(1, 9, size=2))
            cells = [(t, i) for t in range(1, m + 1) for i in range(1, l + 1)]
            picks = rng.random(len(cells)) < rng.uniform(0.1, 0.6)
            a = complete_alignment(HardAlignment(m, l, {c for c, p in zip(cells, picks) if p}))
            cfg = SmoothingConfig(window=window, sigma=float(rng.uniform(0.3, 2.0)))
            for normalize in (False, True):
                got = smoothed_transform(a, cfg, normalize)
                want = per_cell_smoothed_transform(a, cfg, normalize)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_both_transforms_row_stochastic(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = complete_alignment(random_alignment(rng))
            for mat in (simple_transform(a), smoothed_transform(a)):
                assert np.all(mat >= 0) and np.all(mat <= 1)
                np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-6)


def distance(a, b):
    """``attention_distance`` of two plain matrices, on the path training runs."""
    return float(attention_distance(T.Tensor(a), b).data)


class TestAttentionDistance:
    def test_identity(self):
        m = np.random.default_rng(2).random((3, 4))
        assert distance(m, m) == 0.0

    def test_hand_case(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.full((2, 2), 0.5)
        assert distance(a, b) == pytest.approx(1.0)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.random((3, 4))
            b = rng.random((3, 4))
            total = 0.0
            for t in range(3):
                for i in range(4):
                    total += (a[t, i] - b[t, i]) ** 2
            assert distance(a, b) == pytest.approx(math.sqrt(total), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            attention_distance(T.Tensor(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_metric_laws(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b, c = (rng.random((3, 5)) for _ in range(3))
            dab = distance(a, b)
            assert dab >= 0
            assert dab == pytest.approx(distance(b, a), rel=1e-12)
            assert dab <= distance(a, c) + distance(c, b) + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        target = rng.random((3, 4))

        def f(v):
            return attention_distance(v["attn"], target)

        report = finite_diff_check(f, {"attn": rng.random((3, 4))}, tolerance=1e-5)
        assert report.passed, report.max_rel_error

    def test_differentiable_at_perfect_match(self):
        # the backward epsilon keeps the gradient finite at distance zero
        target = np.full((2, 2), 0.5)
        tape = T.Tape()
        attn = tape.var(target.copy())
        d = attention_distance(attn, target)
        grads = T.gradients(tape, d, {"attn": attn})
        assert np.all(np.isfinite(grads["attn"]))


def test_matrix_text_round_trip():
    rng = np.random.default_rng(6)
    mat = rng.random((4, 3))
    again = parse_matrix(format_matrix(mat))
    assert np.array_equal(mat, again)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matrix_text_equals_per_value_repr(dtype):
    rng = np.random.default_rng(7)
    mat = rng.random((5, 4)).astype(dtype)
    mat[0, :3] = [0.0, 1.0, 1e-30]
    mat[1, 0] = np.finfo(dtype).tiny
    if dtype == np.float32:  # 9 significant digits hold every float32
        rows = [" ".join("%.9g" % float(v) for v in row) for row in mat]
    else:
        rows = [" ".join(repr(float(v)) for v in row) for row in mat]
    assert format_matrix(mat) == "\n".join(["5 4", *rows]) + "\n"


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
def test_matrix_text_reads_back_bit_for_bit(dtype, bits):
    # random finite bit patterns, then the edge values, in one matrix
    rng = np.random.default_rng(9)
    values = rng.integers(0, np.iinfo(bits).max, size=21000, dtype=bits, endpoint=True).view(dtype)
    info = np.finfo(dtype)
    one = dtype(1)
    edges = [-0.0, info.smallest_subnormal, -3 * info.smallest_subnormal,
             np.nextafter(info.tiny, dtype(0)), info.tiny, info.max, -info.max,
             one, np.nextafter(one, dtype(0)), np.nextafter(one, dtype(2))]
    values = np.concatenate([values[np.isfinite(values)][:19990], np.array(edges, dtype=dtype)])
    mat = values.reshape(-1, 10)
    again = parse_matrix(format_matrix(mat)).astype(dtype)
    assert np.array_equal(again.view(bits), mat.view(bits))


def test_matrix_text_malformed():
    with pytest.raises(ValueError):
        parse_matrix("2 3\n1 2 3\n")  # missing a row


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_completion_covers_every_row(seed):
    rng = np.random.default_rng(seed)
    a = complete_alignment(random_alignment(rng))
    covered = {t for t, _ in a.links}
    assert covered == set(range(1, a.m + 1))
    assert (a.m, a.l) in a.links
