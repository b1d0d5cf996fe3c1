"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Values are numpy arrays. A Tape records primitive operations in execution
order (define-by-run, rebuilt per forward pass), each as one node: its
input node ids and one VJP that returns an adjoint per input. ``backward``
walks the tape in reverse, calls each node's VJP once and accumulates the
adjoints of its tracked inputs. Primitives act on whole batches: binary
elementwise ones broadcast like numpy (their VJPs sum each adjoint back to
its operand's shape), and products and reductions act on the last axes, so
one node serves every sentence of a batch. Only the primitives needed by the
encoder-decoder model are provided:

- elementwise: add, sub, mul, tanh, sigmoid, sqrt;
- products: matvec (W applied along the last axis), vecmat (batched
  weighted sum of rows), matmul;
- assembly and indexing: concat along an axis, take (numpy basic
  indexing), embed (gather rows of a table by an id array, scattered back
  once in the VJP);
- reductions: sumall (over all or the given axes), softmax (last axis,
  optionally masked), log_softmax (last axis);
- recurrent layers that keep their gates for the VJP and run backprop
  through time in it: gru_sequence (a whole masked GRU direction) and
  attention_decoder (every teacher-forced step of the attention decoder,
  whose VJP recomputes each step's attention tanh). Its forward step,
  attention_step, works on plain arrays and is also greedy decoding's
  step;
- a fused output layer that keeps no activation on the tape: pick_nll
  (the summed reference-token NLL under a vocabulary projection, over the
  packed real rows of all blocks in chunks of bounded size), which takes
  its gradients in the forward pass while each chunk's logits are at hand.
"""

from __future__ import annotations

import numpy as np

# Added under the sqrt in the backward pass only, so that the gradient at
# sqrt(0) is finite instead of NaN.
SQRT_BACKWARD_EPS = 1e-12

# Bytes of logits pick_nll holds at once: rows per chunk are this
# over the vocabulary's row size (about 52 rows at V=20000 in float64).
PICK_CHUNK_BYTES = 8 << 20

# Bytes of the scratch that takes pick_nll's exps a few rows at a time, so
# the logits stay in place (one row at V=20000 in float64).
PICK_SCRATCH_BYTES = 256 << 10


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


def _check_shapes(op, a, b):
    raise ShapeError(f"{op}: shapes {a} and {b} do not conform")


class Tensor:
    """A numpy array plus an optional handle onto the tape that produced it."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape=None, node=-1):
        self.data = data
        self.tape = tape
        self.node = node

    def __repr__(self):
        tracked = "tracked" if self.tape is not None else "const"
        return f"Tensor(shape={self.data.shape}, {tracked})"


class Tape:
    """Append-only record of primitive operations.

    A tape is single-threaded; node inputs always precede the node itself,
    so the sequence is topologically ordered by construction.
    """

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def var(self, value):
        """Register a tracked leaf (trainable parameter or input) in its dtype."""
        data = np.asarray(value)
        nid = len(self._nodes)
        self._nodes.append(())
        return Tensor(data, self, nid)


def const(value, dtype=np.float64):
    """An untracked tensor; participates in ops without receiving gradients."""
    return Tensor(np.asarray(value, dtype=dtype))


def _as_tensor(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _record(data, inputs, vjp):
    """The output of one node: ``inputs`` is the sequence of its operand
    tensors and ``vjp(g)`` returns one adjoint per input, in that order.
    The tape keeps the inputs' node ids, -1 for an untracked one, whose
    adjoint backward drops. A node with no tracked input is not recorded."""
    tape = None
    for t in inputs:
        if t.tape is not None:
            tape = t.tape
            break
    if tape is None:
        return Tensor(data)
    nid = len(tape._nodes)
    tape._nodes.append((tuple(t.node for t in inputs), vjp))
    return Tensor(data, tape, nid)


# ---------------------------------------------------------------------------
# primitives


def _unbroadcast(g, shape):
    """Sum an adjoint over the axes along which an operand of ``shape`` was
    broadcast, so it has that operand's shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + k for k, n in enumerate(shape) if n == 1 and g.shape[lead + k] != 1
    )
    return np.asarray(g.sum(axis=axes)).reshape(shape)


def _broadcast(op, fn, a, b):
    try:
        return fn(a.data, b.data)
    except ValueError:
        _check_shapes(op, a.data.shape, b.data.shape)


def add(a, b):
    b = _as_tensor(b, a)
    out = _broadcast("add", np.add, a, b)
    sa, sb = a.data.shape, b.data.shape
    return _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b):
    """a - b; either side may be a python float."""
    a = _as_tensor(a, b)
    b = _as_tensor(b, a)
    out = _broadcast("sub", np.subtract, a, b)
    sa, sb = a.data.shape, b.data.shape
    return _record(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b):
    """a * b; b may be a python float."""
    b = _as_tensor(b, a)
    out = _broadcast("mul", np.multiply, a, b)
    ad, bd = a.data, b.data
    return _record(out, (a, b), lambda g: (_unbroadcast(g * bd, ad.shape),
                                           _unbroadcast(g * ad, bd.shape)))


def matvec(w, x):
    """W applied to every vector along the last axis: (M, N) and (..., N)
    -> (..., M), as one product for the whole batch."""
    if w.data.ndim != 2 or x.data.ndim < 1 or w.data.shape[1] != x.data.shape[-1]:
        _check_shapes("matvec", w.data.shape, x.data.shape)
    wd, xd = w.data, x.data
    out = xd @ wd.T
    return _record(out, (w, x), lambda g: (_outer(g, xd), g @ wd))


def vecmat(v, m):
    """Weighted sums of rows: (..., L) and (..., L, D) -> (..., D), the
    row v[k] @ m[k] for every leading index k."""
    if v.data.ndim < 1 or m.data.ndim != v.data.ndim + 1 or m.data.shape[:-1] != v.data.shape:
        _check_shapes("vecmat", v.data.shape, m.data.shape)
    vd, md = v.data, m.data
    out = (vd[..., None, :] @ md)[..., 0, :]
    return _record(out, (v, m), lambda g: ((md @ g[..., :, None])[..., 0],
                                           vd[..., :, None] * g[..., None, :]))


def matmul(a, b):
    """(..., K) @ (K, N) -> (..., N)."""
    if a.data.ndim < 2 or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        _check_shapes("matmul", a.data.shape, b.data.shape)
    ad, bd = a.data, b.data
    out = ad @ bd
    return _record(out, (a, b), lambda g: (g @ bd.T, _outer(ad, g)))


def concat(parts, axis=-1):
    """Concatenate tensors along an axis; the VJP splits the adjoint back
    into one view per part."""
    parts = list(parts)
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    return _record(out, parts, lambda g: np.split(g, np.cumsum(sizes[:-1]), axis=axis))


def take(x, key):
    """``x[key]`` for a basic numpy index (an int, a slice or a tuple of
    them), such as one time step ``np.s_[:, t]`` of a batch."""
    out = x.data[key]
    shp = x.data.shape

    def vjp(g):
        full = np.zeros(shp, dtype=g.dtype)
        full[key] = g
        return (full,)

    return _record(out, (x,), vjp)


def embed(table, ids):
    """Rows ``ids`` of a 2-D table: an id array of any shape gives an
    ``ids.shape + (E,)`` tensor.

    The VJP scatters the row gradients into a single table-shaped array.
    Repeated ids are summed last position first (in row-major order), the
    order in which backward reaches one lookup per position.
    """
    ids = np.asarray(ids, dtype=np.intp)
    out = table.data[ids]
    shp = table.data.shape

    def vjp(g):
        full = np.zeros(shp, dtype=g.dtype)
        np.add.at(full, ids.reshape(-1)[::-1], g.reshape(-1, shp[1])[::-1])
        return (full,)

    return _record(out, (table,), vjp)


def _gru_gates(x, h, u, zr, rh, c, ctx=None, w_ctx=None):
    """One GRU step's gates on plain arrays, written into ``zr`` (z and r
    stacked), ``rh`` (r * h) and ``c``: x = (x_z, x_r, x_c) input
    pre-activations, h the previous state, u = (U_z, U_r, U_c), and an
    optional second input ``ctx`` with weights ``w_ctx``."""
    for k in (0, 1):
        np.add(x[k], h @ u[k].T, out=zr[k])
        if ctx is not None:
            zr[k] += ctx @ w_ctx[k].T
    np.negative(zr, out=zr)
    np.exp(zr, out=zr)
    zr += 1.0
    np.divide(1.0, zr, out=zr)
    np.multiply(zr[1], h, out=rh)
    pre_c = x[2] + rh @ u[2].T
    if ctx is not None:
        pre_c += ctx @ w_ctx[2].T
    np.tanh(pre_c, out=c)


def _gru_step_vjp(g, h, z, r, c, u):
    """Adjoints of one GRU step's gate pre-activations (dz, dr, dc) and of
    its previous state, given the adjoint ``g`` of its new state and the
    gates the forward pass kept."""
    dz = (g * (c - h)) * z * (1.0 - z)
    dc = (g * z) * (1.0 - c * c)
    drh = dc @ u[2]
    dr = (drh * h) * r * (1.0 - r)
    return dz, dr, dc, g * (1.0 - z) + drh * r + dr @ u[1] + dz @ u[0]


def _outer(g, v):
    """The weight gradient sum_k g[k] v[k]^T over all leading axes."""
    return g.reshape(-1, g.shape[-1]).T @ v.reshape(-1, v.shape[-1])


def gru_sequence(x_parts, u, mask, reverse=False):
    """A whole GRU direction over a padded batch as one node: ``x_parts``
    holds the (B, L, H) gate pre-activations (x_z, x_r, x_c) of every
    position and ``u`` the recurrent weights (U_z, U_r, U_c). The state
    starts at zero and steps through positions 0..L-1, or L-1..0 when
    ``reverse``; where ``mask`` (B, L) is 0 the state is carried unchanged.
    Returns the (B, L, H) states, each position's after its step.

    The tape keeps each step's z, r, r * h and c, time-major like the
    loop; the previous states are the output shifted by one step. The VJP
    runs backprop through time on them without recomputing a gate, returns
    the three input adjoints as (B, L, H) arrays and each U gradient as one
    product over all steps.
    """
    xd = [p.data for p in x_parts]
    ud = [w.data for w in u]
    n, steps, hid = xd[0].shape
    keep = np.asarray(mask, dtype=bool)
    if keep.shape != (n, steps) or any(p.shape != xd[0].shape for p in xd):
        _check_shapes("gru_sequence", xd[0].shape, keep.shape)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    # time-major, so that every step's slices are contiguous
    x_steps = np.stack([p.transpose(1, 0, 2) for p in xd], axis=1)
    live = keep.T[:, :, None]
    full = keep.all(axis=0)
    states, zr, rh, c = (np.empty((steps, *shape, hid), dtype=xd[0].dtype)
                         for shape in ((n,), (2, n), (n,), (n,)))
    h = np.zeros((n, hid), dtype=xd[0].dtype)
    for t in order:
        _gru_gates(x_steps[t], h, ud, zr[t], rh[t], c[t])
        h_new = (1.0 - zr[t, 0]) * h + zr[t, 0] * c[t]
        h = h_new if full[t] else np.where(live[t], h_new, h)
        states[t] = h

    def compute(g):
        g = g.transpose(1, 0, 2)
        h_prev = np.zeros_like(states)
        if reverse:
            h_prev[:-1] = states[1:]
        else:
            h_prev[1:] = states[:-1]
        d = np.empty((3, steps, n, hid), dtype=g.dtype)
        dh = np.zeros((n, hid), dtype=g.dtype)
        for t in reversed(order):
            a, carry = g[t] + dh, None
            if not full[t]:
                a, carry = np.where(live[t], a, 0.0), np.where(live[t], 0.0, a)
            d[0, t], d[1, t], d[2, t], dh = _gru_step_vjp(a, h_prev[t], *zr[t], c[t], ud)
            if carry is not None:
                dh += carry
        grads = [np.ascontiguousarray(dk.transpose(1, 0, 2)) for dk in d]
        return grads + [_outer(d[0], h_prev), _outer(d[1], h_prev), _outer(d[2], rh)]

    out = states.transpose(1, 0, 2)
    return _record(out, (*x_parts, *u), compute)


def tanh(x):
    out = np.tanh(x.data)
    return _record(out, (x,), lambda g: (g * (1.0 - out * out),))


def sigmoid(x):
    out = 1.0 / (1.0 + np.exp(-x.data))
    return _record(out, (x,), lambda g: (g * out * (1.0 - out),))


def sqrt(x):
    out = np.sqrt(x.data)
    xd = x.data
    return _record(out, (x,), lambda g: (g * 0.5 / np.sqrt(xd + SQRT_BACKWARD_EPS),))


def sumall(x, axis=None):
    """Sum over all axes, or over the given ones."""
    out = np.asarray(x.data.sum(axis=axis))
    shp = x.data.shape

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shp).copy() if shp else g,)

    return _record(out, (x,), vjp)


def softmax(x, mask=None):
    """Stable softmax over the last axis. Where ``mask`` (a constant array
    of x's shape) is 0 the output is exactly 0, and so is its gradient."""
    xd = x.data if mask is None else np.where(mask, x.data, -np.inf)
    e = np.exp(xd - xd.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (out * (g - (g * out).sum(axis=-1, keepdims=True)),)

    return _record(out, (x,), vjp)


def log_softmax(x):
    """Stable log-softmax over the last axis."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _record(out, (x,), vjp)


def attention_step(s, y, h_proj, ctx_mat, pad, ws, v, u, w_ctx, out):
    """One step of the attention decoder on plain arrays, for a batch of B
    rows: ``s`` (B, H) is the previous state, ``y`` this step's target
    projections (y_att, y_z, y_r, y_c), ``h_proj`` (B, L, A) and
    ``ctx_mat`` (B, L, C) the projected and the summed encoder states, and
    ``pad`` (B, L) is True at padded source positions. In order: base =
    ws s + y_att, alpha = softmax(tanh(h_proj + base) @ v) with padded
    positions at exactly 0, the context alpha @ ctx_mat, and the GRU step
    on y_g and the context through ``w_ctx``. Writes base, alpha, the
    context, z and r, r * s, c and the new state (1 - z) * s + z * c into
    the buffers ``out``, in that order, then a (B, L, A) scratch for the
    tanh layer."""
    base, alpha, ctx, zr, rh, c, new, tn = out
    np.add(s @ ws.T, y[0], out=base)
    np.tanh(np.add(h_proj, base[:, None, :], out=tn), out=tn)
    e = tn @ v
    e[pad] = -np.inf
    e -= e.max(axis=-1, keepdims=True)
    np.divide(np.exp(e, out=e), e.sum(axis=-1, keepdims=True), out=alpha)
    ctx[...] = (alpha[:, None, :] @ ctx_mat)[:, 0, :]
    _gru_gates(y[1:], s, u, zr, rh, c, ctx, w_ctx)
    np.add((1.0 - zr[0]) * s, zr[0] * c, out=new)


def attention_decoder(s0, y_parts, h_proj, ctx_mat, mask, ws, v, u, w_ctx):
    """Every step of a teacher-forced attention decoder as one node: ``s0``
    (B, H) is the initial state, ``y_parts`` the (B, M, .) target
    projections (y_att, y_z, y_r, y_c), ``h_proj`` (B, L, A) and ``ctx_mat``
    (B, L, C) the projected and the summed encoder states, ``mask`` (B, L)
    the real source positions. Step t is ``attention_step`` on
    y_g[:, t], which does what ``model.decode_step`` composes from the
    primitives, in its order.
    Returns (B, M, H + L): each step's new state, then its attention row.

    The tape keeps each step's gates, base, attention and context; the VJP
    recomputes the (B, L, A) tanh, runs backprop through time and takes
    each weight gradient, and the ``ctx_mat`` adjoint, as one product over
    all steps.
    """
    sd, hd, md, wsd, vd = s0.data, h_proj.data, ctx_mat.data, ws.data, v.data
    yd, ud, wcd = [p.data for p in y_parts], [w.data for w in u], [w.data for w in w_ctx]
    n, length, _ = hd.shape
    steps, hid, dtype = yd[0].shape[1], sd.shape[1], sd.dtype
    keep = np.asarray(mask, dtype=bool)
    if keep.shape != (n, length) or md.shape[:2] != keep.shape:
        _check_shapes("attention_decoder", hd.shape, keep.shape)
    states = np.empty((steps + 1, n, hid), dtype=dtype)  # s0, then each step's new state
    states[0] = sd
    prev = states[:-1]  # the state each step starts from
    base = np.empty((steps, n, hd.shape[2]), dtype=dtype)
    alpha = np.empty((steps, n, length), dtype=dtype)
    ctx = np.empty((steps, n, md.shape[2]), dtype=dtype)
    zr, rh, c = (np.empty((steps, *shape), dtype=dtype) for shape in ((2, n, hid), (n, hid), (n, hid)))
    tn = np.empty_like(hd)  # one step's tanh layer
    pad = ~keep
    for t in range(steps):
        attention_step(prev[t], [p[:, t] for p in yd], hd, md, pad, wsd, vd, ud, wcd,
                       (base[t], alpha[t], ctx[t], zr[t], rh[t], c[t], states[t + 1], tn))
    out = np.empty((n, steps, hid + length), dtype=dtype)
    out[:, :, :hid] = states[1:].transpose(1, 0, 2)
    out[:, :, hid:] = alpha.transpose(1, 0, 2)

    def compute(g):
        g_s, g_alpha = g[..., :hid].transpose(1, 0, 2), g[..., hid:].transpose(1, 0, 2)
        d = np.empty((steps, n, 3 * hid), dtype=dtype)  # [dz dr dc] of the gate pre-activations
        d_base, d_ctx = np.empty_like(base), np.empty_like(ctx)
        w_c = np.concatenate(wcd)
        d_th = np.zeros_like(hd)  # de * (1 - tanh^2) summed over steps; times v, h_proj's adjoint
        d_v, th = np.zeros_like(vd), np.empty_like(hd)
        a = g_s[-1]
        for t in range(steps - 1, -1, -1):
            *gates, dh = _gru_step_vjp(a, prev[t], *zr[t], c[t], ud)
            np.concatenate(gates, axis=1, out=d[t])
            d_ctx[t] = d[t] @ w_c
            da = g_alpha[t] + (md @ d_ctx[t][:, :, None])[:, :, 0]
            de = alpha[t] * (da - (da * alpha[t]).sum(axis=-1, keepdims=True))
            np.tanh(np.add(hd, base[t][:, None, :], out=th), out=th)
            d_v += (de.reshape(1, -1) @ th.reshape(-1, th.shape[2]))[0]
            np.subtract(1.0, np.square(th, out=th), out=th)
            d_base[t] = (de[:, None, :] @ th)[:, 0, :] * vd
            th *= de[:, :, None]
            d_th += th
            # the state's adjoint: its own, then the GRU's, then the base's
            a = dh if t == 0 else g_s[t - 1] + dh
            a += d_base[t] @ wsd
        y_grads = [np.ascontiguousarray(x.transpose(1, 0, 2))
                   for x in (d_base, d[..., :hid], d[..., hid : 2 * hid], d[..., 2 * hid :])]
        d_u, d_wc = _outer(d[..., : 2 * hid], prev), _outer(d, ctx)
        d_mat = alpha.transpose(1, 2, 0) @ d_ctx.transpose(1, 0, 2)
        return [a, *y_grads, d_th * vd, d_mat, _outer(d_base, prev), d_v, d_u[:hid], d_u[hid:],
                _outer(d[..., 2 * hid :], rh), *np.split(d_wc, 3)]

    return _record(out, (s0, *y_parts, h_proj, ctx_mat, ws, v, *u, *w_ctx), compute)


def pick_nll(h, w, ids, lengths):
    """The summed negative log-likelihood of ``ids`` under
    ``log_softmax(h[k, t] @ w.T)`` over the first ``lengths[k]`` rows t of
    every block k: (B, M, D), (V, D) and (B, M) ids -> a 0-d tensor, and
    the (B, M) picked log-probs as a plain array, 0 past each block's length.

    The real rows of all blocks are packed into one (N, D) array and run in
    chunks of ``PICK_CHUNK_BYTES`` worth of logits, in one reused buffer.
    A few rows at a time, the max-shifted logits' exps go into a small
    scratch for the log-sum-exp. When ``h`` or ``w`` is tracked, those rows
    then become softmax in place while they are in cache, the chunk loses
    one at each row's picked id, and it goes into the (N, D) gradient if
    ``h`` is tracked and the (V, D) one if ``w`` is, which the VJP only
    scales by its adjoint. No (N, V) array is ever held and padded rows
    cost nothing.
    """
    hd, wd = h.data, w.data
    ids = np.asarray(ids, dtype=np.intp)
    if hd.ndim != 3 or wd.ndim != 2 or ids.shape != hd.shape[:2] or hd.shape[2] != wd.shape[1]:
        _check_shapes("pick_nll", hd.shape, ids.shape)
    lens = np.asarray(lengths)
    if lens.shape != hd.shape[:1] or np.any(lens < 0) or np.any(lens > hd.shape[1]):
        raise ShapeError(
            f"pick_nll: lengths {lens.tolist()} do not fit {hd.shape[0]} blocks of {hd.shape[1]} rows"
        )
    real = np.arange(hd.shape[1]) < lens[:, None]
    rows, picks = hd[real], ids[real]
    n_rows = len(rows)
    dtype = np.result_type(hd, wd)
    step = max(1, PICK_CHUNK_BYTES // (wd.shape[0] * dtype.itemsize))
    track_h, track_w = h.tape is not None, w.tape is not None
    track = track_h or track_w
    few = max(1, PICK_SCRATCH_BYTES // (wd.shape[0] * dtype.itemsize)) if track else step
    lse = np.empty(n_rows, dtype=hd.dtype)
    picked = np.empty(n_rows, dtype=hd.dtype)
    buf = np.empty((min(step, n_rows), wd.shape[0]), dtype=dtype)
    # untracked, the logits are not needed again and the exps overwrite them
    scratch = np.empty((min(few, n_rows), wd.shape[0]), dtype=dtype) if track else buf
    if track_h:
        gh_rows = np.empty_like(rows)
    if track_w:
        gw, part = np.zeros_like(wd), np.empty_like(wd)
    for a in range(0, n_rows, step):
        b = min(a + step, n_rows)
        z = np.matmul(rows[a:b], wd.T, out=buf[: b - a])
        z -= z.max(axis=1)[:, None]
        at = np.arange(b - a), picks[a:b]
        picked[a:b] = z[at]
        for r in range(0, b - a, few):
            zr = z[r : r + few]
            sums = lse[a + r : a + r + len(zr)]
            np.exp(zr, out=scratch[: len(zr)]).sum(axis=1, out=sums)
            np.log(sums, out=sums)
            if track:
                zr -= sums[:, None]
                np.exp(zr, out=zr)
        if track:
            z[at] -= 1.0
            if track_h:
                np.matmul(z, wd, out=gh_rows[a:b])
            if track_w:
                gw += np.matmul(z.T, rows[a:b], out=part)
    out = np.zeros(ids.shape, dtype=hd.dtype)
    out[real] = picked - lse

    def compute(g):  # backward reads only the tracked operands' adjoints
        gh = None
        if track_h:
            gh = np.zeros_like(hd)
            gh[real] = gh_rows * g
        return gh, np.multiply(gw, g, out=gw) if track_w else None

    return _record(np.asarray(-out.sum()), (h, w), compute), out


# ---------------------------------------------------------------------------
# backward


def backward(tape, loss):
    """Adjoints of the tape's leaves with respect to a scalar loss.

    Returns a list indexed by node id: each leaf (``Tape.var``) the loss
    depends on holds its adjoint, every other entry is None. The tape holds
    only what a leaf reaches, since a node whose inputs are all untracked is
    never recorded. Each node's VJP runs once, on the node's adjoint, and
    its adjoints go to the node's inputs in order, skipping the untracked
    ones. An interior node's adjoint is released as soon as its VJP has
    run, and so is the VJP itself with the activations it holds, so memory
    holds only what is still needed and a tape supports one backward pass.

    Repeated contributions are summed out of place, ``acc + g``: an array
    a VJP returned may be shared (the VJP of ``add`` hands the same array
    to both inputs) and is never written to. Identical tapes give
    bit-identical gradients.
    """
    if not isinstance(loss, Tensor) or loss.tape is not tape:
        raise ValueError("loss was not produced on this tape")
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    nodes = tape._nodes
    if nodes[loss.node] is None:
        raise ValueError("backward: an earlier pass already released this tape")
    adjoints = [None] * len(nodes)
    adjoints[loss.node] = np.asarray(1.0, dtype=loss.data.dtype)
    for nid in range(loss.node, -1, -1):
        a = adjoints[nid]
        node = nodes[nid]
        if node:
            nodes[nid] = None
        if a is None or not node:
            continue
        adjoints[nid] = None
        inputs, vjp = node
        for pid, g in zip(inputs, vjp(a)):
            if pid >= 0:
                acc = adjoints[pid]
                adjoints[pid] = g if acc is None else acc + g
    return adjoints


def gradients(tape, loss, wrt):
    """Gradient map for named leaf tensors; untouched leaves get zeros, and
    so does every leaf when the loss is untracked (it reads no leaf)."""
    adjoints = backward(tape, loss) if loss.tape is not None else [None] * len(tape)
    grads = {}
    for name, t in wrt.items():
        g = adjoints[t.node]
        grads[name] = np.zeros_like(t.data) if g is None else np.asarray(g)
    return grads
