"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Values are numpy arrays. A Tape records primitive operations in execution
order (define-by-run, rebuilt per forward pass); ``backward`` walks the tape
in reverse and accumulates adjoints. Only the primitives needed by the
encoder-decoder model are provided: matrix products, concatenation,
elementwise tanh/sigmoid/multiply, softmax, sum, square, sqrt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Added under the sqrt in the backward pass only, so that the gradient at
# sqrt(0) is finite instead of NaN.
SQRT_BACKWARD_EPS = 1e-12


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

    def __add__(self, other):
        return add(self, other)

    def __repr__(self):
        tracked = "tracked" if self.tape is not None else "const"
        return f"Tensor(shape={self.data.shape}, {tracked})"


class Tape:
    """Append-only record of primitive operations.

    A tape is single-threaded; node inputs always precede the node itself,
    so the sequence is topologically ordered by construction.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def var(self, value):
        """Register a tracked leaf (trainable parameter or input)."""
        data = np.asarray(value, dtype=self.dtype)
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


def _record(data, parents):
    """parents: sequence of (tensor, vjp); untracked inputs are skipped."""
    tape = None
    for t, _ in parents:
        if t.tape is not None:
            tape = t.tape
            break
    if tape is None:
        return Tensor(data)
    node = tuple((t.node, vjp) for t, vjp in parents if t.tape is not None)
    nid = len(tape._nodes)
    tape._nodes.append(node)
    return Tensor(data, tape, nid)


# ---------------------------------------------------------------------------
# primitives


def add(a, b):
    b = _as_tensor(b, a)
    if a.data.shape != b.data.shape and a.data.ndim and b.data.ndim:
        _check_shapes("add", a.data.shape, b.data.shape)
    out = a.data + b.data
    return _record(out, [(a, lambda g: g), (b, lambda g: g)])


def sub(a, b):
    """a - b; either side may be a python float."""
    a = _as_tensor(a, b)
    b = _as_tensor(b, a)
    if a.data.shape != b.data.shape and a.data.ndim and b.data.ndim:
        _check_shapes("sub", a.data.shape, b.data.shape)
    out = a.data - b.data
    return _record(out, [(a, lambda g: g), (b, lambda g: -g)])


def neg(a):
    return _record(-a.data, [(a, lambda g: -g)])


def mul(a, b):
    b = _as_tensor(b, a)
    out = a.data * b.data
    ad, bd = a.data, b.data
    return _record(out, [(a, lambda g: g * bd), (b, lambda g: g * ad)])


def scale(a, c):
    """Multiply by a python scalar."""
    c = float(c)
    return _record(a.data * c, [(a, lambda g: g * c)])


def matvec(w, x):
    """(M, N) @ (N,) -> (M,)."""
    if w.data.ndim != 2 or x.data.ndim != 1 or w.data.shape[1] != x.data.shape[0]:
        _check_shapes("matvec", w.data.shape, x.data.shape)
    out = w.data @ x.data
    wd, xd = w.data, x.data
    return _record(out, [(w, lambda g: np.outer(g, xd)), (x, lambda g: wd.T @ g)])


def vecmat(v, m):
    """(L,) @ (L, D) -> (D,); the weighted sum of the rows of m."""
    if v.data.ndim != 1 or m.data.ndim != 2 or v.data.shape[0] != m.data.shape[0]:
        _check_shapes("vecmat", v.data.shape, m.data.shape)
    out = v.data @ m.data
    vd, md = v.data, m.data
    return _record(out, [(v, lambda g: md @ g), (m, lambda g: np.outer(vd, g))])


def matmul(a, b):
    """(M, K) @ (K, N) -> (M, N)."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        _check_shapes("matmul", a.data.shape, b.data.shape)
    out = a.data @ b.data
    ad, bd = a.data, b.data
    return _record(out, [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])


def add_rowvec(m, v):
    """Add a row vector to every row of a matrix."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.data.shape[1] != v.data.shape[0]:
        _check_shapes("add_rowvec", m.data.shape, v.data.shape)
    out = m.data + v.data
    return _record(out, [(m, lambda g: g), (v, lambda g: g.sum(axis=0))])


def concat(parts):
    """Concatenate 1-D tensors."""
    parts = list(parts)
    out = np.concatenate([p.data for p in parts])
    parents = []
    off = 0
    for p in parts:
        n = p.data.shape[0]
        start = off

        def vjp(g, s=start, e=off + n):
            return g[s:e]

        parents.append((p, vjp))
        off += n
    return _record(out, parents)


def row(x, i):
    """Row i of a 2-D tensor (used for embedding lookup)."""
    out = x.data[i]
    shp = x.data.shape

    def vjp(g):
        full = np.zeros(shp, dtype=g.dtype)
        full[i] = g
        return full

    return _record(out, [(x, vjp)])


def pick(x, i):
    """Element i of a 1-D tensor, as a scalar."""
    out = np.asarray(x.data[i])
    n = x.data.shape[0]

    def vjp(g):
        full = np.zeros(n, dtype=x.data.dtype)
        full[i] = g
        return full

    return _record(out, [(x, vjp)])


def stack_rows(rows):
    """Stack 1-D tensors of equal length into a 2-D tensor."""
    rows = list(rows)
    out = np.stack([r.data for r in rows])
    parents = [(r, (lambda g, k=k: g[k])) for k, r in enumerate(rows)]
    return _record(out, parents)


def tanh(x):
    out = np.tanh(x.data)
    return _record(out, [(x, lambda g: g * (1.0 - out * out))])


def sigmoid(x):
    out = 1.0 / (1.0 + np.exp(-x.data))
    return _record(out, [(x, lambda g: g * out * (1.0 - out))])


def square(x):
    out = x.data * x.data
    xd = x.data
    return _record(out, [(x, lambda g: 2.0 * xd * g)])


def sqrt(x):
    out = np.sqrt(x.data)
    xd = x.data
    return _record(out, [(x, lambda g: g * 0.5 / np.sqrt(xd + SQRT_BACKWARD_EPS))])


def sumall(x):
    out = np.asarray(x.data.sum())
    shp = x.data.shape

    def vjp(g):
        return np.broadcast_to(g, shp).copy() if shp else g

    return _record(out, [(x, vjp)])


def softmax(x):
    """Stable softmax over a 1-D tensor (max-subtraction)."""
    if x.data.ndim != 1:
        _check_shapes("softmax", x.data.shape, "(n,)")
    z = x.data - x.data.max()
    e = np.exp(z)
    out = e / e.sum()

    def vjp(g):
        return out * (g - g @ out)

    return _record(out, [(x, vjp)])


def log_softmax(x):
    """Stable log-softmax over a 1-D tensor."""
    if x.data.ndim != 1:
        _check_shapes("log_softmax", x.data.shape, "(n,)")
    z = x.data - x.data.max()
    lse = np.log(np.exp(z).sum())
    out = z - lse
    probs = np.exp(out)

    def vjp(g):
        return g - probs * g.sum()

    return _record(out, [(x, vjp)])


# ---------------------------------------------------------------------------
# backward


def backward(tape, loss):
    """Adjoints for every node reachable from a scalar loss.

    Returns a list indexed by node id; unreachable nodes hold None.
    Deterministic: identical tapes give bit-identical gradients.
    """
    if not isinstance(loss, Tensor) or loss.tape is not tape:
        raise ValueError("loss was not produced on this tape")
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    adjoints = [None] * len(tape._nodes)
    adjoints[loss.node] = np.asarray(1.0, dtype=loss.data.dtype)
    for nid in range(loss.node, -1, -1):
        a = adjoints[nid]
        if a is None:
            continue
        for pid, vjp in tape._nodes[nid]:
            g = vjp(a)
            if adjoints[pid] is None:
                adjoints[pid] = g
            else:
                adjoints[pid] = adjoints[pid] + g
    return adjoints


def gradients(tape, loss, wrt):
    """Gradient map for named leaf tensors; untouched leaves get zeros."""
    adjoints = backward(tape, loss)
    grads = {}
    for name, t in wrt.items():
        g = adjoints[t.node]
        grads[name] = np.zeros_like(t.data) if g is None else np.asarray(g)
    return grads


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class GradCheckReport:
    """Per-parameter maximum relative error of autodiff vs central differences."""

    max_rel_error: dict = field(default_factory=dict)
    passed: bool = True

    @property
    def worst(self):
        return max(self.max_rel_error.values()) if self.max_rel_error else 0.0


def finite_diff_check(f, params, step=1e-5, tolerance=1e-6, denom_eps=1e-10):
    """Check the autodiff gradient of ``f`` against central finite differences.

    ``f`` maps a dict of named Tensors (leaves on a fresh tape) to a scalar
    Tensor. ``params`` is a dict of numpy arrays. Relative error per
    coordinate is |g_ad - g_fd| / max(|g_ad|, |g_fd|, denom_eps).
    """
    params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

    def evaluate(values):
        tape = Tape(np.float64)
        leaves = {k: tape.var(v) for k, v in values.items()}
        loss = f(leaves)
        return tape, loss, leaves

    tape, loss, leaves = evaluate(params)
    if not np.isfinite(loss.data):
        raise ValueError("finite_diff_check: non-finite objective value")
    grads = gradients(tape, loss, leaves)

    report = GradCheckReport()
    for name, value in params.items():
        g_ad = grads[name]
        worst = 0.0
        flat = value.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            _, hi, _ = evaluate(params)
            flat[j] = orig - step
            _, lo, _ = evaluate(params)
            flat[j] = orig
            fd = (float(hi.data) - float(lo.data)) / (2.0 * step)
            if not (np.isfinite(hi.data) and np.isfinite(lo.data)):
                raise ValueError(
                    f"finite_diff_check: non-finite value perturbing {name}[{j}]"
                )
            ad = float(g_ad.reshape(-1)[j])
            rel = abs(ad - fd) / max(abs(ad), abs(fd), denom_eps)
            worst = max(worst, rel)
        report.max_rel_error[name] = worst
    report.passed = report.worst < tolerance
    return report
