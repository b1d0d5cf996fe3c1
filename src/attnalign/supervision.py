"""Turning hard word alignments into attention supervision targets.

A hard alignment is a 0/1 link set between target positions t and source
positions i (1-indexed, eos row/column included). Two transforms produce a
row-stochastic target-by-source matrix: plain row normalization, or Gaussian
smoothing of each link along the source axis followed by row normalization.
The supervision matrix is compared to the model's attention matrix with a
Euclidean (Frobenius) distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T


@dataclass
class HardAlignment:
    """Link set over an (m x l) grid; m and l count the eos tokens.

    Links are 1-indexed (t, i) pairs with t the target position and i the
    source position.
    """

    m: int
    l: int
    links: set = field(default_factory=set)

    def __post_init__(self):
        if self.m < 1 or self.l < 1:
            raise ValueError(f"alignment grid must be at least 1x1, got {self.m}x{self.l}")
        for t, i in self.links:
            if not (1 <= t <= self.m and 1 <= i <= self.l):
                raise ValueError(f"link ({t},{i}) outside {self.m}x{self.l} grid")


@dataclass
class SmoothingConfig:
    """Gaussian smoothing window applied along the source axis.

    The kernel is the unnormalized Gaussian exp(-delta^2 / (2 sigma^2)):
    value 1 at offset 0.
    """

    window: int = 2
    sigma: float = 0.5

    def __post_init__(self):
        if self.window < 0:
            raise ValueError(f"window must be non-negative, got {self.window}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def kernel(self, delta):
        return math.exp(-(delta * delta) / (2.0 * self.sigma * self.sigma))


def complete_alignment(raw):
    """Attach unaligned target words to the source eos and pin the eos link.

    Every target row with no links gains the single link (t, l); the link
    (m, l) between the two eos tokens is always added. Original links are
    preserved. Idempotent.
    """
    links = set(raw.links)
    covered = {t for t, _ in links}
    for t in range(1, raw.m + 1):
        if t not in covered:
            links.add((t, raw.l))
    links.add((raw.m, raw.l))
    return HardAlignment(raw.m, raw.l, links)


def simple_transform(aligned):
    """Row-normalize a completed hard alignment into a supervision matrix."""
    out = np.zeros((aligned.m, aligned.l), dtype=np.float64)
    for t, i in aligned.links:
        out[t - 1, i - 1] = 1.0
    sums = out.sum(axis=1, keepdims=True)
    if not np.all(sums > 0):
        raise ValueError("alignment has an empty target row; run complete_alignment first")
    return out / sums


def smoothed_transform(aligned, cfg=None, normalize=True):
    """Smooth each link over neighboring source positions, then row-normalize.

    Each non-eos link (t, i) adds the Gaussian kernel at offsets -w..w,
    truncated at the sentence boundary and kept off the eos column. Links
    into the eos column stay a point mass. With window 0 this reduces
    exactly to simple_transform. ``normalize=False`` returns the raw kernel
    accumulations.
    """
    if cfg is None:
        cfg = SmoothingConfig()
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
    sums = out.sum(axis=1, keepdims=True)
    if not np.all(sums > 0):
        raise ValueError("alignment has an empty target row; run complete_alignment first")
    return out / sums


def supervision_matrix(raw, smoothing=None):
    """Complete a hard alignment, then transform it: row normalization when
    ``smoothing`` is None, else Gaussian smoothing with that SmoothingConfig.
    """
    completed = complete_alignment(raw)
    if smoothing is None:
        return simple_transform(completed)
    return smoothed_transform(completed, smoothing)


def attention_distance(attn, target):
    """Euclidean distance between an attention matrix and its supervision.

    ``attn`` may be a tape-tracked Tensor (the distance is then
    differentiable with respect to it) or a plain array. ``target`` is a
    plain m x l array.
    """
    target = np.asarray(target)
    if isinstance(attn, T.Tensor):
        if attn.data.shape != target.shape:
            raise T.ShapeError(
                f"attention_distance: shapes {attn.data.shape} and {target.shape} differ"
            )
        diff = T.sub(attn, T.Tensor(target.astype(attn.data.dtype)))
        return T.sqrt(T.sumall(T.square(diff)))
    attn = np.asarray(attn)
    if attn.shape != target.shape:
        raise T.ShapeError(
            f"attention_distance: shapes {attn.shape} and {target.shape} differ"
        )
    return float(np.sqrt(((attn - target) ** 2).sum()))


# ---------------------------------------------------------------------------
# text format: first line "m l", then m lines of l space-separated decimals


def format_matrix(matrix):
    matrix = np.asarray(matrix)
    m, l = matrix.shape
    lines = [f"{m} {l}"]
    for row in matrix:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    lines = [ln for ln in text.strip().splitlines()]
    if not lines:
        raise ValueError("empty matrix text")
    m, l = (int(v) for v in lines[0].split())
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} matrix rows, got {len(lines) - 1}")
    out = np.empty((m, l), dtype=np.float64)
    for r, ln in enumerate(lines[1:]):
        vals = [float(v) for v in ln.split()]
        if len(vals) != l:
            raise ValueError(f"row {r}: expected {l} values, got {len(vals)}")
        out[r] = vals
    return out


def write_matrices(matrices, path):
    with open(path, "w", encoding="utf-8") as fh:
        for mat in matrices:
            fh.write(format_matrix(mat))
            fh.write("\n")


def read_matrices(path):
    with open(path, encoding="utf-8") as fh:
        blocks = [b for b in fh.read().split("\n\n") if b.strip()]
    return [parse_matrix(b) for b in blocks]
