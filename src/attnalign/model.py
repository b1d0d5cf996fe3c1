"""Attention-based GRU encoder-decoder with a supervisable attention matrix.

Architecture: bidirectional GRU encoder over the source; a two-layer
feed-forward attention network scoring each source state against the
previous decoder state and previous target embedding; a GRU decoder fed the
attention-weighted context; a two-layer output network projecting to the
target vocabulary. The teacher-forced forward pass yields per-step reference
log-probabilities and the full target-by-source attention matrix.

Parameters are split into two partitions: "T" holds the output network
(hidden layer weight, bias, vocabulary projection); "A" holds everything
upstream of the decoder hidden state. Alignment supervision only touches the
attention matrix, so it can be trained against the A partition alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T

INIT_SCALE = 0.08

OUTPUT_TENSORS = ("out.W1", "out.b1", "out.W2")


@dataclass
class ModelDims:
    src_vocab: int
    tgt_vocab: int
    embed: int = 64
    hidden: int = 64
    attn: int = 64
    out: int = 64

    def __post_init__(self):
        for name in ("src_vocab", "tgt_vocab", "embed", "hidden", "attn", "out"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _gru_shapes(prefix, in_dim, hid_dim):
    shapes = {}
    for gate in ("z", "r", "c"):
        shapes[f"{prefix}.W{gate}"] = (hid_dim, in_dim)
        shapes[f"{prefix}.U{gate}"] = (hid_dim, hid_dim)
        shapes[f"{prefix}.b{gate}"] = (hid_dim,)
    return shapes


def _tensor_shapes(dims):
    """Fixed-order name -> shape map; order defines checkpoint layout."""
    shapes = {
        "src_emb": (dims.src_vocab, dims.embed),
        "tgt_emb": (dims.tgt_vocab, dims.embed),
        "bos_emb": (dims.embed,),
    }
    shapes.update(_gru_shapes("enc_fwd", dims.embed, dims.hidden))
    shapes.update(_gru_shapes("enc_bwd", dims.embed, dims.hidden))
    shapes.update(
        {
            "attn.Ws": (dims.attn, dims.hidden),
            # stored input-major so the per-sentence projection is one matmul
            "attn.Wh": (2 * dims.hidden, dims.attn),
            "attn.Wy": (dims.attn, dims.embed),
            "attn.b": (dims.attn,),
            "attn.v": (dims.attn,),
            "init.W": (dims.hidden, dims.hidden),
        }
    )
    shapes.update(_gru_shapes("dec", dims.embed + 2 * dims.hidden, dims.hidden))
    shapes.update(
        {
            "out.W1": (dims.out, dims.hidden + dims.embed),
            "out.b1": (dims.out,),
            "out.W2": (dims.tgt_vocab, dims.out),
        }
    )
    return shapes


@dataclass
class ModelParams:
    """All trainable tensors, each tagged with partition "A" or "T"."""

    dims: ModelDims
    tensors: dict
    partition: dict
    seed: int = 0

    def names(self):
        return list(self.tensors)

    def copy(self):
        return ModelParams(
            self.dims,
            {k: v.copy() for k, v in self.tensors.items()},
            dict(self.partition),
            self.seed,
        )


def init_params(dims, seed=0, dtype=np.float64, target_embedding_partition="A",
                init_scale=INIT_SCALE):
    """Uniform [-init_scale, init_scale] weights, zero biases; deterministic.

    The 0.08 default suits large hidden sizes; at desk-scale dims a larger
    scale (0.3-0.5) keeps gradient magnitudes above AdaDelta's epsilon floor.
    """
    rng = np.random.default_rng(seed)
    tensors = {}
    partition = {}
    for name, shape in _tensor_shapes(dims).items():
        if name.split(".")[-1].startswith("b"):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            tensors[name] = rng.uniform(-init_scale, init_scale, size=shape).astype(dtype)
        partition[name] = "T" if name in OUTPUT_TENSORS else "A"
    if target_embedding_partition not in ("A", "T"):
        raise ValueError("target_embedding_partition must be 'A' or 'T'")
    partition["tgt_emb"] = target_embedding_partition
    return ModelParams(dims, tensors, partition, seed)


def partition_filter(params, which):
    """Tensor names in partition "A", "T", or "ALL"."""
    if which == "ALL":
        return params.names()
    if which not in ("A", "T"):
        raise ValueError(f"unknown partition {which!r}")
    return [n for n in params.names() if params.partition[n] == which]


def bind(params, tape):
    """Register every parameter as a tracked leaf on a tape."""
    return {name: tape.var(arr) for name, arr in params.tensors.items()}


# ---------------------------------------------------------------------------
# forward pass


@dataclass
class EncoderStates:
    fwd: list
    bwd: list
    h_mat: T.Tensor  # (l, 2*hidden): [fwd ; bwd] per row
    fwd_mat: T.Tensor
    bwd_mat: T.Tensor


@dataclass
class DecoderTrace:
    log_probs: list  # m scalar Tensors, log p of each reference token
    attention: T.Tensor  # (m, l)
    tape: T.Tape
    leaves: dict


def _gru_step(tv, prefix, x, h_prev):
    z = T.sigmoid(T.matvec(tv[f"{prefix}.Wz"], x) + T.matvec(tv[f"{prefix}.Uz"], h_prev) + tv[f"{prefix}.bz"])
    r = T.sigmoid(T.matvec(tv[f"{prefix}.Wr"], x) + T.matvec(tv[f"{prefix}.Ur"], h_prev) + tv[f"{prefix}.br"])
    c = T.tanh(T.matvec(tv[f"{prefix}.Wc"], x) + T.matvec(tv[f"{prefix}.Uc"], T.mul(r, h_prev)) + tv[f"{prefix}.bc"])
    return T.add(T.mul(T.sub(1.0, z), h_prev), T.mul(z, c))


def encode(src_ids, tv, dims, dtype=np.float64):
    """Bidirectional GRU over the source, from zero initial states."""
    l = len(src_ids)
    zeros = T.const(np.zeros(dims.hidden, dtype=dtype), dtype)
    embeds = [T.row(tv["src_emb"], i) for i in src_ids]
    fwd = []
    h = zeros
    for t in range(l):
        h = _gru_step(tv, "enc_fwd", embeds[t], h)
        fwd.append(h)
    bwd = [None] * l
    h = zeros
    for t in range(l - 1, -1, -1):
        h = _gru_step(tv, "enc_bwd", embeds[t], h)
        bwd[t] = h
    fwd_mat = T.stack_rows(fwd)
    bwd_mat = T.stack_rows(bwd)
    h_mat = T.stack_rows([T.concat([fwd[i], bwd[i]]) for i in range(l)])
    return EncoderStates(fwd, bwd, h_mat, fwd_mat, bwd_mat)


def attention_projection(enc, tv):
    """Per-sentence precomputation: encoder states through the attention net."""
    return T.matmul(enc.h_mat, tv["attn.Wh"])


def attend(s_prev, enc, y_prev_emb, tv, h_proj=None):
    """Two-layer feed-forward attention over source positions; returns the
    (l,) attention probabilities."""
    if h_proj is None:
        h_proj = attention_projection(enc, tv)
    base = T.matvec(tv["attn.Ws"], s_prev) + T.matvec(tv["attn.Wy"], y_prev_emb) + tv["attn.b"]
    hidden = T.tanh(T.add_rowvec(h_proj, base))
    return T.softmax(T.matvec(hidden, tv["attn.v"]))


def initial_state(enc, tv):
    """tanh projection of the backward encoder state at position 1."""
    return T.tanh(T.matvec(tv["init.W"], enc.bwd[0]))


def attention_context(alpha, enc):
    """Attention-weighted sum of encoder states, backward half first."""
    return T.concat([T.vecmat(alpha, enc.bwd_mat), T.vecmat(alpha, enc.fwd_mat)])


def decode_step(s_prev, y_prev_emb, enc, tv, h_proj=None):
    """One decoder step; returns (s_t, log_prob_vector, attention)."""
    alpha = attend(s_prev, enc, y_prev_emb, tv, h_proj)
    context = attention_context(alpha, enc)
    s_t = _gru_step(tv, "dec", T.concat([y_prev_emb, context]), s_prev)
    o_t = T.tanh(T.matvec(tv["out.W1"], T.concat([s_t, y_prev_emb])) + tv["out.b1"])
    log_probs = T.log_softmax(T.matvec(tv["out.W2"], o_t))
    return s_t, log_probs, alpha


def forward_teacher_forced(params, pair):
    """Run the full model on one pair, feeding reference target tokens.

    The first decoder input is a learned begin-of-sentence embedding.
    Deterministic; records on a fresh tape.
    """
    dtype = next(iter(params.tensors.values())).dtype
    tape = T.Tape(dtype)
    tv = bind(params, tape)
    enc = encode(pair.src_ids, tv, params.dims, dtype)
    h_proj = attention_projection(enc, tv)

    s = initial_state(enc, tv)
    y_prev_emb = tv["bos_emb"]
    log_probs, alphas = [], []
    for y_t in pair.tgt_ids:
        s, lp, alpha = decode_step(s, y_prev_emb, enc, tv, h_proj)
        log_probs.append(T.pick(lp, y_t))
        alphas.append(alpha)
        y_prev_emb = T.row(tv["tgt_emb"], y_t)
    attention = T.stack_rows(alphas)
    return DecoderTrace(log_probs, attention, tape, tv)


def greedy_step_inputs(params, src_ids):
    """Encoder pass shared by greedy decoding, on untracked parameters;
    returns (tv, enc, h_proj) and records no tape."""
    dtype = next(iter(params.tensors.values())).dtype
    tv = {name: T.Tensor(arr) for name, arr in params.tensors.items()}
    enc = encode(src_ids, tv, params.dims, dtype)
    return tv, enc, attention_projection(enc, tv)


# ---------------------------------------------------------------------------
# checkpoint format
#
# Plain-text header of key=value lines (dims, seed, partition tags), a blank
# line, then per tensor: name length (u32 LE), name bytes, rank (u32 LE),
# dims (u32 LE each), values as little-endian float32, row-major.


class CheckpointError(ValueError):
    pass


def save_checkpoint(params, path):
    with open(path, "wb") as fh:
        header = [
            "format=attnalign-checkpoint-1",
            f"src_vocab={params.dims.src_vocab}",
            f"tgt_vocab={params.dims.tgt_vocab}",
            f"embed={params.dims.embed}",
            f"hidden={params.dims.hidden}",
            f"attn={params.dims.attn}",
            f"out={params.dims.out}",
            f"seed={params.seed}",
        ]
        header += [f"partition.{n}={params.partition[n]}" for n in params.names()]
        fh.write(("\n".join(header) + "\n\n").encode("utf-8"))
        for name in params.names():
            arr = np.ascontiguousarray(params.tensors[name], dtype="<f4")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path, dtype=np.float32):
    with open(path, "rb") as fh:
        blob = fh.read()
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise CheckpointError("missing header terminator")
    header = {}
    for line in blob[:sep].decode("utf-8").splitlines():
        if "=" not in line:
            raise CheckpointError(f"malformed header line {line!r}")
        key, _, val = line.partition("=")
        header[key] = val
    if header.get("format") != "attnalign-checkpoint-1":
        raise CheckpointError(f"unknown format {header.get('format')!r}")
    try:
        dims = ModelDims(
            int(header["src_vocab"]),
            int(header["tgt_vocab"]),
            int(header["embed"]),
            int(header["hidden"]),
            int(header["attn"]),
            int(header["out"]),
        )
        seed = int(header["seed"])
    except KeyError as exc:
        raise CheckpointError(f"missing header key {exc}") from None

    expected = _tensor_shapes(dims)
    tensors = {}
    partition = {}
    off = sep + 2
    while off < len(blob):
        if off + 4 > len(blob):
            raise CheckpointError(f"truncated at offset {off}")
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        if off + name_len + 4 > len(blob):
            raise CheckpointError(f"truncated at offset {off}")
        name = blob[off : off + name_len].decode("utf-8")
        off += name_len
        (rank,) = struct.unpack_from("<I", blob, off)
        off += 4
        if off + 4 * rank > len(blob):
            raise CheckpointError(f"truncated at offset {off}")
        shape = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        if name not in expected:
            raise CheckpointError(f"unexpected tensor {name!r} at offset {off}")
        if shape != expected[name]:
            raise CheckpointError(
                f"tensor {name!r}: header dims imply {expected[name]}, payload says {shape}"
            )
        count = int(np.prod(shape)) if shape else 1
        nbytes = 4 * count
        if off + nbytes > len(blob):
            raise CheckpointError(f"truncated tensor {name!r} at offset {off}")
        arr = np.frombuffer(blob[off : off + nbytes], dtype="<f4").reshape(shape)
        off += nbytes
        tensors[name] = arr.astype(dtype)
        tag = header.get(f"partition.{name}")
        if tag not in ("A", "T"):
            raise CheckpointError(f"missing or bad partition tag for {name!r}")
        partition[name] = tag
    missing = set(expected) - set(tensors)
    if missing:
        raise CheckpointError(f"missing tensors: {sorted(missing)}")
    ordered = {name: tensors[name] for name in expected}
    return ModelParams(dims, ordered, partition, seed)
