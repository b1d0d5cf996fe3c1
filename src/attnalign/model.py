"""Attention-based GRU encoder-decoder with a supervisable attention matrix.

Architecture: bidirectional GRU encoder over the source; a two-layer
feed-forward attention network scoring each source state against the
previous decoder state and previous target embedding; a GRU decoder fed the
attention-weighted context; a two-layer output network projecting to the
target vocabulary. Both decoders start from ``decoder_start``: the
teacher-forced pass yields per-step reference log-probabilities and the full
target-by-source attention matrix, and greedy decoding (``greedy_batch``)
emits token ids step by step through the same projections.

Parameters are split into two partitions: "T" holds the output network
(hidden layer weight, bias, vocabulary projection); "A" holds everything
upstream of the decoder hidden state. Alignment supervision only touches the
attention matrix, so it can be trained against the A partition alone.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .corpus import EOS_ID, pad

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
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")


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
    """All trainable tensors by name, in checkpoint order."""

    dims: ModelDims
    tensors: dict
    seed: int = 0

    def names(self):
        return list(self.tensors)


def init_params(dims, seed=0, dtype=np.float64, init_scale=INIT_SCALE):
    """Uniform [-init_scale, init_scale] weights and zeros for every tensor
    whose last name part starts with ``b``: the biases and also ``bos_emb``,
    so the first decoder input is the zero vector until training moves it.
    Deterministic.

    The 0.08 default suits large hidden sizes; at desk-scale dims a larger
    scale (0.3-0.5) keeps gradient magnitudes above AdaDelta's epsilon floor.
    """
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in _tensor_shapes(dims).items():
        if name.split(".")[-1].startswith("b"):
            tensors[name] = np.zeros(shape, dtype=dtype)
        else:
            tensors[name] = rng.uniform(-init_scale, init_scale, size=shape).astype(dtype, copy=False)
    return ModelParams(dims, tensors, seed)


def partition_of(name):
    """A tensor's partition: "T" for the output network, else "A"."""
    return "T" if name in OUTPUT_TENSORS else "A"


def partition_filter(params, which):
    """Tensor names in partition "A", "T", or "ALL"."""
    if which not in ("A", "T", "ALL"):
        raise ValueError(f"unknown partition {which!r}")
    return [n for n in params.names() if which in ("ALL", partition_of(n))]


def bind(params, tape=None, trainable=None):
    """Every parameter as a tensor by name: the ``trainable`` ones (by
    default all) as tracked leaves on ``tape``, the rest untracked, so the
    tape records nothing that reads only frozen tensors. Without a tape
    nothing is tracked and decoding records nothing."""
    leaves = () if tape is None else params.tensors if trainable is None else trainable
    return {name: tape.var(arr) if name in leaves else T.Tensor(arr)
            for name, arr in params.tensors.items()}


# ---------------------------------------------------------------------------
# forward pass
#
# Every function below runs a whole batch at once: sources are padded (B, L)
# id arrays with a (B, L) mask, targets (B, M), and a composed decoder step
# (``decode_step``) is one set of (B, .) nodes. Sentences never mix: the
# encoder carries its states across padding, attention gives padded source
# positions exactly 0, and the losses read only real rows. Their last bits
# still follow the batch's shape, as BLAS may sum a product in another order
# at another size: on the bench's 1000-line decode pool, chunks give the greedy
# tokens of one-sentence runs, and teacher-forced attention stays within
# 5.5e-6 (float32), 3.7e-15 (float64) of one-pair runs, relative to its max.

GATES = ("z", "r", "c")


@dataclass
class EncoderStates:
    h_mat: T.Tensor  # (B, L, 2*hidden): [fwd ; bwd] per position
    ctx_mat: T.Tensor  # (B, L, 2*hidden): [bwd ; fwd], what the context sums
    first_bwd: T.Tensor  # (B, hidden): the backward state at position 1
    mask: np.ndarray  # (B, L): 1 on real source positions


@dataclass
class DecoderTrace:
    """A teacher-forced run over a Batch: the batch's summed NLL (0-d),
    log_probs (B, M) as a plain array, 0 past each target's end, and
    attention (B, M, L), whose rows past a target's end are unused;
    ``src_lens`` and ``tgt_lens`` hold each sentence's real lengths."""

    nll: T.Tensor
    log_probs: np.ndarray
    attention: T.Tensor
    tape: T.Tape
    leaves: dict
    src_lens: np.ndarray  # (B,)
    tgt_lens: np.ndarray  # (B,)


def encode(src_ids, tv, mask=None):
    """Bidirectional GRU over padded sources (B, L), from zero initial
    states. The input projections run once per gate and direction over all
    positions, and each direction's recurrence is one ``gru_sequence`` node.
    Past a source's end (mask 0) the forward state is carried and the
    backward state stays zero, so a sentence's states at its real positions
    are those of its unpadded run."""
    src_ids = np.asarray(src_ids)
    mask = np.ones(src_ids.shape, dtype=np.int8) if mask is None else np.asarray(mask)
    emb = T.embed(tv["src_emb"], src_ids)
    runs = []
    for prefix, reverse in (("enc_fwd", False), ("enc_bwd", True)):
        parts = [T.add(T.matvec(tv[f"{prefix}.W{g}"], emb), tv[f"{prefix}.b{g}"]) for g in GATES]
        runs.append(T.gru_sequence(parts, [tv[f"{prefix}.U{g}"] for g in GATES], mask, reverse))
    fwd, bwd = runs
    first_bwd = T.take(bwd, np.s_[:, 0])
    return EncoderStates(T.concat([fwd, bwd]), T.concat([bwd, fwd]), first_bwd, mask)


def attention_projection(enc, tv):
    """Per-batch precomputation: encoder states through the attention net."""
    return T.matmul(enc.h_mat, tv["attn.Wh"])


def attend(s_prev, enc, y_att, tv, h_proj=None):
    """Two-layer feed-forward attention over source positions; ``y_att`` is
    this step's attn.Wy y_prev + attn.b. Returns the (B, L) attention
    probabilities, exactly 0 at padded positions."""
    if h_proj is None:
        h_proj = attention_projection(enc, tv)
    base = T.add(T.matvec(tv["attn.Ws"], s_prev), y_att)
    layer = T.tanh(T.add(h_proj, T.take(base, np.s_[..., None, :])))
    scores = T.take(T.matvec(T.take(tv["attn.v"], np.s_[None, :]), layer), np.s_[..., 0])
    return T.softmax(scores, enc.mask)


def initial_state(enc, tv):
    """tanh projection of the backward encoder state at position 1."""
    return T.tanh(T.matvec(tv["init.W"], enc.first_bwd))


def attention_context(alpha, enc):
    """Attention-weighted sum of encoder states, backward half first."""
    return T.vecmat(alpha, enc.ctx_mat)


def target_projections(y, tv):
    """The decoder's products with its previous-target embeddings ``y``
    (..., E), over all positions at once: attn.Wy y + attn.b, then
    dec.W_g[:, :E] y + dec.b_g per gate. ``decode_step`` takes one step's
    slice of each."""
    e = y.data.shape[-1]
    parts = [T.add(T.matvec(tv["attn.Wy"], y), tv["attn.b"])]
    for g in GATES:
        w_y = T.take(tv[f"dec.W{g}"], np.s_[:, :e])
        parts.append(T.add(T.matvec(w_y, y), tv[f"dec.b{g}"]))
    return parts


def context_weights(tv):
    """The context columns dec.W_g[:, E:] of the decoder's input weights."""
    e = tv["bos_emb"].data.shape[0]
    return [T.take(tv[f"dec.W{g}"], np.s_[:, e:]) for g in GATES]


def decode_step(s_prev, y_parts, enc, tv, h_proj=None, ctx_w=None):
    """One decoder step over a batch: ``y_parts`` is this step's slice of
    ``target_projections``. Returns (s_t, attention). The reference that
    ``tensor.attention_step`` is tested against: its GRU takes each gate
    as (y_g + U_g s) + W'_g ctx, as the fused step does."""
    y_att, *y_gates = y_parts
    if ctx_w is None:
        ctx_w = context_weights(tv)
    alpha = attend(s_prev, enc, y_att, tv, h_proj)
    context = attention_context(alpha, enc)
    u = [tv[f"dec.U{g}"] for g in GATES]

    def gate(k, h):
        return T.add(T.add(y_gates[k], T.matvec(u[k], h)), T.matvec(ctx_w[k], context))

    z, r = T.sigmoid(gate(0, s_prev)), T.sigmoid(gate(1, s_prev))
    c = T.tanh(gate(2, T.mul(r, s_prev)))
    return T.add(T.mul(T.sub(1.0, z), s_prev), T.mul(z, c)), alpha


def output_states(s, y, tv):
    """Output-layer states tanh(out.W1 [s; y] + out.b1), one product over
    all positions of s (..., hidden) and y (..., E)."""
    return T.tanh(T.add(T.matvec(tv["out.W1"], T.concat([s, y])), tv["out.b1"]))


def decoder_start(tv, enc):
    """What both decoders start from: the attention projection, the
    initial state, then the weights in the order ``tensor.attention_decoder``
    and ``tensor.attention_step`` take them (attn.Ws, attn.v, the dec.U_g
    and ``context_weights``)."""
    return (attention_projection(enc, tv), initial_state(enc, tv), tv["attn.Ws"], tv["attn.v"],
            [tv[f"dec.U{g}"] for g in GATES], context_weights(tv))


def decoder_inputs(tv, tgt_ids):
    """Previous-target embeddings (B, M, E) for teacher forcing: the learned
    begin-of-sentence embedding, then the embeddings of tgt_ids[:, :-1]."""
    bos = tv["bos_emb"]
    first = T.add(T.const(np.zeros((len(tgt_ids), 1, bos.data.shape[0])), bos.data.dtype), bos)
    return T.concat([first, T.embed(tv["tgt_emb"], np.asarray(tgt_ids)[:, :-1])], axis=1)


def teacher_forced(tv, batch, with_log_probs=True, nll_grad=True):
    """The forward pass over a padded Batch; returns (nll, log_probs,
    attention) as ``tensor.pick_nll`` gives the first two, which are None
    without ``with_log_probs``. Every decoder step runs in one
    ``tensor.attention_decoder`` node, and the output layer once after it,
    over all the decoder states; without ``nll_grad`` the output layer runs
    on untracked inputs, so it takes no gradient products."""
    enc = encode(batch.src_ids, tv, batch.src_mask)
    h_proj, s, *weights = decoder_start(tv, enc)
    y = decoder_inputs(tv, batch.tgt_ids)
    run = T.attention_decoder(s, target_projections(y, tv), h_proj, enc.ctx_mat, enc.mask, *weights)
    hid = s.data.shape[-1]
    attention = T.take(run, np.s_[..., hid:])
    if not with_log_probs:
        return None, None, attention
    o, w = output_states(T.take(run, np.s_[..., :hid]), y, tv), tv["out.W2"]
    if not nll_grad:
        o, w = T.Tensor(o.data), T.Tensor(w.data)
    return (*T.pick_nll(o, w, batch.tgt_ids, batch.tgt_mask.sum(axis=1)), attention)


def forward_teacher_forced(params, batch, nll_grad=True, trainable=None):
    """Run the model on a Batch, feeding reference target tokens; records
    on a fresh tape, with the ``trainable`` parameters (by default all) as
    its leaves. The first decoder input is a learned begin-of-sentence
    embedding. Deterministic. Without ``nll_grad`` the NLL is untracked,
    for an objective that does not read it."""
    tape = T.Tape()
    tv = bind(params, tape, trainable)
    nll, log_probs, attention = teacher_forced(tv, batch, nll_grad=nll_grad)
    return DecoderTrace(nll, log_probs, attention, tape, tv,
                        batch.src_mask.sum(axis=1), batch.tgt_mask.sum(axis=1))


def greedy_step_inputs(params, sources):
    """The encoder pass and decoder start of greedy decoding over a list of
    source id lists, on untracked parameters; returns (tv, enc,
    *decoder_start(tv, enc)) and records no tape."""
    tv = bind(params)
    src_ids, mask = pad(sources)
    enc = encode(src_ids, tv, mask)
    return (tv, enc, *decoder_start(tv, enc))


def greedy_batch(params, sources, max_len):
    """Greedy decoding of one batch of sources: a token id list per source,
    ending in eos unless cut at max_len. After the encoder, each step runs
    ``tensor.attention_step`` and the output layer over the sentences still
    decoding and emits each one's argmax token other than <pad>; a sentence
    that emits eos leaves the batch, which ends when none is left."""
    tv, enc, h_proj, s, ws, v, u, ctx_w = greedy_step_inputs(params, sources)
    weights = (ws.data, v.data, [w.data for w in u], [w.data for w in ctx_w])
    h_proj, ctx_mat, pad_at, s = h_proj.data, enc.ctx_mat.data, enc.mask == 0, s.data
    n, length, att = h_proj.shape
    hid, dtype = s.shape[1], s.dtype
    tokens = [[] for _ in sources]  # grown as steps run: max_len may be far above what runs
    live = np.arange(n)  # the batch rows still decoding
    bos = tv["bos_emb"].data
    y = T.Tensor(np.broadcast_to(bos, (n, bos.shape[0])))
    for _ in range(max_len):
        k = len(live)
        bufs = [np.empty(shape, dtype) for shape in ((k, att), (k, length), (k, ctx_mat.shape[2]),
                                                     (2, k, hid), (k, hid), (k, hid), (k, hid),
                                                     (k, length, att))]
        T.attention_step(s, [p.data for p in target_projections(y, tv)], h_proj, ctx_mat, pad_at, *weights, bufs)
        s = bufs[6]
        x = output_states(T.Tensor(s), y, tv).data @ tv["out.W2"].data.T
        # the logits' argmax past <pad> (id 0): a log-softmax only subtracts
        # each row's log-sum-exp, which keeps their order (rounding could at most tie two)
        best = x[:, 1:].argmax(axis=1) + 1
        for j, tok in zip(live.tolist(), best.tolist()):
            tokens[j].append(tok)
        ended = best == EOS_ID
        if ended.any():
            keep = ~ended
            live, best, s, h_proj, ctx_mat, pad_at = (a[keep] for a in (live, best, s, h_proj, ctx_mat, pad_at))
            if not len(live):
                break
        y = T.Tensor(tv["tgt_emb"].data[best])
    return tokens


# ---------------------------------------------------------------------------
# checkpoint format
#
# Plain-text header of key=value lines (format, the ModelDims fields, seed,
# one partition tag per tensor), a blank line, then per tensor: name length
# (u32 LE), name bytes, rank (u32 LE), dims (u32 LE each), values as
# little-endian float32, row-major.

FORMAT = "attnalign-checkpoint-1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(params, path):
    """Write ``params`` to ``path`` atomically: the bytes go to a temporary
    file in the same directory, which then replaces ``path``, so a write
    that fails midway leaves any previous checkpoint intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        _write_checkpoint(params, tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_checkpoint(params, path):
    with open(path, "wb") as fh:
        header = [f"format={FORMAT}"]
        header += [f"{f.name}={getattr(params.dims, f.name)}" for f in fields(ModelDims)]
        header += [f"seed={params.seed}"]
        header += [f"partition.{n}={partition_of(n)}" for n in params.names()]
        fh.write(("\n".join(header) + "\n\n").encode("utf-8"))
        for name in params.names():
            arr = np.ascontiguousarray(params.tensors[name], dtype="<f4")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr)


def load_checkpoint(path):
    """The ModelParams saved at ``path``; any fault in the file raises
    ``CheckpointError("<path>: <reason>")``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse_checkpoint(blob)
    except ValueError as exc:  # CheckpointError, UnicodeDecodeError, ModelDims
        raise CheckpointError(f"{path}: {exc}") from None


def _parse_checkpoint(blob):
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise CheckpointError("missing header terminator")
    header = {}
    for line in blob[:sep].decode("utf-8").splitlines():
        key, eq, val = line.partition("=")
        if not eq:
            raise CheckpointError(f"malformed header line {line!r}")
        header[key] = val
    if header.get("format") != FORMAT:
        raise CheckpointError(f"unknown format {header.get('format')!r}")
    ints = {}
    for key in [f.name for f in fields(ModelDims)] + ["seed"]:
        try:
            ints[key] = int(header[key])
        except KeyError:
            raise CheckpointError(f"missing header key {key!r}") from None
        except ValueError:
            raise CheckpointError(f"{key} must be int, got {header[key]!r}") from None
    seed = ints.pop("seed")
    dims = ModelDims(**ints)

    off = sep + 2

    def take(n, what):
        nonlocal off
        if off + n > len(blob):
            raise CheckpointError(f"truncated {what} at offset {off}")
        off += n
        return blob[off - n : off]  # a copy: a memoryview slice may leave a payload unaligned

    expected = _tensor_shapes(dims)
    tensors = {}
    while off < len(blob):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name = take(name_len, "tensor name").decode("utf-8")
        if name not in expected:
            raise CheckpointError(f"unexpected tensor {name!r} at offset {off}")
        if name in tensors:
            raise CheckpointError(f"duplicate tensor {name!r} at offset {off}")
        (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name!r}"))
        if shape != expected[name]:
            raise CheckpointError(
                f"tensor {name!r}: header dims imply {expected[name]}, payload says {shape}"
            )
        if header.get(f"partition.{name}") != partition_of(name):
            raise CheckpointError(f"missing or bad partition tag for {name!r}")
        payload = take(4 * math.prod(shape), f"tensor {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float32)
    missing = set(expected) - set(tensors)
    if missing:
        raise CheckpointError(f"missing tensors: {sorted(missing)}")
    return ModelParams(dims, {name: tensors[name] for name in expected}, seed)
