"""Parallel corpus ingestion: vocabularies, integer encoding, Pharaoh
alignment parsing, and deterministic mini-batching.

Inputs are pre-tokenized UTF-8 text, one sentence per line, whitespace
separated. Sentences get an eos token appended on both sides. Alignments
come in Pharaoh "i-j" format, 0-indexed, one line per sentence pair.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .supervision import HardAlignment

log = logging.getLogger(__name__)

PAD_ID = 0
EOS_ID = 1
UNK_ID = 2

PAD_TOKEN = "<pad>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"

RESERVED = [PAD_TOKEN, EOS_TOKEN, UNK_TOKEN]


class Vocab:
    """Token <-> id map with reserved ids pad=0, eos=1, unk=2."""

    def __init__(self, tokens=()):
        self.id_to_token = list(RESERVED)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        for tok in tokens:
            self.add(tok)

    def add(self, token):
        if token in self.token_to_id:
            return self.token_to_id[token]
        if token in RESERVED:
            raise ValueError(f"reserved token {token!r} cannot be re-added")
        idx = len(self.id_to_token)
        self.id_to_token.append(token)
        self.token_to_id[token] = idx
        return idx

    def __len__(self):
        return len(self.id_to_token)

    def encode_token(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def encode(self, tokens):
        return [self.encode_token(t) for t in tokens]

    def decode(self, ids):
        return [self.id_to_token[i] for i in ids]

    def save(self, path):
        # one non-reserved token per line: line number = id - 3
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token[len(RESERVED):]:
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path):
        vocab = cls()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                tok = line.rstrip("\n")
                if tok:
                    vocab.add(tok)
        return vocab


def build_vocab(path, max_size):
    """Most-frequent tokens up to max_size; ties broken by first occurrence."""
    counts = Counter()
    first_seen = {}
    n_lines = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if tokens:
                n_lines += 1
            for tok in tokens:
                counts[tok] += 1
                if tok not in first_seen:
                    first_seen[tok] = len(first_seen)
    if n_lines == 0:
        raise ValueError(f"empty corpus: {path}")
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    return Vocab(ranked[:max_size])


@dataclass
class SentencePair:
    """Integer-encoded pair; both sides end in eos."""

    src_ids: list
    tgt_ids: list
    pair_index: int = 0

    def __post_init__(self):
        if not self.src_ids or self.src_ids[-1] != EOS_ID:
            raise ValueError("source must be non-empty and end in eos")
        if not self.tgt_ids or self.tgt_ids[-1] != EOS_ID:
            raise ValueError("target must be non-empty and end in eos")

    @property
    def src_len(self):
        return len(self.src_ids)

    @property
    def tgt_len(self):
        return len(self.tgt_ids)


def encode_pair(src_line, tgt_line, src_vocab, tgt_vocab, pair_index=0):
    """Encode one line pair, appending eos; None if either side is empty."""
    src_tokens = src_line.split()
    tgt_tokens = tgt_line.split()
    if not src_tokens or not tgt_tokens:
        return None
    return SentencePair(
        src_vocab.encode(src_tokens) + [EOS_ID],
        tgt_vocab.encode(tgt_tokens) + [EOS_ID],
        pair_index,
    )


def load_parallel(src_path, tgt_path, src_vocab, tgt_vocab, max_len=50):
    """Line-aligned corpus -> SentencePairs; empty or over-long pairs skipped.

    Returns (pairs, kept_line_numbers); kept_line_numbers are the 0-based
    input lines retained, so callers can subset a parallel alignment file.
    """
    with open(src_path, encoding="utf-8") as fh:
        src_lines = fh.read().splitlines()
    with open(tgt_path, encoding="utf-8") as fh:
        tgt_lines = fh.read().splitlines()
    if len(src_lines) != len(tgt_lines):
        raise ValueError(
            f"line count mismatch: {src_path} has {len(src_lines)}, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    pairs, kept = [], []
    skipped_empty = skipped_long = 0
    for n, (s, t) in enumerate(zip(src_lines, tgt_lines)):
        pair = encode_pair(s, t, src_vocab, tgt_vocab, pair_index=len(pairs))
        if pair is None:
            skipped_empty += 1
            continue
        if max_len is not None and (pair.src_len - 1 > max_len or pair.tgt_len - 1 > max_len):
            skipped_long += 1
            continue
        pairs.append(pair)
        kept.append(n)
    if skipped_empty:
        log.warning("skipped %d pairs with an empty side", skipped_empty)
    if skipped_long:
        log.warning("skipped %d pairs longer than %d tokens", skipped_long, max_len)
    return pairs, kept


# ---------------------------------------------------------------------------
# Pharaoh alignments


def parse_pharaoh_token(tok, flip=False):
    """One Pharaoh "i-j" token -> 0-indexed (source, target) positions."""
    try:
        a, b = map(int, tok.split("-"))
    except ValueError:
        raise ValueError(f"malformed alignment token {tok!r}") from None
    return (b, a) if flip else (a, b)


def parse_pharaoh(line, src_len, tgt_len, flip=False):
    """Parse one Pharaoh line into a HardAlignment.

    ``src_len`` and ``tgt_len`` exclude eos; the returned grid is
    (tgt_len+1) x (src_len+1) with the eos row/column present but untouched.
    Pairs are "i-j" with i the source index and j the target index,
    0-indexed (``flip`` swaps the convention). Duplicates collapse.
    """
    links = set()
    for tok in line.split():
        i, j = parse_pharaoh_token(tok, flip)
        if not (0 <= i < src_len and 0 <= j < tgt_len):
            raise ValueError(
                f"alignment link {tok!r} outside {src_len}x{tgt_len} sentence"
            )
        links.add((j + 1, i + 1))
    return HardAlignment(tgt_len + 1, src_len + 1, links)


def format_pharaoh(alignment_or_links, flip=False):
    """Links back to a Pharaoh line (eos row/column links are dropped)."""
    if isinstance(alignment_or_links, HardAlignment):
        m, l = alignment_or_links.m, alignment_or_links.l
        links = {(t, i) for t, i in alignment_or_links.links if t < m and i < l}
    else:
        links = set(alignment_or_links)
    out = []
    for t, i in sorted(links, key=lambda p: (p[1], p[0])):
        a, b = i - 1, t - 1
        if flip:
            a, b = b, a
        out.append(f"{a}-{b}")
    return " ".join(out)


def load_pharaoh_file(path, pairs, flip=False):
    """One HardAlignment per retained SentencePair (line-aligned file)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    alignments = []
    for pair in pairs:
        n = pair.pair_index
        if n >= len(lines):
            raise ValueError(f"alignment file {path} has too few lines")
        try:
            alignments.append(
                parse_pharaoh(lines[n], pair.src_len - 1, pair.tgt_len - 1, flip=flip)
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{n + 1}: {exc}") from None
    return alignments


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    pairs: list
    src_mask: np.ndarray
    tgt_mask: np.ndarray
    supervision: list = None

    def __len__(self):
        return len(self.pairs)


def _masks(pairs):
    max_l = max(p.src_len for p in pairs)
    max_m = max(p.tgt_len for p in pairs)
    src_mask = np.zeros((len(pairs), max_l), dtype=np.int8)
    tgt_mask = np.zeros((len(pairs), max_m), dtype=np.int8)
    for k, p in enumerate(pairs):
        src_mask[k, : p.src_len] = 1
        tgt_mask[k, : p.tgt_len] = 1
    return src_mask, tgt_mask


def make_batches(pairs, batch_size, bucket_by_length=False, seed=0, supervision=None):
    """Deterministic batch list; optional length bucketing by source length.

    ``supervision``, when given, is indexed positionally parallel to
    ``pairs`` and carried into each batch.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if supervision is not None and len(supervision) != len(pairs):
        raise ValueError("supervision list must parallel the pair list")
    order = list(range(len(pairs)))
    rng = random.Random(seed)
    rng.shuffle(order)
    if bucket_by_length:
        order.sort(key=lambda k: pairs[k].src_len)
    chunks = [order[k : k + batch_size] for k in range(0, len(order), batch_size)]
    rng.shuffle(chunks)
    batches = []
    for chunk in chunks:
        chunk_pairs = [pairs[k] for k in chunk]
        src_mask, tgt_mask = _masks(chunk_pairs)
        sup = [supervision[k] for k in chunk] if supervision is not None else None
        batches.append(Batch(chunk_pairs, src_mask, tgt_mask, sup))
    return batches
