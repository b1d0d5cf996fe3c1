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
# Reserved tokens that may not appear in text: either would put its id at a
# real position. A literal <unk> maps to the unk id like any unknown word.
NOT_IN_TEXT = (PAD_TOKEN, EOS_TOKEN)


class Vocab:
    """Token <-> id map: the reserved ids pad=0, eos=1, unk=2, then
    ``tokens`` in order, a repeated token keeping its first id. A reserved
    token among ``tokens`` is an error."""

    def __init__(self, tokens=()):
        self.id_to_token = RESERVED + list(dict.fromkeys(tokens))
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) < len(self.id_to_token):
            token = next(t for t in self.id_to_token[len(RESERVED):] if t in RESERVED)
            raise ValueError(f"reserved token {token!r} cannot be re-added")

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
        """The vocabulary ``save`` wrote: empty lines are skipped, a repeated
        token keeps its first id, and a reserved token, a line that is not
        one token (it holds whitespace, so no text token could match it) or
        a file without a token is an error."""
        lines = read_lines(path)
        for lineno, line in enumerate(lines, 1):
            if line in RESERVED:
                raise ValueError(f"{path}:{lineno}: reserved token {line!r} in a vocabulary file")
            if line and line.split() != [line]:
                raise ValueError(f"{path}:{lineno}: {line!r} is not one token without whitespace")
        if not any(lines):
            raise ValueError(f"{path}: empty vocabulary")
        return cls(t for t in lines if t)


def check_text_tokens(path, lineno, tokens):
    """Reject a line of text tokens holding a literal <pad> or <eos>, as
    ``path:lineno: reserved token '<eos>'`` for the first one."""
    found = [tokens.index(t) for t in NOT_IN_TEXT if t in tokens]
    if found:
        raise ValueError(f"{path}:{lineno}: reserved token {tokens[min(found)]!r}")


def build_vocab(path, max_size):
    """Most-frequent tokens up to max_size; ties broken by first occurrence.
    A literal <unk> is not counted, and a literal <pad> or <eos> is an
    error."""
    counts = Counter()  # in order of first occurrence
    lines = read_lines(path)
    for line in lines:
        counts.update(line.split())
    if not counts:
        raise ValueError(f"empty corpus: {path}")
    if any(t in counts for t in NOT_IN_TEXT):
        for lineno, line in enumerate(lines, 1):
            check_text_tokens(path, lineno, line.split())
    counts.pop(UNK_TOKEN, None)
    ranked = sorted(counts, key=counts.__getitem__, reverse=True)  # stable: ties keep that order
    return Vocab(ranked[:max_size])


@dataclass
class SentencePair:
    """Integer-encoded pair; both sides end in eos. ``pair_index`` is the
    0-based input line the pair came from."""

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


def encode_line(path, lineno, line, vocab):
    """Line ``lineno`` of the text file ``path`` -> its token ids plus eos,
    or None if it holds no token. A literal <pad> or <eos> raises
    ``path:lineno: reserved token '<eos>'``."""
    tokens = line.split()
    if "<" in line:
        check_text_tokens(path, lineno, tokens)
    return vocab.encode(tokens) + [EOS_ID] if tokens else None


def read_lines(path):
    """A UTF-8 text file's lines without their ends, as iterating over the
    file splits them: at "\\n", "\\r\\n" or "\\r" only, so a U+2028 or a
    form feed stays inside its line. The first line that is not UTF-8
    raises ``path:line: not UTF-8``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    blob = blob.replace(b"\r\n", b"\n").replace(b"\r", b"\n")  # no multibyte character holds either
    try:
        lines = blob.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        lineno = blob.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8") from None
    if not lines[-1]:
        lines.pop()  # the end of the last line, or an empty file
    return lines


def read_line_pair(*paths):
    """The lines of line-aligned files, which must all have as many lines."""
    lines = [read_lines(path) for path in paths]
    if len({len(x) for x in lines}) > 1:
        counts = ", ".join(f"{path} has {len(x)}" for path, x in zip(paths, lines))
        raise ValueError(f"line count mismatch: {counts}")
    return lines


def load_parallel(src_path, tgt_path, src_vocab, tgt_vocab, max_len=50):
    """Line-aligned corpus -> SentencePairs, both sides through
    ``encode_line``, source first; empty or over-long pairs skipped.

    Returns (pairs, line count, (pairs skipped for an empty side, pairs
    skipped as longer than max_len)); each pair's ``pair_index`` is its
    0-based input line, so callers can subset a parallel alignment file.
    """
    src_lines, tgt_lines = read_line_pair(src_path, tgt_path)
    pairs = []
    skipped_empty = skipped_long = 0
    for n, (s, t) in enumerate(zip(src_lines, tgt_lines)):
        src_ids = encode_line(src_path, n + 1, s, src_vocab)
        tgt_ids = encode_line(tgt_path, n + 1, t, tgt_vocab)
        if src_ids is None or tgt_ids is None:
            skipped_empty += 1
        elif max_len is not None and max(len(src_ids), len(tgt_ids)) - 1 > max_len:
            skipped_long += 1
        else:
            pairs.append(SentencePair(src_ids, tgt_ids, n))
    if skipped_empty:
        log.warning("skipped %d pairs with an empty side", skipped_empty)
    if skipped_long:
        log.warning("skipped %d pairs longer than %d tokens", skipped_long, max_len)
    return pairs, len(src_lines), (skipped_empty, skipped_long)


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


def format_pharaoh(links, flip=False):
    """1-indexed (t, i) links back to a Pharaoh line."""
    out = []
    for t, i in sorted(links, key=lambda p: (p[1], p[0])):
        a, b = i - 1, t - 1
        if flip:
            a, b = b, a
        out.append(f"{a}-{b}")
    return " ".join(out)


def load_pharaoh_file(path, pairs, n_lines, flip=False):
    """One HardAlignment per retained SentencePair, read from the line its
    ``pair_index`` names; the file must have the corpus's ``n_lines``
    lines."""
    lines = read_lines(path)
    if len(lines) != n_lines:
        raise ValueError(f"line count mismatch: {path} has {len(lines)}, the corpus has {n_lines}")
    alignments = []
    for pair in pairs:
        n = pair.pair_index
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
    """Pairs padded into (B, L) source and (B, M) target id arrays, PAD_ID
    past each end; the masks are 1 on real tokens."""

    pairs: list
    src_ids: np.ndarray
    tgt_ids: np.ndarray
    src_mask: np.ndarray
    tgt_mask: np.ndarray
    supervision: list = None

    def __len__(self):
        return len(self.pairs)


def pad(seqs):
    """Id lists -> (ids, mask), both (len(seqs), longest): PAD_ID and 0
    past the end of each list."""
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), PAD_ID, dtype=np.intp)
    mask = np.zeros((len(seqs), width), dtype=np.int8)
    for k, s in enumerate(seqs):
        ids[k, : len(s)] = s
        mask[k, : len(s)] = 1
    return ids, mask


def make_batch(pairs, supervision=None):
    src_ids, src_mask = pad([p.src_ids for p in pairs])
    tgt_ids, tgt_mask = pad([p.tgt_ids for p in pairs])
    return Batch(list(pairs), src_ids, tgt_ids, src_mask, tgt_mask, supervision)


def make_batches(pairs, batch_size, seed=0, supervision=None):
    """Deterministic batch list, bucketed by source length: a seeded
    shuffle, stably sorted by length, cut into batches shuffled again.

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
    order.sort(key=lambda k: pairs[k].src_len)
    chunks = [order[k : k + batch_size] for k in range(0, len(order), batch_size)]
    rng.shuffle(chunks)
    batches = []
    for chunk in chunks:
        sup = [supervision[k] for k in chunk] if supervision is not None else None
        batches.append(make_batch([pairs[k] for k in chunk], sup))
    return batches
