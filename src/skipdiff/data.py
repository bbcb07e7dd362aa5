"""Tokenization, vocabulary, corpus loading, and batch encoding.

Batch layout per row: [source ids..., SEP, target ids..., EOS, PAD...].
The condition mask covers the source block through SEP inclusive, so the
separator is never noised; the pad mask covers the trailing padding.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import JsonlParseError, ParameterError, TruncationError
from .rng import RngStream

PAD, UNK, SEP, EOS = 0, 1, 2, 3
RESERVED = ("<pad>", "<unk>", "<sep>", "<eos>")


class Vocab:
    """Token <-> id bijection with four reserved ids."""

    def __init__(self, tokens: list[str]):
        self._id_to_token = list(RESERVED) + list(tokens)
        self._token_to_id = {tok: i for i, tok in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self._id_to_token)

    def id_of(self, token: str) -> int:
        return self._token_to_id.get(token, UNK)

    def token_of(self, idx: int) -> str:
        return self._id_to_token[idx]

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.id_of(t) for t in tokens]

    @property
    def tokens(self) -> list[str]:
        """Non-reserved tokens in id order (id = index + 4)."""
        return self._id_to_token[4:]


def tokenize(text: str, mode: str = "whitespace") -> list[str]:
    if mode == "whitespace":
        return text.lower().split()
    if mode == "char":
        return list(text)
    raise ParameterError(f"unknown tokenizer mode {mode!r}")


def detokenize(tokens: list[str], mode: str = "whitespace") -> str:
    """Text that ``tokenize`` in ``mode`` reads back as ``tokens``, when
    each whitespace token is lowercase without spaces, or each char token
    one character; a decoded marker such as ``<sep>`` has no one-character
    spelling and reads back in char mode as its five characters."""
    if mode == "whitespace":
        return " ".join(tokens)
    if mode == "char":
        return "".join(tokens)
    raise ParameterError(f"unknown tokenizer mode {mode!r}")


def build_vocab(corpus: list[list[str]], min_freq: int = 1) -> Vocab:
    """Frequency-then-lexicographic vocabulary over tokenized sentences."""
    if min_freq < 1:
        raise ParameterError(f"min_freq must be >= 1, got {min_freq}")
    if not corpus:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for tokens in corpus:
        counts.update(tokens)
    for token in RESERVED:    # a literal <unk> then encodes as UNK
        counts.pop(token, None)
    kept = sorted((t for t, c in counts.items() if c >= min_freq),
                  key=lambda t: (-counts[t], t))
    if not kept:
        warnings.warn("all tokens fell below min_freq; vocabulary holds only "
                      "reserved ids", stacklevel=2)
    return Vocab(kept)


@dataclass(frozen=True)
class SentencePair:
    """Source and target token sequences of one training example."""

    src: tuple[str, ...]
    tgt: tuple[str, ...]

    def __init__(self, src, tgt):
        if len(src) < 1 or len(tgt) < 1:
            raise ValueError("source and target must each hold at least one token")
        object.__setattr__(self, "src", tuple(src))
        object.__setattr__(self, "tgt", tuple(tgt))


@dataclass(frozen=True)
class EncodedBatch:
    """Token id matrix plus the condition and padding masks."""

    ids: np.ndarray            # int64 [B, L]
    condition_mask: np.ndarray  # bool [B, L], true on source block + SEP
    pad_mask: np.ndarray       # bool [B, L], true on padding

    @property
    def canvas_mask(self) -> np.ndarray:
        """The whole generation canvas after the condition block.

        Diffusion noises this entire region, trailing padding included, so
        the model learns to write PAD after EOS and generation inherits a
        length signal.
        """
        return ~self.condition_mask


def encode_pair(pair: SentencePair, vocab: Vocab, max_len: int) -> EncodedBatch:
    needed = len(pair.src) + len(pair.tgt) + 2
    if needed > max_len:
        raise TruncationError(
            f"pair needs {needed} positions but max_len is {max_len}")
    ids = np.full(max_len, PAD, dtype=np.int64)
    row = vocab.encode(list(pair.src)) + [SEP] + vocab.encode(list(pair.tgt)) + [EOS]
    ids[:len(row)] = row
    cond = np.zeros(max_len, dtype=bool)
    cond[:len(pair.src) + 1] = True
    pad = np.zeros(max_len, dtype=bool)
    pad[len(row):] = True
    return EncodedBatch(ids[None, :], cond[None, :], pad[None, :])


def encode_batch(pairs: list[SentencePair], vocab: Vocab, max_len: int) -> EncodedBatch:
    rows = [encode_pair(p, vocab, max_len) for p in pairs]
    return EncodedBatch(
        np.concatenate([r.ids for r in rows], axis=0),
        np.concatenate([r.condition_mask for r in rows], axis=0),
        np.concatenate([r.pad_mask for r in rows], axis=0),
    )


# Fields a model wrote. They may hold no tokens, and a decoded separator
# may appear in them; every source and reference needs at least one token
# and may not spell a marker the encoder adds itself.
_GENERATED = frozenset({"gen"})
_MARKERS = frozenset({RESERVED[PAD], RESERVED[SEP], RESERVED[EOS]})


def load_jsonl_fields(path, fields: tuple[str, ...],
                      mode: str = "whitespace") -> list[list[list[str]]]:
    """Tokenized columns of the named string fields, in file order.

    Every named field is required on every non-blank line; only the
    fields in ``_GENERATED`` may tokenize to nothing or hold the
    ``<pad>``, ``<sep>`` and ``<eos>`` markers. Errors name the file and
    the 1-based line.
    """
    columns: list[list[list[str]]] = [[] for _ in fields]
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JsonlParseError(path, lineno, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise JsonlParseError(path, lineno, "expected a JSON object")
            for field, column in zip(fields, columns):
                if field not in obj:
                    raise JsonlParseError(path, lineno, f"missing field {field!r}")
                if not isinstance(obj[field], str):
                    raise JsonlParseError(path, lineno, f"field {field!r} must be a string")
                tokens = tokenize(obj[field], mode)
                if field not in _GENERATED:
                    if not tokens:
                        raise JsonlParseError(
                            path, lineno, f"field {field!r} is empty after tokenization")
                    marker = next((t for t in tokens if t in _MARKERS), None)
                    if marker is not None:
                        raise JsonlParseError(
                            path, lineno, f"field {field!r} holds the reserved token {marker!r}")
                column.append(tokens)
    return columns


def load_jsonl(path, mode: str = "whitespace") -> list[SentencePair]:
    """Order-preserving corpus load of ``src``/``trg`` pairs."""
    srcs, tgts = load_jsonl_fields(path, ("src", "trg"), mode)
    return [SentencePair(src, tgt) for src, tgt in zip(srcs, tgts)]


def save_jsonl(path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def synthetic_vocab(vocab_size: int) -> Vocab:
    """Canonical vocabulary for generated tasks; token order is id order."""
    if vocab_size < 2:
        raise ParameterError(f"vocab_size must be >= 2, got {vocab_size}")
    return Vocab([f"w{i:02d}" for i in range(vocab_size)])


SYNTHETIC_TASKS = ("copy", "reverse", "sort")


def generate_synthetic(task: str, count: int, vocab_size: int,
                       len_range: tuple[int, int], rng: RngStream) -> list[SentencePair]:
    """Deterministic toy Seq2Seq corpora of controllable difficulty.

    copy repeats the source, reverse flips it, sort orders it by canonical
    token id; difficulty rises in that order.
    """
    if task not in SYNTHETIC_TASKS:
        raise ParameterError(f"unknown task {task!r}; expected one of {SYNTHETIC_TASKS}")
    if vocab_size < 2:
        raise ParameterError(f"vocab_size must be >= 2, got {vocab_size}")
    lo, hi = len_range
    if lo < 1 or hi < lo:
        raise ParameterError(f"invalid len_range {len_range}")
    vocab = synthetic_vocab(vocab_size)
    names = vocab.tokens
    pairs = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        src = [names[int(i)] for i in rng.integers(0, vocab_size, (n,))]
        if task == "copy":
            tgt = list(src)
        elif task == "reverse":
            tgt = src[::-1]
        else:
            tgt = sorted(src)
        pairs.append(SentencePair(src, tgt))
    return pairs
