import json

import numpy as np
import pytest

from oracles import decode_row
from skipdiff.data import (EOS, PAD, RESERVED, SEP, UNK, SentencePair,
                           build_vocab, encode_batch, generate_synthetic, load_jsonl,
                           load_jsonl_fields, synthetic_vocab, tokenize)
from skipdiff.errors import JsonlParseError, TruncationError
from skipdiff.rng import RngStream


def test_tokenize_whitespace_lowercases():
    assert tokenize("Is it possible") == ["is", "it", "possible"]


def test_tokenize_char():
    assert tokenize("abc", mode="char") == ["a", "b", "c"]


def test_tokenize_collapses_spaces():
    assert tokenize("a  b") == ["a", "b"]


def test_build_vocab_frequency_sort():
    vocab = build_vocab([["a", "a", "b"]], min_freq=1)
    assert vocab.id_of("a") == 4
    assert vocab.id_of("b") == 5


def test_build_vocab_threshold():
    vocab = build_vocab([["a", "a", "b"]], min_freq=2)
    assert vocab.tokens == ["a"]


def test_build_vocab_degenerate_warns():
    with pytest.warns(UserWarning):
        vocab = build_vocab([["a", "b"]], min_freq=5)
    assert len(vocab) == 4


def test_encode_pair_layout():
    vocab = build_vocab([["a", "b"]])
    a, b = vocab.id_of("a"), vocab.id_of("b")
    # a training row, then a generation row (a bare source) with an unknown word
    batch = encode_batch([SentencePair(["a"], ["b"]), ["zz", "b"]], vocab, max_len=6)
    assert batch.ids.tolist() == [[a, SEP, b, EOS, PAD, PAD],
                                  [UNK, b, SEP, PAD, PAD, PAD]]
    assert batch.condition_mask.tolist() == [[True, True, False, False, False, False],
                                             [True, True, True, False, False, False]]
    # a generation row's canvas is open, not padding
    assert batch.pad_mask.tolist() == [[False, False, False, False, True, True],
                                       [False] * 6]


def test_encode_pair_unknown_token():
    vocab = build_vocab([["a"]])
    batch = encode_batch([SentencePair(["zz"], ["a"]), SentencePair(["a"], ["zz"]),
                          ["zz"]], vocab, max_len=8)
    assert batch.ids[0, 0] == UNK
    assert batch.ids[1, 2] == UNK
    assert batch.ids[2, 0] == UNK


def test_encode_pair_exact_fit():
    vocab = build_vocab([["a", "b"]])
    # a generation row fits with one canvas position
    batch = encode_batch([SentencePair(["a", "b"], ["b"]), ["a", "b", "zz"]], vocab,
                         max_len=5)
    assert not batch.pad_mask.any()
    assert batch.canvas_mask[1].tolist() == [False] * 4 + [True]


def test_encode_pair_overflow_raises():
    vocab = build_vocab([["a"]])
    with pytest.raises(TruncationError) as err:
        encode_batch([SentencePair(["a", "a", "a"], ["a"])], vocab, max_len=5)
    assert str(err.value) == "pair 1 needs 6 positions but max_len is 5"
    # a generation row needs its source, SEP and one canvas position
    with pytest.raises(TruncationError) as err:
        encode_batch([["a"], ["a", "zz", "a", "a"]], vocab, 5, "corpus.jsonl")
    assert str(err.value) == "corpus.jsonl: pair 2 needs 6 positions but max_len is 5"


def test_rows_of_an_encoding_equal_the_encoding_of_those_rows():
    vocab = synthetic_vocab(9)
    pairs = generate_synthetic("copy", 12, 9, (1, 5), RngStream(7))
    batch = encode_batch(pairs, vocab, max_len=12)
    for index in (np.array([3, 0, 11, 3]), slice(4, 9), np.array([], dtype=np.int64)):
        picked = batch.rows(index)
        alone = encode_batch([pairs[i] for i in np.arange(12)[index]], vocab, 12)
        for field in ("ids", "condition_mask", "pad_mask"):
            assert np.array_equal(getattr(picked, field), getattr(alone, field))


def test_roundtrip_identity():
    rng = RngStream(5)
    vocab = synthetic_vocab(12)
    pairs = generate_synthetic("reverse", 25, 12, (1, 6), rng)
    # each source again as a generation row, and one with an unknown word
    srcs = [p.src for p in pairs] + [("w03", "zz", "w11")]
    batch = encode_batch([*pairs, *srcs], vocab, max_len=16)
    for i, pair in enumerate(pairs):
        src, tgt = decode_row(batch, i, vocab)
        assert tuple(src) == pair.src
        assert tuple(tgt) == pair.tgt
    for i, source in enumerate(srcs, start=len(pairs)):
        src, canvas = decode_row(batch, i, vocab)
        assert src == [t if t in vocab.tokens else RESERVED[UNK] for t in source]
        assert canvas == [RESERVED[PAD]] * (16 - len(source) - 1)


def test_condition_mask_is_prefix_block():
    rng = RngStream(6)
    pairs = generate_synthetic("sort", 40, 9, (1, 5), rng)
    # the sources again as generation rows, and one with an unknown word
    rows = [*pairs, *(p.src for p in pairs), ["zz", "w01"]]
    batch = encode_batch(rows, synthetic_vocab(9), max_len=14)
    for row in range(len(batch.ids)):
        cond = batch.condition_mask[row]
        pad = batch.pad_mask[row]
        # condition block, then target block, then padding
        flips = np.flatnonzero(np.diff(cond.astype(int)))
        assert len(flips) == 1 and cond[0]
        assert not np.any(pad[:flips[0] + 1])
        assert np.all(batch.ids[row][pad] == PAD)


def test_load_jsonl_basic(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"src": "a b", "trg": "c"}\n')
    pairs = load_jsonl(path)
    assert pairs[0].src == ("a", "b")
    assert pairs[0].tgt == ("c",)


def test_load_jsonl_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    assert load_jsonl(path) == []


def test_load_jsonl_missing_field_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"src": "a", "trg": "b"}\n{"src": "a"}\n')
    with pytest.raises(JsonlParseError) as err:
        load_jsonl(path)
    assert err.value.line_number == 2
    assert "trg" in str(err.value)
    assert str(err.value).startswith(f"{path}:2: ")


def test_load_jsonl_bad_json_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"src": "a", "trg": "b"}\nnot json\n')
    with pytest.raises(JsonlParseError) as err:
        load_jsonl(path)
    assert err.value.line_number == 2
    assert str(err.value).startswith(f"{path}:2: ")


def test_load_jsonl_fields_only_gen_may_be_empty(tmp_path):
    path = tmp_path / "g.jsonl"
    path.write_text('{"src": "a b", "gen": ""}\n')
    assert load_jsonl_fields(path, ("src", "gen")) == [[["a", "b"]], [[]]]
    path.write_text('{"src": " ", "gen": "a"}\n')
    with pytest.raises(JsonlParseError) as err:
        load_jsonl_fields(path, ("src", "gen"))
    assert str(err.value).startswith(f"{path}:1: ") and "src" in str(err.value)


@pytest.mark.parametrize("marker", ["<pad>", "<sep>", "<EOS>"])
@pytest.mark.parametrize("field", ["src", "trg", "ref"])
def test_load_jsonl_fields_rejects_reserved_markers_with_a_location(tmp_path, field, marker):
    path = tmp_path / "c.jsonl"
    row = {"src": "a b", "trg": "c", "ref": "c"}
    lines = ['{"src": "a", "trg": "b", "ref": "b"}',
             json.dumps({**row, field: f"a {marker} b"})]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JsonlParseError) as err:
        load_jsonl_fields(path, ("src", "trg", "ref"))
    assert str(err.value).startswith(f"{path}:2: ")
    assert repr(field) in str(err.value) and repr(marker.lower()) in str(err.value)


def test_load_jsonl_fields_lets_gen_hold_markers_and_any_field_unk(tmp_path):
    # a generation may decode the separator; <unk> is an ordinary unknown token
    path = tmp_path / "g.jsonl"
    path.write_text('{"src": "a <unk>", "gen": "b <sep> <unk>"}\n')
    assert load_jsonl_fields(path, ("src", "gen")) == [
        [["a", "<unk>"]], [["b", "<sep>", "<unk>"]]]


def test_build_vocab_leaves_out_reserved_tokens():
    vocab = build_vocab([["a", "<unk>", "<unk>", "<sep>"], ["<pad>", "<eos>"]])
    assert vocab.tokens == ["a"]
    assert vocab.encode(["<unk>", "a"]) == [UNK, 4]


def test_synthetic_copy():
    pairs = generate_synthetic("copy", 10, 6, (3, 3), RngStream(1))
    for p in pairs:
        assert p.tgt == p.src


def test_synthetic_reverse():
    pairs = generate_synthetic("reverse", 10, 6, (4, 4), RngStream(2))
    for p in pairs:
        assert p.tgt == tuple(reversed(p.src))


def test_synthetic_sort_matches_oracle():
    vocab = synthetic_vocab(8)
    pairs = generate_synthetic("sort", 20, 8, (2, 7), RngStream(3))
    for p in pairs:
        by_id = sorted(p.src, key=vocab.id_of)
        assert list(p.tgt) == by_id
        assert list(p.tgt) == sorted(p.src)


def test_synthetic_deterministic():
    a = generate_synthetic("sort", 5, 8, (2, 6), RngStream(77))
    b = generate_synthetic("sort", 5, 8, (2, 6), RngStream(77))
    assert a == b
