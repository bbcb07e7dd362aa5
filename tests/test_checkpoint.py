import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from skipdiff import checkpoint
from skipdiff.checkpoint import load_checkpoint, save_checkpoint
from skipdiff.errors import ConfigError
from skipdiff.rng import RngStream


def test_roundtrip_bit_exact(tmp_path):
    rng = RngStream(7)
    params = {
        "emb": rng.normal((5, 3)) * 1e6,
        "tiny": rng.normal((2,)) * 1e-300,
        "block0.w": rng.normal((4, 4)),
    }
    path = tmp_path / "model.bin"
    save_checkpoint(path, "exploiter", {"layers": 2}, params,
                    ["a", "b"], dataset_tag="toy")
    ck = load_checkpoint(path)
    assert ck.kind == "exploiter"
    assert ck.config == {"layers": 2}
    assert ck.vocab_tokens == ["a", "b"]
    assert ck.dataset_tag == "toy"
    assert set(ck.params) == set(params)
    for name in params:
        assert ck.params[name].tobytes() == params[name].tobytes()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner), max_leaves=8)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
WEIGHTS = st.dictionaries(
    st.text(), hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=FINITE)), max_size=4)


@settings(max_examples=60, deadline=None)
@given(kind=st.text(), config=st.dictionaries(st.text(), JSON), params=WEIGHTS,
       vocab=st.lists(st.text()), tag=st.text(), data=st.data())
def test_roundtrip_property(kind, config, params, vocab, tag, data):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = os.path.join(tmp, "a.bin"), os.path.join(tmp, "b.bin")
        save_checkpoint(path, kind, config, params, vocab, tag)
        ck = load_checkpoint(path)
        assert (ck.kind, ck.config, ck.vocab_tokens, ck.dataset_tag) == (
            kind, config, vocab, tag)
        assert ck.params.keys() == params.keys()
        for name, arr in params.items():
            assert ck.params[name].shape == arr.shape
            assert ck.params[name].tobytes() == arr.tobytes()
        save_checkpoint(again, ck.kind, ck.config, ck.params, ck.vocab_tokens,
                        ck.dataset_tag)
        assert open(again, "rb").read() == open(path, "rb").read()
        sized = [name for name, arr in params.items() if arr.size]
        if sized:
            name = data.draw(st.sampled_from(sized))
            bad = params[name].copy()
            bad.flat[data.draw(st.integers(0, bad.size - 1))] = data.draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
            with pytest.raises(ValueError):
                save_checkpoint(path, kind, config, {**params, name: bad}, vocab, tag)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, "scheduler", {}, {"w": np.zeros(2)}, [], "")
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError):
        load_checkpoint(path)


def test_nonfinite_weights_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.bin", "exploiter", {},
                        {"w": np.array([1.0, np.nan])}, [], "")


def test_file_layout_is_pinned(tmp_path):
    path = tmp_path / "w.bin"
    save_checkpoint(path, "scheduler", {}, {"w": np.array([1.0])}, [], "")
    header = (b'{"blobs": [{"name": "w", "nbytes": 8, "offset": 0, "shape": [1]}], '
              b'"config": {}, "dataset": "", "kind": "scheduler", "vocab": []}')
    assert path.read_bytes() == (b"SKPD" + b"\x01\x00\x00\x00"
                                 + len(header).to_bytes(8, "little") + header
                                 + b"\x00\x00\x00\x00\x00\x00\xf0\x3f")


@pytest.mark.parametrize("keep", [-8, 20, 10], ids=["blob-cut", "header-cut",
                                                   "prefix-cut"])
def test_truncated_file_names_its_path(tmp_path, keep):
    path = tmp_path / "model.bin"
    save_checkpoint(path, "scheduler", {}, {"a": np.zeros(3), "b": np.ones(2)}, [], "")
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ConfigError, match=re.escape(f"{path}: truncated checkpoint")):
        load_checkpoint(path)


def test_blob_size_must_match_its_shape(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, "scheduler", {}, {"a": np.zeros(3)}, [], "")
    raw = path.read_bytes().replace(b'"shape": [3]', b'"shape": [2]')
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match="do not hold shape"):
        load_checkpoint(path)


def test_failed_save_keeps_the_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    save_checkpoint(path, "scheduler", {}, {"w": np.zeros(2)}, [], "")
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError):
        save_checkpoint(path, "scheduler", {}, {"w": np.ones(2)}, [], "")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]


def write_with_header(path, header: bytes, payload: bytes = b"") -> None:
    path.write_bytes(b"SKPD" + b"\x01\x00\x00\x00" + len(header).to_bytes(8, "little")
                     + header + payload)


GOOD_HEADER = {"blobs": [{"name": "w", "nbytes": 8, "offset": 0, "shape": [1]}],
               "config": {}, "dataset": "", "kind": "scheduler", "vocab": []}


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


def _blob(**fields) -> dict:
    return {**GOOD_HEADER, "blobs": [{**GOOD_HEADER["blobs"][0], **fields}]}


@pytest.mark.parametrize("header, message", [
    ([], "header is not a JSON object"),
    (_without(GOOD_HEADER, "blobs"), "header needs 'blobs' as a list"),
    ({**GOOD_HEADER, "config": []}, "header needs 'config' as a dict"),
    ({**GOOD_HEADER, "kind": True}, "header needs 'kind' as a str"),
    ({**GOOD_HEADER, "vocab": ["a", 3]}, "vocabulary holds a non-string"),
    ({**GOOD_HEADER, "blobs": [_without(GOOD_HEADER["blobs"][0], "shape")]},
     "blob 0 is not"),
    (_blob(shape=[-1]), "blob 0 is not"),
    (_blob(nbytes=8.0), "blob 0 is not"),
    (_blob(offset=True), "blob 0 is not"),
], ids=["not-object", "no-blobs", "config-list", "kind-bool", "vocab-int",
        "no-shape", "negative-size", "float-nbytes", "bool-offset"])
def test_header_contents_are_checked(tmp_path, header, message):
    path = tmp_path / "model.bin"
    write_with_header(path, json.dumps(header).encode(), b"\x00" * 8)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: checkpoint {message}")):
        load_checkpoint(path)


def test_hand_written_good_header_loads(tmp_path):
    path = tmp_path / "model.bin"
    write_with_header(path, json.dumps(GOOD_HEADER).encode(),
                      b"\x00\x00\x00\x00\x00\x00\xf0\x3f")
    assert load_checkpoint(path).params["w"].tolist() == [1.0]
