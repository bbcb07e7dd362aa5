import re

import numpy as np
import pytest

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
