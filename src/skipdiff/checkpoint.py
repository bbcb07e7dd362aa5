"""Versioned binary checkpoint container.

Layout: 4-byte magic, u32 format version, u64 JSON header length, UTF-8
JSON header, then named float64 little-endian weight blobs in header
order. Weights round-trip bit-exactly. Saves replace the target file
atomically; loads check the header's keys and value types, and every length
against the file size.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

MAGIC = b"SKPD"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    kind: str                    # "exploiter" | "scheduler"
    config: dict
    params: dict[str, np.ndarray]
    vocab_tokens: list[str]
    dataset_tag: str


def save_checkpoint(path, kind: str, config: dict,
                    params: dict[str, np.ndarray],
                    vocab_tokens: list[str], dataset_tag: str = "") -> None:
    blobs = []
    payload = bytearray()
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64, order="C")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"weight {name!r} contains non-finite values")
        blobs.append({"name": name, "shape": list(arr.shape),
                      "offset": len(payload), "nbytes": arr.nbytes})
        payload.extend(arr.tobytes(order="C"))
    header = json.dumps({
        "kind": kind,
        "config": config,
        "vocab": list(vocab_tokens),
        "dataset": dataset_tag,
        "blobs": blobs,
    }, sort_keys=True).encode("utf-8")
    # Write a temp file beside the target, then rename it over the target: a
    # reader sees the old file or the whole new one, never a partial write.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            fh.write(bytes(payload))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# The header's keys and the exact JSON type of each value.
_HEADER = {"kind": str, "config": dict, "vocab": list, "dataset": str, "blobs": list}
_BLOB = {"name": str, "shape": list, "offset": int, "nbytes": int}


def _check_header(path, header) -> None:
    if type(header) is not dict:
        raise ConfigError(f"{path}: checkpoint header is not a JSON object")
    for key, kind in _HEADER.items():
        if type(header.get(key)) is not kind:
            raise ConfigError(f"{path}: checkpoint header needs {key!r} as a "
                              f"{kind.__name__}, got {header.get(key)!r:.60}")
    if not all(type(token) is str for token in header["vocab"]):
        raise ConfigError(f"{path}: checkpoint vocabulary holds a non-string")
    for i, blob in enumerate(header["blobs"]):
        if (type(blob) is not dict
                or any(type(blob.get(k)) is not t for k, t in _BLOB.items())
                or not all(type(d) is int and d >= 0 for d in blob["shape"])
                or blob["offset"] < 0 or blob["nbytes"] < 0):
            raise ConfigError(f"{path}: checkpoint blob {i} is not a name, a shape "
                              f"of sizes, an offset and a byte count: {blob!r:.80}")


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
    if len(raw) < 16:
        raise ConfigError(f"{path}: truncated checkpoint ({len(raw)} bytes)")
    version, header_len = struct.unpack_from("<IQ", raw, 4)
    if version != FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported format version {version}")
    base = 16 + header_len
    if base > len(raw):
        raise ConfigError(f"{path}: truncated checkpoint: header ends at byte "
                          f"{base}, file has {len(raw)}")
    try:
        header = json.loads(raw[16:base].decode("utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: unreadable checkpoint header: {exc}") from exc
    _check_header(path, header)
    params = {}
    for blob in header["blobs"]:
        start = base + blob["offset"]
        nbytes = blob["nbytes"]
        if nbytes != 8 * math.prod(blob["shape"]):
            raise ConfigError(f"{path}: weight {blob['name']!r}: {nbytes} bytes "
                              f"do not hold shape {blob['shape']}")
        if start + nbytes > len(raw):
            raise ConfigError(f"{path}: truncated checkpoint: weight "
                              f"{blob['name']!r} ends at byte {start + nbytes}, "
                              f"file has {len(raw)}")
        arr = np.frombuffer(raw, dtype="<f8", count=nbytes // 8,
                            offset=start).reshape(blob["shape"])
        params[blob["name"]] = arr.copy()
    return Checkpoint(kind=header["kind"], config=header["config"],
                      params=params, vocab_tokens=header["vocab"],
                      dataset_tag=header["dataset"])
