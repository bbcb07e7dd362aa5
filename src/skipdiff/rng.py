"""Counter-based random number stream.

Every draw is a pure function of (seed, absolute position), so replaying a
stream from the same (seed, position) reproduces it bit-for-bit on any
platform, and forked child streams are independent by construction. One
array element always consumes exactly one position, regardless of the
distribution sampled.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Distinct per-use-case constants so one position can yield several
# independent 64-bit words (Box-Muller needs two uniforms per normal).
_STREAM_A = np.uint64(0xA0761D6478BD642F)
_STREAM_B = np.uint64(0xE7037ED1A0B428DB)

_INV_2_53 = float(2.0 ** -53)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


_M64 = 0xFFFFFFFFFFFFFFFF


def _mix_scalar(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * int(_MIX1)) & _M64
    z = ((z ^ (z >> 27)) * int(_MIX2)) & _M64
    return z ^ (z >> 31)


class RngStream:
    """Deterministic stream identified by a 64-bit seed and a draw counter."""

    def __init__(self, seed: int, position: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.position = int(position)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed:#x}, position={self.position})"

    def fork(self, *key) -> "RngStream":
        """Derive an independent child stream from the seed and a key.

        The key is one ``str`` tag followed by ints; any other key raises
        ``ParameterError``. The key's bytes are hashed with no separator, so
        ``fork("ab")`` and ``fork("a", "b")`` would otherwise name one
        stream; a tag that ends in the 8 bytes of an int still names the
        stream of the tag without them followed by that int, which the
        program's word tags never do. The child depends only on (seed,
        key), never on the parent's position, so fork points can move
        without perturbing the child. Forking twice with the same key
        yields the same stream.
        """
        if not key or not isinstance(key[0], str) or not all(
                isinstance(part, (int, np.integer)) and not isinstance(part, bool)
                for part in key[1:]):
            raise ParameterError(f"fork key must be one str followed by ints, got {key!r}")
        tag, *ints = key
        h = self.seed
        for b in tag.encode("utf-8") + b"".join(
                int(i).to_bytes(8, "little", signed=True) for i in ints):
            h = _mix_scalar(h ^ (b + 0x100))
        return RngStream(_mix_scalar(h ^ 0x5AFE5EED))

    def _counters(self, offsets: np.ndarray) -> np.ndarray:
        """The counter words of the elements at ``position + offsets``."""
        return np.uint64(self.seed) + (offsets + np.uint64(self.position + 1)) * _GOLDEN

    def uniform(self, shape=None) -> np.ndarray | float:
        """Uniform draws in [0, 1); consumes one position per element."""
        scalar = shape is None
        shp = () if scalar else tuple(int(s) for s in (shape if hasattr(shape, "__iter__") else (shape,)))
        n = int(np.prod(shp)) if shp else 1
        words = _mix(self._counters(np.arange(n, dtype=np.uint64)) ^ _STREAM_A)
        self.position += n
        out = (words >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return float(out[0]) if scalar else out.reshape(shp)

    def normal(self, shape, where=None) -> np.ndarray:
        """Standard normal draws via Box-Muller; one position per element.

        With ``where``, a boolean mask that broadcasts to ``shape``, only the
        selected elements are drawn, each from the position it has without
        the mask, and every other element reads 0.0. The stream advances by
        the full size either way.
        """
        shp = tuple(int(s) for s in (shape if hasattr(shape, "__iter__") else (shape,)))
        n = int(np.prod(shp)) if shp else 1
        if where is None:
            offsets = np.arange(n, dtype=np.uint64)
        else:
            picked = np.flatnonzero(np.broadcast_to(where, shp))
            offsets = picked.astype(np.uint64)
        counters = self._counters(offsets)
        self.position += n
        # u1 in (0, 1] keeps log() finite; u2 in [0, 1).
        u1 = ((_mix(counters ^ _STREAM_A) >> np.uint64(11)).astype(np.float64) + 1.0) \
            * _INV_2_53
        u2 = (_mix(counters ^ _STREAM_B) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        draws = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        if where is None:
            return draws.reshape(shp)
        out = np.zeros(n)
        out[picked] = draws
        return out.reshape(shp)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray | int:
        """Uniform integers in [low, high); one position per element."""
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        u = self.uniform(shape if shape is not None else ())
        out = (np.floor(np.asarray(u) * (high - low)) + low).astype(np.int64)
        out = np.minimum(out, high - 1)
        return int(out) if shape is None else out

    def shuffle_index(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) (argsort of one uniform row)."""
        keys = self.uniform((n,))
        return np.argsort(keys, kind="stable")
