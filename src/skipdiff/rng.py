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

        The child depends only on (seed, key), never on the parent's
        position, so fork points can move without perturbing the child.
        Forking twice with the same key yields the same stream.
        """
        h = self.seed
        for part in key:
            if isinstance(part, str):
                data = part.encode("utf-8")
            elif isinstance(part, (int, np.integer)):
                data = int(part).to_bytes(8, "little", signed=True)
            else:
                raise TypeError(f"fork key parts must be str or int, got {type(part)!r}")
            for b in data:
                h = _mix_scalar(h ^ (b + 0x100))
        return RngStream(_mix_scalar(h ^ 0x5AFE5EED))

    def _words(self, n: int, stream_const: np.uint64) -> np.ndarray:
        idx = np.arange(self.position, self.position + n, dtype=np.uint64)
        base = np.uint64(self.seed) + (idx + np.uint64(1)) * _GOLDEN
        return _mix(base ^ stream_const)

    def uniform(self, shape=None) -> np.ndarray | float:
        """Uniform draws in [0, 1); consumes one position per element."""
        scalar = shape is None
        shp = () if scalar else tuple(int(s) for s in (shape if hasattr(shape, "__iter__") else (shape,)))
        n = int(np.prod(shp)) if shp else 1
        words = self._words(n, _STREAM_A)
        self.position += n
        out = (words >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return float(out[0]) if scalar else out.reshape(shp)

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws via Box-Muller; one position per element."""
        shp = tuple(int(s) for s in (shape if hasattr(shape, "__iter__") else (shape,)))
        n = int(np.prod(shp)) if shp else 1
        if n == 0:
            self.position += 0
            return np.zeros(shp, dtype=np.float64)
        w1 = self._words(n, _STREAM_A)
        w2 = self._words(n, _STREAM_B)
        self.position += n
        # u1 in (0, 1] keeps log() finite; u2 in [0, 1).
        u1 = ((w1 >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (w2 >> np.uint64(11)).astype(np.float64) * _INV_2_53
        out = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
        return out.reshape(shp)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray | int:
        """Uniform integers in [low, high); one position per element."""
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        u = self.uniform(shape if shape is not None else ())
        out = (np.floor(np.asarray(u) * (high - low)) + low).astype(np.int64)
        out = np.minimum(out, high - 1)
        return int(out) if shape is None else out

    def bernoulli(self, p: np.ndarray | float, shape=None) -> np.ndarray:
        """Boolean draws with per-element success probability p."""
        p = np.asarray(p, dtype=np.float64)
        u = self.uniform(shape if shape is not None else p.shape)
        return np.asarray(u) < p

    def shuffle_index(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) (argsort of one uniform row)."""
        keys = self.uniform((n,))
        return np.argsort(keys, kind="stable")
