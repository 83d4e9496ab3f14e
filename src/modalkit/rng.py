"""Pinned hash and PRNG primitives.

Placeholder media and the embedding stub must produce identical bytes on
every platform, so the hash (FNV-1a 64) and the generator (splitmix64)
are written out here instead of leaning on hash() or random.

splitmix64 (Steele, Lea & Flood, OOPSLA 2014) keeps its state as
seed + k*gamma mod 2^64 after k draws, so SplitMix64.bytes and
unit_floats compute a whole block of draws as one numpy uint64
expression.  The block equals k scalar next_u64 calls byte for byte,
and the stream continues exactly where those calls would leave it.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_SM_GAMMA = 0x9E3779B97F4A7C15


def fnv1a64(data: bytes) -> int:
    """FNV-1a over raw bytes, 64-bit variant."""
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK
    return h


def content_hash(kind: str, prompt: str) -> int:
    """Hash of a generation request: UTF-8 of kind, a NUL, UTF-8 of prompt."""
    return fnv1a64(kind.encode("utf-8") + b"\x00" + prompt.encode("utf-8"))


def _scramble(z: int) -> int:
    # splitmix64 output function, doubles as a general 64-bit finalizer
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _scramble_block(z: np.ndarray) -> np.ndarray:
    # _scramble on a uint64 array; products wrap mod 2^64 like the masks above
    with np.errstate(over="ignore"):
        z = z ^ (z >> np.uint64(30))
        z = z * np.uint64(0xBF58476D1CE4E5B9)
        z = z ^ (z >> np.uint64(27))
        z = z * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def mix64(*parts: int) -> int:
    """Fold any number of 64-bit values into one seed."""
    acc = _SM_GAMMA
    for p in parts:
        acc = _scramble((acc + (p & _MASK)) & _MASK)
    return acc


class SplitMix64:
    """Tiny deterministic stream; state advances by the golden gamma."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _SM_GAMMA) & _MASK
        return _scramble(self._state)

    def _draw(self, k: int) -> np.ndarray:
        """The next k outputs as one uint64 array: the state ramp
        start + gamma*(1..k), scrambled, then the state moves past it."""
        with np.errstate(over="ignore"):
            ramp = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_SM_GAMMA)
            ramp += np.uint64(self._state)
        self._state = (self._state + k * _SM_GAMMA) & _MASK
        return _scramble_block(ramp)

    def bytes(self, n: int) -> bytes:
        """n bytes: ceil(n/8) draws, each little-endian, the tail cut off."""
        return self._draw(-(-n // 8)).astype("<u8").tobytes()[:n]

    def unit_floats(self, n: int) -> list[float]:
        """n floats in [-1, 1), 2^-63 resolution."""
        # uint64 -> float64 rounds to nearest like int / int does, and
        # dividing by 2^63 is exact, so each value equals the scalar one.
        return (self._draw(n) / float(1 << 63) - 1.0).tolist()
